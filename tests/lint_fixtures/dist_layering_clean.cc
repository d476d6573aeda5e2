// Clean fixture: dist may include its own headers plus anything
// reachable through its declared deps (common, obs, sim, net, engine —
// and transitively sql, storage, securestore, tee, crypto).
#include "dist/fleet.h"
#include "dist/planner.h"
#include "engine/csa_system.h"
#include "net/secure_channel.h"
#include "obs/trace.h"
#include "securestore/secure_store.h"
#include "sim/fault.h"
#include "sql/partition.h"
#include "storage/block_device.h"
#include "tee/trustzone.h"

void DistLayeringCleanFixture() {}
