#ifndef IRONSAFE_ENGINE_CSA_SYSTEM_H_
#define IRONSAFE_ENGINE_CSA_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>

#include "engine/partitioner.h"
#include "engine/storage_node.h"

namespace ironsafe::engine {

/// The five system configurations of the paper's Table 2.
enum class SystemConfig {
  kHons,  ///< host-only, non-secure (NFS-attached storage)
  kHos,   ///< host-only, secure (SGX enclave + secure storage over NFS)
  kVcs,   ///< vanilla computational storage (split execution, no security)
  kScs,   ///< IronSafe: secure computational storage
  kSos,   ///< storage-only, secure
};

std::string_view SystemConfigName(SystemConfig config);

/// Testbed knobs, mirroring §6.1 and the constrained-resource sweeps.
struct CsaOptions {
  double scale_factor = 0.002;
  sim::HardwareProfile hardware = sim::HardwareProfile::Paper();
  int storage_cores = kStorageCores;                    ///< Figure 10
  uint64_t storage_memory_bytes = kStorageMemoryBytes;  ///< Figure 11
  /// Keeps the paper's database:EPC ratio (~3 GB : 96 MiB) at the bench
  /// scale factor, so host-only secure execution experiences the same
  /// EPC pressure the paper measured. Disable for sweeps that pin the
  /// EPC size themselves (Figure 9a).
  bool scale_epc_to_data = true;
  /// Enables whole-query (aggregation) pushdown in the partitioner —
  /// the paper's §8 future work, exercised by the ablation bench.
  bool aggregation_pushdown = false;
  /// Query fan-out of the host engine in the host-only configurations
  /// (simulated ways and real morsel workers alike); the storage engine's
  /// fan-out is `storage_cores`. The paper's host-only baselines run one
  /// query thread, so the default stays 1.
  int host_parallelism = 1;
  /// SQL execution engine for both sides (vectorized by default; the row
  /// engine remains for before/after benches and differential tests).
  sql::ExecEngine engine = sql::ExecEngine::kVectorized;
  /// Oblivious execution (docs/OBLIVIOUS.md) on both sides: scans read
  /// every page in order with no pushdown, filters/aggregates are
  /// dummy-padded and sorts/joins run on merge networks, so the
  /// page/batch access sequence depends only on data shape, never on
  /// values. Costs rise accordingly (bench/fig_oblivious.cc).
  bool oblivious = false;
};

/// Everything measured about one query execution.
struct QueryOutcome {
  sql::QueryResult result;
  sim::CostModel cost;           ///< simulated time + component breakdown
  uint64_t shipped_bytes = 0;    ///< storage -> host result shipping
  uint64_t storage_pages_read = 0;
  uint64_t host_pages_read = 0;  ///< pages pulled to the host (host-only)
  sim::SimNanos storage_phase_ns = 0;
  sim::SimNanos host_phase_ns = 0;
  sql::ExecStats stats;
};

/// The simulated heterogeneous testbed: an SGX host plus a TrustZone
/// storage server with direct-attached NVMe, loaded with the same data
/// twice (plaintext and secure store) so all five configurations of
/// Table 2 run against identical content.
class CsaSystem {
 public:
  static Result<std::unique_ptr<CsaSystem>> Create(const CsaOptions& options);

  /// Loads a workload into both databases via `loader` (called twice).
  Status Load(const std::function<Status(sql::Database*)>& loader);

  /// Executes `sql` under `config`, returning results plus the simulated
  /// cost account. All configurations of the same query return identical
  /// rows — only the placement/security work differs.
  Result<QueryOutcome> Run(SystemConfig config, const std::string& sql);

  /// Runtime knobs for the constrained-resource sweeps (Figures 10/11):
  /// affect only the cost model, not the stored data.
  void set_storage_cores(int cores) { options_.storage_cores = cores; }
  void set_storage_memory_bytes(uint64_t bytes) {
    options_.storage_memory_bytes = bytes;
  }
  void set_aggregation_pushdown(bool on) {
    options_.aggregation_pushdown = on;
  }
  void set_host_parallelism(int n) { options_.host_parallelism = n; }
  void set_engine(sql::ExecEngine engine) { options_.engine = engine; }
  void set_oblivious(bool on) { options_.oblivious = on; }
  sql::Database* plain_db() { return plain_db_.get(); }
  sql::Database* secure_db() { return storage_->db(); }
  tee::SgxEnclave* host_enclave() { return host_enclave_.get(); }
  tee::TrustZoneDevice* storage_device() { return storage_->device(); }
  securestore::SecureStore* secure_store() { return storage_->store(); }

  /// The host engine's enclave image measurement (for attestation).
  tee::SgxMachine* host_machine() { return &host_machine_; }

  /// Root of trust that certified the storage device (ROTPK anchor).
  const tee::DeviceManufacturer& manufacturer() const { return manufacturer_; }

 private:
  explicit CsaSystem(const CsaOptions& options);

  Result<QueryOutcome> RunHostOnly(const std::string& sql, bool secure);
  Result<QueryOutcome> RunSplit(const std::string& sql, bool secure);
  Result<QueryOutcome> RunStorageOnly(const std::string& sql);

  /// Host-side execution body shared by RunHostOnly and the graceful
  /// degradation path RunSplit takes when the storage node goes down:
  /// runs the whole query on the host against `outcome`'s cost model and
  /// fills in result and host page counts (not the phase timings).
  Status ExecuteHostOnly(const std::string& sql, bool secure,
                         QueryOutcome* outcome);

  CsaOptions options_;

  // Host side.
  tee::SgxMachine host_machine_;
  std::unique_ptr<tee::SgxEnclave> host_enclave_;

  // Storage side: the secure node, plus a plaintext copy of the data on
  // the same server for the non-secure configurations.
  tee::DeviceManufacturer manufacturer_;
  std::unique_ptr<StorageNode> storage_;
  storage::BlockDevice plain_disk_;
  sql::PlainPageStore plain_store_;
  ConfigurablePageStore plain_access_;
  std::unique_ptr<sql::Database> plain_db_;
  crypto::Drbg channel_drbg_;
};

}  // namespace ironsafe::engine

#endif  // IRONSAFE_ENGINE_CSA_SYSTEM_H_
