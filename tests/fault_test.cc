// The adversarial sweep across the trust boundary: every fault-injection
// site gets at least one *detection* test (the fault is caught where the
// threat model says it must be) and one *recovery* test (the system heals
// and produces the same answer as a fault-free run). Also pins the two
// framework-level acceptance properties: faulted runs are deterministic,
// and a disabled registry has zero observable overhead.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "dist/fleet.h"
#include "engine/csa_system.h"
#include "engine/ironsafe.h"
#include "net/secure_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "securestore/secure_store.h"
#include "server/query_service.h"
#include "sim/fault.h"
#include "sql/value.h"
#include "storage/block_device.h"
#include "tee/rpmb.h"
#include "tee/sgx.h"
#include "tee/trustzone.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/table_spec.h"

namespace ironsafe {
namespace {

using engine::CsaOptions;
using engine::CsaSystem;
using engine::QueryOutcome;
using engine::SystemConfig;
using sim::FaultRegistry;
using sim::ScopedFaultInjection;
namespace site = sim::fault_site;

int64_t CounterValue(std::string_view name) {
  return obs::GetCounter(name).value();
}

// ---------------- registry unit tests ----------------

TEST(FaultRegistryTest, DisabledRegistryObservesNothing) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Reset();
  ASSERT_FALSE(reg.enabled());
  EXPECT_FALSE(sim::FaultAt("unit.disabled").has_value());
  EXPECT_EQ(reg.occurrences("unit.disabled"), 0u);
}

TEST(FaultRegistryTest, NthTriggerFiresOnScheduleWithDerivedParams) {
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth("unit.nth", /*nth=*/3, /*count=*/2, /*param=*/10);
  std::vector<uint64_t> fired_params;
  for (int i = 0; i < 6; ++i) {
    if (auto hit = sim::FaultAt("unit.nth")) fired_params.push_back(hit->param);
  }
  // Fires on occurrences 3 and 4; the i-th fire sees param + i.
  ASSERT_EQ(fired_params, (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(reg.occurrences("unit.nth"), 6u);
  EXPECT_EQ(reg.fired("unit.nth"), 2u);
}

TEST(FaultRegistryTest, NthTriggerIsRelativeToArmingPoint) {
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  // Two occurrences happen before arming; "1st" must mean the next one.
  (void)sim::FaultAt("unit.relative");
  (void)sim::FaultAt("unit.relative");
  reg.ArmNth("unit.relative", 1);
  EXPECT_TRUE(sim::FaultAt("unit.relative").has_value());
  EXPECT_FALSE(sim::FaultAt("unit.relative").has_value());
  EXPECT_EQ(reg.fired("unit.relative"), 1u);
}

TEST(FaultRegistryTest, ProbabilityTriggerIsSeedStable) {
  auto decisions = [](uint64_t seed) {
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmProbability("unit.prob", 0.3, seed);
    std::string pattern;
    for (int i = 0; i < 200; ++i) {
      pattern += sim::FaultAt("unit.prob").has_value() ? '1' : '0';
    }
    return pattern;
  };
  std::string a = decisions(99);
  EXPECT_EQ(a, decisions(99)) << "same seed must reproduce the decision tape";
  EXPECT_NE(a.find('1'), std::string::npos) << "p=0.3 over 200 draws";
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultRegistryTest, FiredSnapshotListsOnlyFiringSites) {
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth("unit.snap.b", 1);
  reg.ArmNth("unit.snap.a", 1);
  (void)sim::FaultAt("unit.snap.a");
  (void)sim::FaultAt("unit.snap.b");
  (void)sim::FaultAt("unit.snap.quiet");
  auto snapshot = reg.FiredSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "unit.snap.a");  // name-sorted
  EXPECT_EQ(snapshot[1].first, "unit.snap.b");
}

TEST(FaultRegistryTest, ScopeGuardLeavesRegistryCleanAndDisabled) {
  {
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmNth("unit.scope", 1);
    (void)sim::FaultAt("unit.scope");
  }
  EXPECT_FALSE(FaultRegistry::Global().enabled());
  EXPECT_EQ(FaultRegistry::Global().occurrences("unit.scope"), 0u);
  EXPECT_EQ(FaultRegistry::Global().fired("unit.scope"), 0u);
}

// ---------------- net: SecureChannel sites ----------------

struct ChannelPair {
  std::unique_ptr<net::SecureChannel> a;  // initiator end
  std::unique_ptr<net::SecureChannel> b;  // responder end
};

ChannelPair MakeChannelPair() {
  auto pair = net::Handshake::FromSessionKey(Bytes(32, 0x42));
  EXPECT_TRUE(pair.ok());
  return {std::move(pair->first), std::move(pair->second)};
}

TEST(NetFaultTest, SendDropIsDetectedAndPlainResendRecovers) {
  ScopedFaultInjection guard;
  ChannelPair ch = MakeChannelPair();
  int64_t drops = CounterValue("net.channel.injected_drops");
  FaultRegistry::Global().ArmNth(site::kNetSendDrop, 1);

  // Detection: the send reports the transient loss.
  auto lost = ch.a->Send(ToBytes("payload"), nullptr);
  ASSERT_TRUE(lost.status().IsUnavailable()) << lost.status().ToString();
  EXPECT_EQ(CounterValue("net.channel.injected_drops"), drops + 1);

  // Recovery: send state did not advance, so a plain re-send heals.
  auto frame = ch.a->Send(ToBytes("payload"), nullptr);
  ASSERT_TRUE(frame.ok());
  auto got = ch.b->Receive(*frame, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, ToBytes("payload"));
}

TEST(NetFaultTest, SendCorruptionDesyncsUntilRehandshake) {
  ScopedFaultInjection guard;
  ChannelPair ch = MakeChannelPair();
  FaultRegistry::Global().ArmNth(site::kNetSendCorrupt, 1, /*count=*/1,
                                 /*param=*/5);

  // Detection: the receiver rejects the damaged frame.
  auto frame = ch.a->Send(ToBytes("m0"), nullptr);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(ch.b->Receive(*frame, nullptr).status().IsCorruption());

  // The send committed, so the endpoints are now permanently out of step:
  // even an undamaged follow-up frame carries a sequence number the
  // receiver is not expecting.
  auto next = ch.a->Send(ToBytes("m1"), nullptr);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(ch.b->Receive(*next, nullptr).status().IsCorruption());

  // Recovery: a re-handshake resyncs both ends.
  ChannelPair fresh = MakeChannelPair();
  auto resent = fresh.a->Send(ToBytes("m1"), nullptr);
  ASSERT_TRUE(resent.ok());
  auto got = fresh.b->Receive(*resent, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, ToBytes("m1"));
}

TEST(NetFaultTest, ReplayedFrameIsRejectedAndLegitFrameStillLands) {
  ScopedFaultInjection guard;
  ChannelPair ch = MakeChannelPair();

  // Establish one accepted frame for the adversary to replay.
  auto f0 = ch.a->Send(ToBytes("m0"), nullptr);
  ASSERT_TRUE(f0.ok());
  ASSERT_TRUE(ch.b->Receive(*f0, nullptr).ok());

  int64_t replays = CounterValue("net.channel.injected_replays");
  FaultRegistry::Global().ArmNth(site::kNetRecvReplay, 1);
  auto f1 = ch.a->Send(ToBytes("m1"), nullptr);
  ASSERT_TRUE(f1.ok());

  // Detection: the substituted old frame binds an older sequence number.
  EXPECT_TRUE(ch.b->Receive(*f1, nullptr).status().IsCorruption());
  EXPECT_EQ(CounterValue("net.channel.injected_replays"), replays + 1);

  // Recovery: rejection was transactional, so the real frame — delivered
  // once the adversary stops interfering — still authenticates.
  auto got = ch.b->Receive(*f1, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, ToBytes("m1"));
}

// ---------------- tee: RPMB sites ----------------

class RpmbFaultTest : public ::testing::Test {
 protected:
  RpmbFaultTest() : client_(&device_, Bytes(32, 0x55)) {
    EXPECT_TRUE(client_.Provision().ok());
  }

  tee::RpmbDevice device_;
  tee::RpmbClient client_;
};

TEST_F(RpmbFaultTest, StaleCounterIsRejectedByDeviceWhenPersistent) {
  ScopedFaultInjection guard;
  int64_t auth_failures = CounterValue("tee.rpmb.auth_failures");
  // Roll the counter back on every attempt the bounded retry makes.
  FaultRegistry::Global().ArmNth(site::kRpmbCounterRollback, 1, /*count=*/8);

  Status status = client_.Write(3, ToBytes("root-mac"));
  EXPECT_TRUE(status.IsUnauthenticated()) << status.ToString();
  // The device flagged every stale-counter frame as a replay attempt.
  EXPECT_GE(CounterValue("tee.rpmb.auth_failures"), auth_failures + 2);
  EXPECT_EQ(device_.write_counter(), 0u) << "no rejected write may commit";
}

TEST_F(RpmbFaultTest, TransientStaleCounterRecoversViaRetry) {
  ScopedFaultInjection guard;
  int64_t retries = CounterValue("retry.tee.rpmb.write.attempts");
  FaultRegistry::Global().ArmNth(site::kRpmbCounterRollback, 1);

  ASSERT_TRUE(client_.Write(3, ToBytes("root-mac")).ok());
  EXPECT_EQ(FaultRegistry::Global().fired(site::kRpmbCounterRollback), 1u);
  EXPECT_GE(CounterValue("retry.tee.rpmb.write.attempts"), retries + 1);
  EXPECT_EQ(device_.write_counter(), 1u) << "exactly one commit";
  auto back = client_.Read(3, Bytes(16, 0x01));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, ToBytes("root-mac"));
}

TEST_F(RpmbFaultTest, DamagedWriteMacRecoversViaRetry) {
  ScopedFaultInjection guard;
  int64_t auth_failures = CounterValue("tee.rpmb.auth_failures");
  FaultRegistry::Global().ArmNth(site::kRpmbMacCorrupt, 1, /*count=*/1,
                                 /*param=*/7);

  ASSERT_TRUE(client_.Write(9, ToBytes("key-blob")).ok());
  // Detection happened inside the recovery: the device rejected the
  // damaged frame before the clean retry landed.
  EXPECT_EQ(CounterValue("tee.rpmb.auth_failures"), auth_failures + 1);
  auto back = client_.Read(9, Bytes(16, 0x02));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, ToBytes("key-blob"));
}

// ---------------- tee: SGX sites ----------------

TEST(SgxFaultTest, EcallAbortSurfacesUnavailableButStillCharges) {
  ScopedFaultInjection guard;
  tee::SgxMachine machine(Bytes(32, 0x11));
  auto enclave = machine.LoadEnclave("query-engine", ToBytes("image"));
  int64_t failures = CounterValue("tee.sgx.ecall_failures");
  FaultRegistry::Global().ArmNth(site::kSgxEcallFail, 1);

  sim::CostModel cost;
  Status status = enclave->EnterExit(&cost);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_EQ(CounterValue("tee.sgx.ecall_failures"), failures + 1);
  EXPECT_GT(cost.elapsed_ns(), 0u) << "the CPU did enter and fall back out";

  // Recovery: the abort is transient — the next ecall goes through.
  EXPECT_TRUE(enclave->EnterExit(&cost).ok());
}

TEST(SgxFaultTest, EpcSpikeChargesExtraFaultsDeterministically) {
  tee::SgxMachine machine(Bytes(32, 0x11));
  constexpr uint64_t kBytes = 1024 * 1024;

  auto baseline_enclave = machine.LoadEnclave("e0", ToBytes("image"));
  sim::CostModel base_cost;
  uint64_t base_faults = baseline_enclave->TouchMemory(0, kBytes, &base_cost);

  ScopedFaultInjection guard;
  FaultRegistry::Global().ArmNth(site::kSgxEpcSpike, 1, /*count=*/1,
                                 /*param=*/4);
  auto spiked_enclave = machine.LoadEnclave("e1", ToBytes("image"));
  sim::CostModel spiked_cost;
  uint64_t spiked_faults = spiked_enclave->TouchMemory(0, kBytes, &spiked_cost);

  // param=4 -> exactly 1 + 4 % 64 = 5 extra faults, each one charged.
  EXPECT_EQ(spiked_faults, base_faults + 5);
  EXPECT_GT(spiked_cost.elapsed_ns(), base_cost.elapsed_ns());
}

// ---------------- securestore sites ----------------

class SecureStoreFaultTest : public ::testing::Test {
 protected:
  SecureStoreFaultTest()
      : manufacturer_(ToBytes("mfg")),
        device_(ToBytes("serial-1"), manufacturer_,
                tee::StorageNodeConfig{"s1", "eu", 1}),
        ta_(&device_) {}

  tee::DeviceManufacturer manufacturer_;
  tee::TrustZoneDevice device_;
  securestore::SecureStorageTa ta_;
  storage::BlockDevice disk_;
};

TEST_F(SecureStoreFaultTest, TransientReadBitflipHealsOnReverify) {
  auto store = securestore::SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE(store.ok());
  Bytes page(securestore::SecureStore::kPageSize, 0xAB);
  ASSERT_TRUE((*store)->WritePage(0, page).ok());

  ScopedFaultInjection guard;
  int64_t reverifies = CounterValue("securestore.reverifies");
  int64_t retries = CounterValue("retry.securestore.reverify.attempts");
  FaultRegistry::Global().ArmNth(site::kStoreReadBitflip, 1);

  auto got = (*store)->ReadPage(0);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, page) << "recovered read must return the true plaintext";
  EXPECT_EQ(CounterValue("securestore.reverifies"), reverifies + 1);
  EXPECT_GE(CounterValue("retry.securestore.reverify.attempts"), retries + 1);
}

TEST_F(SecureStoreFaultTest, PersistentBitflipStillSurfacesCorruption) {
  auto store = securestore::SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      (*store)
          ->WritePage(0, Bytes(securestore::SecureStore::kPageSize, 0xAB))
          .ok());

  ScopedFaultInjection guard;
  // Flip a bit on every fetch the bounded reverify makes: this is
  // indistinguishable from persistent on-media tampering and must NOT be
  // silently healed.
  FaultRegistry::Global().ArmNth(site::kStoreReadBitflip, 1, /*count=*/8);
  auto got = (*store)->ReadPage(0);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST_F(SecureStoreFaultTest, OnDiskTamperIsNeverHealedByRetry) {
  auto store = securestore::SecureStore::Create(&disk_, &ta_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      (*store)
          ->WritePage(0, Bytes(securestore::SecureStore::kPageSize, 0xAB))
          .ok());
  // A real adversary mutation of the stored frame (not an injected
  // transient): the re-fetch sees the same tampered bytes every time.
  Bytes* frame = disk_.MutableFrame(0);
  ASSERT_NE(frame, nullptr);
  (*frame)[frame->size() / 2] ^= 0x01;
  auto got = (*store)->ReadPage(0);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

// ---------------- engine: end-to-end recovery ----------------

std::string Canonical(const sql::QueryResult& result) {
  std::vector<std::string> lines;
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) {
      if (v.type() == sql::Type::kDouble) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", v.AsDouble());
        line += buf;
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (auto& l : lines) out += l + "\n";
  return out;
}

std::string ExactRows(const sql::QueryResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    for (const auto& v : row) {
      out += v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

class CsaFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CsaOptions options;
    options.scale_factor = 0.001;
    auto system = CsaSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = system->release();
    ASSERT_TRUE(system_
                    ->Load([&](sql::Database* db) {
                      tpch::TpchGenerator g(
                          tpch::TpchConfig{options.scale_factor, 42});
                      return g.LoadInto(db);
                    })
                    .ok());
  }

  QueryOutcome MustRun(SystemConfig config, int query) {
    auto q = tpch::GetQuery(query);
    EXPECT_TRUE(q.ok());
    auto out = system_->Run(config, (*q)->sql);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(*out);
  }

  static CsaSystem* system_;
};

CsaSystem* CsaFaultTest::system_ = nullptr;

TEST_F(CsaFaultTest, DroppedShipFrameRecoversWithIdenticalRows) {
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  ScopedFaultInjection guard;
  int64_t retries = CounterValue("retry.net.ship.attempts");
  FaultRegistry::Global().ArmNth(site::kNetSendDrop, 1);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kNetSendDrop), 1u);
  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_GE(CounterValue("retry.net.ship.attempts"), retries + 1);
  // The recovery work is visible in the cost account: the faulted run
  // paid for the retry backoff on top of the fault-free run.
  EXPECT_GT(faulted.cost.elapsed_ns(), clean.cost.elapsed_ns());
}

TEST_F(CsaFaultTest, CorruptedShipFrameTriggersRehandshakeAndRecovers) {
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  ScopedFaultInjection guard;
  int64_t rehandshakes = CounterValue("net.channel.rehandshakes");
  FaultRegistry::Global().ArmNth(site::kNetSendCorrupt, 1, /*count=*/1,
                                 /*param=*/3);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);

  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_GE(CounterValue("net.channel.rehandshakes"), rehandshakes + 1);
}

TEST_F(CsaFaultTest, ReplayedShipFrameTriggersRehandshakeAndRecovers) {
  // Q3 ships several fragments over one channel; a replay needs a
  // previously accepted frame, so arm the second receive.
  QueryOutcome clean = MustRun(SystemConfig::kScs, 3);

  ScopedFaultInjection guard;
  int64_t replays = CounterValue("net.channel.injected_replays");
  FaultRegistry::Global().ArmNth(site::kNetRecvReplay, 2);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 3);

  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_EQ(CounterValue("net.channel.injected_replays"), replays + 1);
}

TEST_F(CsaFaultTest, EcallAbortDuringSecureHostRunRecovers) {
  QueryOutcome clean = MustRun(SystemConfig::kHos, 6);

  ScopedFaultInjection guard;
  int64_t retries = CounterValue("retry.tee.ecall.attempts");
  FaultRegistry::Global().ArmNth(site::kSgxEcallFail, 1);
  QueryOutcome faulted = MustRun(SystemConfig::kHos, 6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kSgxEcallFail), 1u);
  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_GE(CounterValue("retry.tee.ecall.attempts"), retries + 1);
}

TEST_F(CsaFaultTest, EpcSpikeChangesCostButNeverRows) {
  // The spike site is reached when the secure split run materializes
  // shipped rows into the host enclave's EPC.
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  ScopedFaultInjection guard;
  FaultRegistry::Global().ArmNth(site::kSgxEpcSpike, 1, /*count=*/1,
                                 /*param=*/9);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kSgxEpcSpike), 1u);
  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_GT(faulted.cost.elapsed_ns(), clean.cost.elapsed_ns());
}

TEST_F(CsaFaultTest, StoreBitflipDuringSplitRunRecovers) {
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  ScopedFaultInjection guard;
  int64_t reverifies = CounterValue("securestore.reverifies");
  FaultRegistry::Global().ArmNth(site::kStoreReadBitflip, 1);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kStoreReadBitflip), 1u);
  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result));
  EXPECT_EQ(CounterValue("securestore.reverifies"), reverifies + 1);
}

TEST_F(CsaFaultTest, StorageNodeDownDegradesToHostWithSameRows) {
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  ScopedFaultInjection guard;
  int64_t fallbacks = CounterValue("engine.host_fallbacks");
  FaultRegistry::Global().ArmNth(site::kEngineStorageDown, 1);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kEngineStorageDown), 1u);
  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result))
      << "graceful degradation must compute the same answer on the host";
  EXPECT_EQ(CounterValue("engine.host_fallbacks"), fallbacks + 1);
  EXPECT_GT(faulted.host_phase_ns, 0u) << "the host did the work";
  EXPECT_GT(faulted.host_pages_read, 0u);
}

// ---------------- determinism of faulted runs ----------------

TEST_F(CsaFaultTest, FaultedRunsAreBitIdenticalAcrossReruns) {
  auto faulted_run = [&]() {
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmNth(site::kNetSendDrop, 1);
    FaultRegistry::Global().ArmNth(site::kEngineStorageDown, 1, /*count=*/1,
                                   /*param=*/0);
    return MustRun(SystemConfig::kScs, 6);
  };
  QueryOutcome first = faulted_run();
  QueryOutcome second = faulted_run();
  EXPECT_EQ(ExactRows(first.result), ExactRows(second.result));
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_EQ(first.cost, second.cost)
      << "the injected fault and its recovery must cost the same every run";
  EXPECT_EQ(first.host_pages_read, second.host_pages_read);
}

TEST_F(CsaFaultTest, FaultedRunsAreWorkerCountInvariant) {
  // The armed sites sit on the session thread (ship + fragment loop), so
  // even the fire schedule is worker-independent; rows, stats and merged
  // cost must not move.
  std::optional<QueryOutcome> base;
  for (int workers : {1, 4}) {
    common::ThreadPool::set_max_workers(workers);
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmNth(site::kNetSendDrop, 1);
    auto q = tpch::GetQuery(6);
    ASSERT_TRUE(q.ok());
    auto out = system_->Run(SystemConfig::kScs, (*q)->sql);
    if (!out.ok()) common::ThreadPool::set_max_workers(0);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!base.has_value()) {
      base = std::move(*out);
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
        << "workers=" << workers;
    EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
    EXPECT_EQ(out->cost, base->cost) << "workers=" << workers;
  }
  common::ThreadPool::set_max_workers(0);
}

// ---------------- zero overhead when off (acceptance) ----------------

TEST_F(CsaFaultTest, DisabledInjectionIsByteIdenticalToUnarmedEnabled) {
  // The acceptance bar: with the registry disabled, the instrumented
  // paths are the pre-instrumentation paths — same rows, same cost
  // account, byte-identical trace. An enabled-but-unarmed registry must
  // also change nothing observable (its only extra state is internal).
  for (SystemConfig config : {SystemConfig::kScs, SystemConfig::kHos}) {
    auto traced_run = [&]() {
      obs::Tracer tracer;
      obs::ScopedTracer scope(&tracer);
      QueryOutcome out = MustRun(config, 6);
      std::ostringstream trace;
      tracer.ExportChromeTrace(trace, obs::ExportOptions{});
      return std::make_pair(std::move(out), trace.str());
    };

    ASSERT_FALSE(FaultRegistry::Global().enabled());
    auto [off, off_trace] = traced_run();

    std::optional<std::pair<QueryOutcome, std::string>> on;
    {
      ScopedFaultInjection guard;  // enabled, nothing armed
      on = traced_run();
    }

    EXPECT_EQ(ExactRows(on->first.result), ExactRows(off.result));
    EXPECT_EQ(on->first.cost, off.cost)
        << engine::SystemConfigName(config) << ": cost must be bit-identical";
    EXPECT_EQ(on->first.stats, off.stats);
    EXPECT_EQ(on->second, off_trace)
        << engine::SystemConfigName(config) << ": trace must be byte-identical";
  }
}

// ---------------- seed sweep (CI fault matrix) ----------------

TEST_F(CsaFaultTest, RandomFaultSweepAlwaysRecovers) {
  // CI runs this under IRONSAFE_FAULT_SEED=1..10 (see scripts/check.sh):
  // probabilistic triggers on every recoverable site, with rates low
  // enough that the bounded retries (3 attempts) exhaust with negligible
  // probability. The invariant: whatever fires, the answer is the
  // fault-free answer.
  uint64_t seed = 1;
  if (const char* env = std::getenv("IRONSAFE_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  QueryOutcome clean = MustRun(SystemConfig::kScs, 3);

  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmProbability(site::kNetSendDrop, 0.05, seed);
  reg.ArmProbability(site::kSgxEcallFail, 0.01, seed + 1);
  reg.ArmProbability(site::kStoreReadBitflip, 0.01, seed + 2);
  reg.ArmProbability(site::kSgxEpcSpike, 0.02, seed + 3);
  QueryOutcome faulted = MustRun(SystemConfig::kScs, 3);

  EXPECT_EQ(Canonical(faulted.result), Canonical(clean.result))
      << "seed " << seed << " fired: " << [&] {
           std::string s;
           for (const auto& [name, n] : reg.FiredSnapshot()) {
             s += name + "=" + std::to_string(n) + " ";
           }
           return s;
         }();
}

TEST_F(CsaFaultTest, RandomFaultSweepRecoversInObliviousMode) {
  // The same CI seed matrix, with the padded oblivious pipeline
  // (docs/OBLIVIOUS.md) underneath: recovery must reproduce the
  // fault-free *oblivious* answer bit-for-bit, and the retries must not
  // perturb the value-independent execution (same stats both runs).
  uint64_t seed = 1;
  if (const char* env = std::getenv("IRONSAFE_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  system_->set_oblivious(true);
  QueryOutcome clean = MustRun(SystemConfig::kScs, 6);

  {
    ScopedFaultInjection guard;
    FaultRegistry& reg = FaultRegistry::Global();
    reg.ArmProbability(site::kNetSendDrop, 0.05, seed);
    reg.ArmProbability(site::kSgxEcallFail, 0.01, seed + 1);
    reg.ArmProbability(site::kStoreReadBitflip, 0.01, seed + 2);
    reg.ArmProbability(site::kSgxEpcSpike, 0.02, seed + 3);
    QueryOutcome faulted = MustRun(SystemConfig::kScs, 6);
    EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result))
        << "seed " << seed;
    EXPECT_EQ(faulted.stats, clean.stats) << "seed " << seed;
  }
  system_->set_oblivious(false);
}

// ---------------- fleet fault sites (dist.*) ----------------

// The two distributed sites (docs/SHARDING.md): a storage node failing
// its pre-dispatch heartbeat (`dist.shard.down`) and a sealed result
// frame corrupted on the shard->host wire (`dist.fragment.corrupt`).
// Detection bar: the failover counter / the AEAD reject + re-key counter.
// Recovery bar: bit-identical rows — replicas hold identical slices, and
// re-sent frames carry the same payload.
class DistFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dist::FleetOptions options;
    options.shard_count = 2;
    options.replicas_per_shard = 2;
    options.partitions = tpch::TpchPartitionScheme();
    auto fleet = dist::ShardedCsaFleet::Create(options);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    ASSERT_TRUE((*fleet)
                    ->Load([](sql::Database* db) {
                      tpch::TpchGenerator g(tpch::TpchConfig{0.001, 42});
                      return g.LoadInto(db);
                    })
                    .ok());
    fleet_ = fleet->release();
  }

  dist::FleetOutcome MustRun(int query) {
    auto q = tpch::GetQuery(query);
    EXPECT_TRUE(q.ok());
    auto out = fleet_->Run((*q)->sql);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::move(*out);
  }

  static dist::ShardedCsaFleet* fleet_;
};

dist::ShardedCsaFleet* DistFaultTest::fleet_ = nullptr;

TEST_F(DistFaultTest, ShardDownIsDetectedAndReplicaServesSameRows) {
  dist::FleetOutcome clean = MustRun(6);

  ScopedFaultInjection guard;
  int64_t failovers = CounterValue("dist.failovers");
  FaultRegistry::Global().ArmNth(site::kDistShardDown, 1);
  dist::FleetOutcome faulted = MustRun(6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kDistShardDown), 1u);
  EXPECT_EQ(faulted.failovers, 1);
  EXPECT_EQ(CounterValue("dist.failovers"), failovers + 1);
  EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result));
  // Detection latency (the heartbeat timeout) lands in the cost account.
  EXPECT_GT(faulted.cost.elapsed_ns(), clean.cost.elapsed_ns());
}

TEST_F(DistFaultTest, ExhaustedReplicaGroupIsUnavailableNotWrong) {
  ScopedFaultInjection guard;
  FaultRegistry::Global().ArmNth(site::kDistShardDown, 1,
                                 /*count=*/2);
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  auto out = fleet_->Run((*q)->sql);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status().ToString();
}

TEST_F(DistFaultTest, CorruptFragmentFrameIsRejectedThenRekeyedAndResent) {
  dist::FleetOutcome clean = MustRun(6);

  ScopedFaultInjection guard;
  int64_t rekeys = CounterValue("dist.channel.rehandshakes");
  FaultRegistry::Global().ArmNth(site::kDistFragmentCorrupt, 1, /*count=*/1,
                                 /*param=*/7);
  dist::FleetOutcome faulted = MustRun(6);

  EXPECT_EQ(FaultRegistry::Global().fired(site::kDistFragmentCorrupt), 1u);
  EXPECT_GE(CounterValue("dist.channel.rehandshakes"), rekeys + 1);
  EXPECT_EQ(ExactRows(faulted.result), ExactRows(clean.result));
}

/// Occurrences of `fault` in one fault-free run of TPC-H `query`.
uint64_t OccurrencesPerRun(dist::ShardedCsaFleet* fleet, int query,
                           std::string_view fault) {
  auto q = tpch::GetQuery(query);
  EXPECT_TRUE(q.ok());
  ScopedFaultInjection guard;
  EXPECT_TRUE(fleet->Run((*q)->sql).ok());
  return FaultRegistry::Global().occurrences(fault);
}

/// Runs TPC-H `query` with `fault` armed to fire once, on its `nth`
/// occurrence, at 1 and at 4 workers. The fault must fire, the query
/// must succeed, and rows, cost, stats and the default trace must match
/// between the two worker counts. Returns the 1-worker outcome.
std::optional<dist::FleetOutcome> ExpectArmedRunWorkerInvariant(
    dist::ShardedCsaFleet* fleet, int query, std::string_view fault,
    uint64_t nth) {
  auto q = tpch::GetQuery(query);
  EXPECT_TRUE(q.ok());
  std::optional<dist::FleetOutcome> base;
  std::string base_trace;
  for (int workers : {1, 4}) {
    SCOPED_TRACE(std::string(fault) + " nth=" + std::to_string(nth) +
                 " workers=" + std::to_string(workers));
    common::ThreadPool::set_max_workers(workers);
    ScopedFaultInjection guard;
    FaultRegistry::Global().ArmNth(fault, nth, /*count=*/1, /*param=*/nth);
    obs::Tracer tracer;
    std::optional<dist::FleetOutcome> out;
    {
      obs::ScopedTracer scope(&tracer);
      auto run = fleet->Run((*q)->sql);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (run.ok()) out = std::move(*run);
    }
    common::ThreadPool::set_max_workers(0);
    EXPECT_EQ(FaultRegistry::Global().fired(fault), 1u);
    if (!out.has_value()) return std::nullopt;
    std::ostringstream trace;
    tracer.ExportChromeTrace(trace, obs::ExportOptions{});
    if (!base.has_value()) {
      base = std::move(out);
      base_trace = trace.str();
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result));
    EXPECT_EQ(out->failovers, base->failovers);
    EXPECT_EQ(out->cost, base->cost);
    EXPECT_EQ(out->stats, base->stats);
    EXPECT_EQ(trace.str(), base_trace);
  }
  return base;
}

TEST_F(DistFaultTest, EveryHeartbeatFailoverIsWorkerCountInvariant) {
  // Heartbeats run on the calling thread in group-then-fragment order
  // before the groups fan out, so the n-th heartbeat names the same
  // (group, fragment) at every worker count.
  uint64_t heartbeats = OccurrencesPerRun(fleet_, 3, site::kDistShardDown);
  ASSERT_GT(heartbeats, 0u);
  for (uint64_t nth = 1; nth <= heartbeats; ++nth) {
    auto out = ExpectArmedRunWorkerInvariant(fleet_, 3, site::kDistShardDown,
                                             nth);
    ASSERT_TRUE(out.has_value()) << "nth=" << nth;
    EXPECT_EQ(out->failovers, 1) << "nth=" << nth;
  }
}

TEST_F(DistFaultTest, EveryHostEnclaveFaultIsWorkerCountInvariant) {
  // The host enclave's EnterExit and TouchMemory run on the calling
  // thread after the groups fan out, in group-then-fragment order. An
  // aborted ecall re-enters the enclave over the batch the group task
  // already opened (nothing is re-sent); an EPC spike only raises costs.
  // Every n must give the fault-free rows at 1 and at 4 workers.
  dist::FleetOutcome clean = MustRun(3);
  for (std::string_view fault : {site::kSgxEcallFail, site::kSgxEpcSpike}) {
    uint64_t occurrences = OccurrencesPerRun(fleet_, 3, fault);
    ASSERT_GT(occurrences, 0u) << fault;
    for (uint64_t nth = 1; nth <= occurrences; ++nth) {
      auto out = ExpectArmedRunWorkerInvariant(fleet_, 3, fault, nth);
      ASSERT_TRUE(out.has_value()) << fault << " nth=" << nth;
      EXPECT_EQ(ExactRows(out->result), ExactRows(clean.result))
          << fault << " nth=" << nth;
      EXPECT_GT(out->cost.elapsed_ns(), clean.cost.elapsed_ns())
          << fault << " nth=" << nth;
    }
  }
}

TEST_F(DistFaultTest, RandomDistFaultSweepRecoversOrFailsSafe) {
  // The CI seed matrix (IRONSAFE_FAULT_SEED=1..10, scripts/check.sh)
  // extended to sharded execution: probabilistic shard-down, fragment
  // corruption, transport faults and aborted host ecalls all at once. The invariant is
  // fail-safe, not fail-never: either the fleet recovers to the
  // fault-free rows, or enough heartbeats fired to exhaust a replica
  // group and the query reports kUnavailable — never a wrong answer.
  uint64_t seed = 1;
  if (const char* env = std::getenv("IRONSAFE_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  dist::FleetOutcome clean = MustRun(3);

  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmProbability(site::kDistShardDown, 0.05, seed);
  reg.ArmProbability(site::kDistFragmentCorrupt, 0.05, seed + 1);
  reg.ArmProbability(site::kNetSendDrop, 0.05, seed + 2);
  reg.ArmProbability(site::kSgxEcallFail, 0.05, seed + 3);
  auto q = tpch::GetQuery(3);
  ASSERT_TRUE(q.ok());
  auto faulted = fleet_->Run((*q)->sql);
  if (faulted.ok()) {
    EXPECT_EQ(ExactRows(faulted->result), ExactRows(clean.result))
        << "seed " << seed << " fired: " << [&] {
             std::string s;
             for (const auto& [name, n] : reg.FiredSnapshot()) {
               s += name + "=" + std::to_string(n) + " ";
             }
             return s;
           }();
  } else {
    EXPECT_TRUE(faulted.status().IsUnavailable())
        << faulted.status().ToString();
    EXPECT_GE(reg.fired(site::kDistShardDown),
              static_cast<uint64_t>(fleet_->replicas_per_shard()))
        << "unavailability without an exhausted replica group";
  }
}

// ---------------- serving-layer fault sites ----------------

// Session faults live in the serving layer's dispatch/admission path:
// a dropped tenant mid-queue and an injected admission overflow. The
// detection bar is the serving contract itself (aborted statements are
// provably unexecuted, overflow is retryable backpressure) and recovery
// is the documented client loop: reopen + resubmit, or retry-after-pump.
class ServerFaultTest : public ::testing::Test {
 protected:
  static constexpr int kConsumers = 2;

  void SetUp() override {
    engine::IronSafeSystem::Options options;
    options.csa.scale_factor = 0.001;
    auto system = engine::IronSafeSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    ASSERT_TRUE(system_->Bootstrap().ok());
    system_->set_current_date(*sql::ParseDate("1997-06-01"));
    system_->RegisterClient("producer");
    std::string policy = "read ::= sessionKeyIs(producer)";
    for (int c = 0; c < kConsumers; ++c) {
      std::string key = std::string("c").append(std::to_string(c));
      system_->RegisterClient(key);
      policy += " | sessionKeyIs(" + key + ")";
    }
    policy += "\nwrite ::= sessionKeyIs(producer)\n";
    ASSERT_TRUE(system_
                    ->CreateProtectedTable(
                        "producer",
                        "CREATE TABLE accounts "
                        "(id INTEGER, owner VARCHAR, balance DOUBLE)",
                        policy, /*with_expiry=*/false, /*with_reuse=*/false)
                    .ok());
    std::string insert = "INSERT INTO accounts (id, owner, balance) VALUES ";
    for (int i = 0; i < 30; ++i) {
      if (i) insert += ", ";
      insert += std::string("(").append(std::to_string(i)) +
                ", 'user" + std::to_string(i) +
                "', " + std::to_string(100.0 + i) + ")";
    }
    ASSERT_TRUE(system_->Execute("producer", insert).ok());
    service_ = std::make_unique<server::QueryService>(
        system_.get(), server::ServiceOptions{});
  }

  struct End {
    uint64_t id = 0;
    std::unique_ptr<net::SecureChannel> channel;
  };

  End Open(const std::string& key) {
    auto session = service_->OpenSession(key);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return {};
    return End{session->id, std::move(session->channel)};
  }

  static Bytes SealRequest(End& end, const std::string& sql) {
    server::StatementRequest request;
    request.sql = sql;
    auto frame =
        end.channel->Send(server::EncodeStatementRequest(request), nullptr);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? *frame : Bytes{};
  }

  /// Closed-loop statement with the full recovery protocol: pump and
  /// resubmit on backpressure, reopen the session and re-seal on a drop.
  /// Returns the single owner string the SELECT produced.
  std::string RunWithRecovery(End& end, int id) {
    const std::string sql =
        "SELECT owner FROM accounts WHERE id = " + std::to_string(id);
    for (int attempt = 0; attempt < 50; ++attempt) {
      Bytes frame = SealRequest(end, sql);
      bool submitted = false;
      for (int push = 0; push < 50 && !submitted; ++push) {
        auto seq = service_->Submit(end.id, frame);
        if (seq.ok()) {
          submitted = true;
        } else if (IsBackpressure(seq.status())) {
          service_->RunUntilIdle();
        } else {
          break;  // session gone: reopen below
        }
      }
      if (!submitted) {
        end = Open("c0");
        continue;
      }
      service_->RunUntilIdle();
      auto done = service_->TakeCompletions(end.id);
      if (done.size() == 1 && done[0].transport.ok()) {
        auto plain = end.channel->Receive(done[0].response_frame, nullptr);
        EXPECT_TRUE(plain.ok()) << plain.status().ToString();
        if (!plain.ok()) return {};
        auto response = server::DecodeStatementResponse(*plain);
        EXPECT_TRUE(response.ok()) << response.status().ToString();
        if (!response.ok() || !response->status.ok()) return {};
        EXPECT_EQ(response->result.rows.size(), 1u);
        return response->result.rows.empty()
                   ? std::string{}
                   : response->result.rows[0][0].AsString();
      }
      // Dropped before dispatch: the statement provably never ran, so a
      // fresh session and a re-sealed frame are safe.
      end = Open("c0");
    }
    ADD_FAILURE() << "statement never recovered: " << sql;
    return {};
  }

  std::unique_ptr<engine::IronSafeSystem> system_;
  std::unique_ptr<server::QueryService> service_;
};

TEST_F(ServerFaultTest, SessionDropAbortsQueuedStatementsUnexecuted) {
  End c0 = Open("c0");
  Bytes f1 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 1");
  Bytes f2 = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 2");
  ASSERT_TRUE(service_->Submit(c0.id, f1).ok());
  ASSERT_TRUE(service_->Submit(c0.id, f2).ok());

  int64_t drops_before = CounterValue("server.sessions.injected_drops");
  int64_t closed_before = CounterValue("net.channel.closed");
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth(site::kServerSessionDrop, 1);
  EXPECT_EQ(service_->RunUntilIdle(), 1u);  // the drop consumes one pop
  EXPECT_EQ(reg.fired(site::kServerSessionDrop), 1u);
  EXPECT_EQ(CounterValue("server.sessions.injected_drops") - drops_before, 1);
  // The victim's channel keys were zeroized on the injected drop.
  EXPECT_EQ(CounterValue("net.channel.closed") - closed_before, 1);

  // Both statements (the victim and the still-queued one) complete
  // kUnavailable: neither executed, so nothing could have leaked.
  auto done = service_->TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 2u);
  for (server::Completion& c : done) {
    EXPECT_TRUE(c.transport.IsUnavailable()) << c.transport.ToString();
    EXPECT_TRUE(c.response_frame.empty());
  }
  EXPECT_EQ(service_->stats().statements_executed, 0u);
  EXPECT_EQ(service_->stats().statements_aborted, 2u);

  // Recovery: a fresh session resubmits and gets the right answer.
  End again = Open("c0");
  EXPECT_EQ(RunWithRecovery(again, 1), "user1");
  EXPECT_EQ(RunWithRecovery(again, 2), "user2");
}

TEST_F(ServerFaultTest, AdmissionOverflowInjectionIsRetryableBackpressure) {
  End c0 = Open("c0");
  Bytes frame = SealRequest(c0, "SELECT owner FROM accounts WHERE id = 5");

  int64_t injected_before =
      CounterValue("server.admission.injected_overflows");
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth(site::kServerAdmissionOverflow, 1);
  auto rejected = service_->Submit(c0.id, frame);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted())
      << rejected.status().ToString();
  EXPECT_TRUE(IsBackpressure(rejected.status()));
  EXPECT_NE(rejected.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(reg.fired(site::kServerAdmissionOverflow), 1u);
  EXPECT_EQ(
      CounterValue("server.admission.injected_overflows") - injected_before,
      1);

  // The canonical backpressure loop recovers with the SAME frame — the
  // rejection consumed no channel sequence number and no seq.
  ASSERT_TRUE(service_->Submit(c0.id, frame).ok());
  EXPECT_EQ(service_->RunUntilIdle(), 1u);
  auto done = service_->TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, 0u);
  ASSERT_TRUE(done[0].transport.ok());
  auto plain = c0.channel->Receive(done[0].response_frame, nullptr);
  ASSERT_TRUE(plain.ok());
  auto response = server::DecodeStatementResponse(*plain);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->status.ok());
  ASSERT_EQ(response->result.rows.size(), 1u);
  EXPECT_EQ(response->result.rows[0][0].AsString(), "user5");
}

TEST_F(ServerFaultTest, MidstreamDropLosesTheResponseAfterExecution) {
  // The other half of the session-drop story: the statement EXECUTED,
  // but the session died mid-delivery so the sealed response never fully
  // arrived. The completion must say so (kUnavailable, empty frame), the
  // session must be closed with its keys zeroized, and a fresh session
  // must recover the answer.
  server::ServiceOptions options;
  options.stream.chunk_bytes = 64;  // force chunked delivery
  service_ = std::make_unique<server::QueryService>(system_.get(), options);
  End c0 = Open("c0");
  Bytes frame = SealRequest(c0, "SELECT owner FROM accounts WHERE id < 5");
  ASSERT_TRUE(service_->Submit(c0.id, frame).ok());

  int64_t drops_before =
      CounterValue("server.sessions.injected_midstream_drops");
  int64_t closed_before = CounterValue("net.channel.closed");
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth(site::kServerMidstreamDrop, 1);
  service_->RunUntilIdle();
  EXPECT_EQ(reg.fired(site::kServerMidstreamDrop), 1u);
  EXPECT_EQ(CounterValue("server.sessions.injected_midstream_drops") -
                drops_before,
            1);
  EXPECT_EQ(CounterValue("net.channel.closed") - closed_before, 1);

  auto done = service_->TakeCompletions(c0.id);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].transport.IsUnavailable()) << done[0].transport.ToString();
  EXPECT_TRUE(done[0].response_frame.empty());
  // Unlike the pre-dispatch drop, the engine DID run the statement; only
  // the delivery was lost, so it still counts as aborted, never executed
  // -and-delivered.
  server::QueryService::Stats stats = service_->stats();
  EXPECT_EQ(stats.statements_executed, 0u);
  EXPECT_EQ(stats.statements_aborted, 1u);
  // The session is gone.
  EXPECT_TRUE(service_->Submit(c0.id, frame).status().IsNotFound());

  // Read-only statement => safe to resubmit on a fresh session.
  End again = Open("c0");
  EXPECT_EQ(RunWithRecovery(again, 1), "user1");
}

TEST_F(ServerFaultTest, StreamStallAddsLatencyButNeverChangesTheAnswer) {
  server::ServiceOptions options;
  options.stream.chunk_bytes = 64;
  // A slow client: credit grants take 1 ms round trip, well past the
  // ~50 us per-chunk link time, so the 4-chunk window genuinely gates
  // delivery and flow-control stall is visible even fault-free.
  options.stream.credit_rtt_ns = 1'000'000;
  service_ = std::make_unique<server::QueryService>(system_.get(), options);
  End c0 = Open("c0");

  // Enough rows that the sealed frame clearly overruns the 4-chunk
  // credit window — otherwise no chunk ever waits and a slow client is
  // invisible.
  auto run_big = [&](size_t* rows) -> server::Completion {
    Bytes frame = SealRequest(c0, "SELECT owner FROM accounts WHERE id < 20");
    EXPECT_TRUE(service_->Submit(c0.id, frame).ok());
    service_->RunUntilIdle();
    auto done = service_->TakeCompletions(c0.id);
    EXPECT_EQ(done.size(), 1u);
    if (done.empty()) return {};
    if (done[0].transport.ok()) {
      auto plain = c0.channel->Receive(done[0].response_frame, nullptr);
      EXPECT_TRUE(plain.ok()) << plain.status().ToString();
      if (plain.ok()) {
        auto response = server::DecodeStatementResponse(*plain);
        EXPECT_TRUE(response.ok());
        if (response.ok() && response->status.ok()) {
          *rows = response->result.rows.size();
        }
      }
    }
    return std::move(done[0]);
  };

  size_t clean_rows = 0;
  server::Completion clean = run_big(&clean_rows);
  ASSERT_TRUE(clean.transport.ok());
  ASSERT_GT(clean.stream_chunks, 4u);  // overruns the credit window
  ASSERT_GT(clean.stream_stall_ns, 0u);
  EXPECT_EQ(clean_rows, 20u);

  int64_t stalls_before = CounterValue("server.stream.injected_stalls");
  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmNth(site::kServerStreamStall, 1);
  size_t stalled_rows = 0;
  server::Completion stalled = run_big(&stalled_rows);
  EXPECT_EQ(reg.fired(site::kServerStreamStall), 1u);
  EXPECT_EQ(CounterValue("server.stream.injected_stalls") - stalls_before, 1);

  // Latency-only: the response still arrives intact, with the same
  // number of chunks, but the slow client's delayed credit grants show
  // up as extra flow-control stall.
  ASSERT_TRUE(stalled.transport.ok()) << stalled.transport.ToString();
  EXPECT_EQ(stalled.stream_chunks, clean.stream_chunks);
  EXPECT_GT(stalled.stream_stall_ns, clean.stream_stall_ns);
  EXPECT_EQ(stalled_rows, clean_rows);
}

TEST_F(ServerFaultTest, RandomServerFaultSweepAlwaysRecovers) {
  // Seed-matrixed like the storage sweep above: CI varies
  // IRONSAFE_FAULT_SEED, and for every seed the recovery protocol must
  // deliver every statement's correct answer despite probabilistic
  // session drops and admission overflows.
  uint64_t seed = 1;
  if (const char* env = std::getenv("IRONSAFE_FAULT_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  // Small chunks make even the point lookups stream, so the midstream
  // and stall sites are reachable alongside the pre-dispatch ones.
  server::ServiceOptions options;
  options.stream.chunk_bytes = 64;
  service_ = std::make_unique<server::QueryService>(system_.get(), options);

  ScopedFaultInjection guard;
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ArmProbability(site::kServerSessionDrop, 0.15, seed);
  reg.ArmProbability(site::kServerAdmissionOverflow, 0.15, seed + 1);
  reg.ArmProbability(site::kServerMidstreamDrop, 0.10, seed + 2);
  reg.ArmProbability(site::kServerStreamStall, 0.20, seed + 3);

  End c0 = Open("c0");
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(RunWithRecovery(c0, i), "user" + std::to_string(i))
        << "seed " << seed << " statement " << i;
  }
}

}  // namespace
}  // namespace ironsafe
