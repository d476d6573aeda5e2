#include <gtest/gtest.h>

#include <optional>

#include "common/thread_pool.h"
#include "engine/csa_system.h"
#include "engine/ironsafe.h"
#include "engine/partitioner.h"
#include "engine/storage_node.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ironsafe::engine {
namespace {

// ---------------- partitioner ----------------

class PartitionerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = sql::Database::CreateInMemory();
    ASSERT_TRUE(db_->Execute("CREATE TABLE lineitem (l_orderkey INTEGER, "
                             "l_shipdate DATE, l_price DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE TABLE orders (o_orderkey INTEGER, "
                             "o_orderdate DATE)")
                    .ok());
  }

  std::unique_ptr<sql::Database> db_;
};

TEST_F(PartitionerTest, PushesSingleTableFilters) {
  auto stmt = sql::ParseSelect(
      "SELECT sum(l_price) FROM lineitem, orders WHERE l_orderkey = "
      "o_orderkey AND l_shipdate > DATE '1995-01-01' AND o_orderdate < "
      "DATE '1995-06-01'");
  ASSERT_TRUE(stmt.ok());
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->fragments.size(), 2u);

  // Each fragment carries its table's own filter.
  EXPECT_NE(plan->fragments[0].sql.find("l_shipdate"), std::string::npos);
  EXPECT_NE(plan->fragments[1].sql.find("o_orderdate"), std::string::npos);

  // The join predicate stays on the host; pushed filters are gone.
  std::string host = plan->host_query->ToString();
  EXPECT_NE(host.find("l_orderkey"), std::string::npos);
  EXPECT_EQ(host.find("l_shipdate"), std::string::npos);
  EXPECT_NE(host.find(plan->fragments[0].dest_table), std::string::npos);
}

TEST_F(PartitionerTest, FragmentSqlIsParseable) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM lineitem WHERE l_shipdate BETWEEN DATE '1994-01-01' "
      "AND DATE '1994-12-31' AND l_price < 100.5");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  for (const auto& frag : plan->fragments) {
    EXPECT_TRUE(sql::ParseSelect(frag.sql).ok()) << frag.sql;
  }
}

TEST_F(PartitionerTest, SubqueryTablesGetFragments) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM orders WHERE o_orderkey IN "
      "(SELECT l_orderkey FROM lineitem WHERE l_price > 10)");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fragments.size(), 2u);
  // The lineitem fragment keeps the pushable filter.
  bool found = false;
  for (const auto& frag : plan->fragments) {
    if (frag.source_table == "lineitem") {
      EXPECT_NE(frag.sql.find("l_price"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PartitionerTest, CorrelatedPredicateStaysOnHost) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM orders o WHERE EXISTS (SELECT 1 FROM lineitem l "
      "WHERE l.l_orderkey = o.o_orderkey)");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  // The correlated equality must not be pushed into the lineitem fragment.
  for (const auto& frag : plan->fragments) {
    if (frag.source_table == "lineitem") {
      EXPECT_EQ(frag.sql.find("o_orderkey"), std::string::npos) << frag.sql;
    }
  }
}

TEST_F(PartitionerTest, AggregationPushdownOffloadsWholeQuery) {
  auto stmt = sql::ParseSelect(
      "SELECT sum(l_price) AS rev FROM lineitem WHERE l_shipdate > "
      "DATE '1995-01-01' GROUP BY l_orderkey");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->whole_query_offloaded);
  ASSERT_EQ(plan->fragments.size(), 1u);
  // The fragment IS the query; the host side is a bare scan.
  EXPECT_NE(plan->fragments[0].sql.find("SUM"), std::string::npos);
  EXPECT_EQ(plan->host_query->ToString(),
            "SELECT * FROM " + plan->fragments[0].dest_table);
}

TEST_F(PartitionerTest, AggregationPushdownFallsBackOnJoins) {
  auto stmt = sql::ParseSelect(
      "SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->whole_query_offloaded);
  EXPECT_EQ(plan->fragments.size(), 2u);
}

TEST_F(PartitionerTest, AggregationPushdownFallsBackOnSubqueries) {
  auto stmt = sql::ParseSelect(
      "SELECT count(*) FROM orders WHERE o_orderkey IN "
      "(SELECT l_orderkey FROM lineitem)");
  PartitionOptions options;
  options.aggregation_pushdown = true;
  auto plan = PartitionQuery(**stmt, *db_, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->whole_query_offloaded);
}

TEST_F(PartitionerTest, SameTableTwiceGetsTwoFragments) {
  auto stmt = sql::ParseSelect(
      "SELECT * FROM lineitem a, lineitem b WHERE a.l_orderkey = b.l_orderkey");
  auto plan = PartitionQuery(**stmt, *db_);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fragments.size(), 2u);
  EXPECT_NE(plan->fragments[0].dest_table, plan->fragments[1].dest_table);
}

// ---------------- storage node ----------------

class StorageNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto node =
        StorageNode::Create("test-storage-device", "node-0", manufacturer_);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    node_ = std::move(*node);
    ASSERT_TRUE(
        node_->db()->Execute("CREATE TABLE t (k INTEGER, v VARCHAR)").ok());
    std::vector<sql::Row> rows;
    for (int i = 0; i < 2000; ++i) {
      rows.push_back({sql::Value::Int(i),
                      sql::Value::String(
                          std::string(40, static_cast<char>('a' + i % 26)))});
    }
    ASSERT_TRUE(node_->db()->BulkLoad("t", rows).ok());
    node_->FinishLoad();
    ASSERT_GT(node_->store()->num_pages(), 4u);
  }

  /// Reads one page through the node's access path on a fresh model.
  sim::CostModel ReadPage(uint64_t id, const sim::HardwareProfile& profile =
                                           sim::HardwareProfile::Paper()) {
    sim::CostModel cost(profile);
    EXPECT_TRUE(node_->access()->ReadPage(id, &cost).ok());
    return cost;
  }

  tee::DeviceManufacturer manufacturer_{ToBytes("test-manufacturer")};
  std::unique_ptr<StorageNode> node_;
};

TEST_F(StorageNodeTest, EnclaveReadChargesWorkingSetEpcFaults) {
  // FinishLoad's working set is the data pages plus 96 B of Merkle MACs
  // per page; with an EPC a quarter of that, about 3/4 of the data page
  // and Merkle-path touches of one verified read fault.
  uint64_t pages = node_->store()->num_pages();
  uint64_t working_set = pages * (4096 + 96);
  sim::HardwareProfile profile = sim::HardwareProfile::Paper();
  profile.sgx.epc_bytes = working_set / 4;
  double fault_fraction = 1.0 - static_cast<double>(profile.sgx.epc_bytes) /
                                    static_cast<double>(working_set);
  auto expected = static_cast<uint64_t>(
      fault_fraction *
          static_cast<double>(1 + node_->store()->merkle_depth()) +
      0.5);
  ASSERT_GT(expected, 0u);

  tee::SgxMachine machine(ToBytes("test-host-platform"));
  auto enclave = machine.LoadEnclave("host-engine", ToBytes("test engine"));
  node_->BeginQuery(0);
  node_->access()->set_enclave(enclave.get());
  EXPECT_EQ(ReadPage(0, profile).epc_faults(), expected);
  EXPECT_EQ(ReadPage(pages - 1, profile).epc_faults(), expected);
}

TEST_F(StorageNodeTest, BeginQueryRestoresColdStorageState) {
  ConfigurablePageStore* access = node_->access();
  node_->BeginQuery(kStorageMemoryBytes);
  sim::SimNanos storage_decrypt_ns = ReadPage(1).decrypt_ns();
  EXPECT_EQ(access->pages_read(), 1u);
  EXPECT_EQ(ReadPage(1).decrypt_ns(), 0);  // served from the page cache
  EXPECT_EQ(access->cache_hits(), 1u);

  // Leave behind a host-only query's state: host-site verification over
  // the network.
  node_->store()->set_site(sim::Site::kHost);
  access->set_remote(true);
  sim::CostModel host_read = ReadPage(2);
  EXPECT_NE(host_read.decrypt_ns(), storage_decrypt_ns);
  EXPECT_GT(host_read.network_bytes(), 0u);

  node_->BeginQuery(kStorageMemoryBytes);
  EXPECT_EQ(access->pages_read(), 0u);
  EXPECT_EQ(access->cache_hits(), 0u);
  // Page 1 misses the emptied cache and is verified on the storage CPU,
  // locally.
  sim::CostModel cold_read = ReadPage(1);
  EXPECT_EQ(cold_read.decrypt_ns(), storage_decrypt_ns);
  EXPECT_EQ(cold_read.network_bytes(), 0u);
  EXPECT_EQ(access->pages_read(), 1u);
}

TEST_F(StorageNodeTest, RekeyRejectsFramesSealedUnderTheOldKey) {
  crypto::Drbg drbg(ToBytes("test-channel-drbg"));
  ASSERT_TRUE(node_->Rekey(&drbg).ok());
  Bytes payload = ToBytes("fragment batch");
  // The old pair's first frame: the new host end expects the same
  // sequence number, so only the key can reject it.
  auto stale = node_->node_end()->Send(payload, nullptr);
  ASSERT_TRUE(stale.ok());

  ASSERT_TRUE(node_->Rekey(&drbg).ok());
  EXPECT_FALSE(node_->host_end()->Receive(*stale, nullptr).ok());

  ASSERT_TRUE(node_->Rekey(&drbg).ok());
  auto fresh = node_->node_end()->Send(payload, nullptr);
  ASSERT_TRUE(fresh.ok());
  auto opened = node_->host_end()->Receive(*fresh, nullptr);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(*opened, payload);
}

// ---------------- CSA system ----------------

class CsaSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CsaOptions options;
    options.scale_factor = 0.001;
    auto system = CsaSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = system->release();
    tpch::TpchGenerator gen(tpch::TpchConfig{options.scale_factor, 42});
    ASSERT_TRUE(system_
                    ->Load([&](sql::Database* db) {
                      tpch::TpchGenerator g(
                          tpch::TpchConfig{options.scale_factor, 42});
                      return g.LoadInto(db);
                    })
                    .ok());
  }

  static CsaSystem* system_;
};

CsaSystem* CsaSystemTest::system_ = nullptr;

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

// The core integration property: all five configurations compute the
// same answer; only where and how securely the work runs differs.
class ConfigEquivalence : public CsaSystemTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ConfigEquivalence, AllConfigsAgree) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  auto hons = system_->Run(SystemConfig::kHons, (*q)->sql);
  ASSERT_TRUE(hons.ok()) << hons.status().ToString();
  std::string expected = Canonical(hons->result);
  for (SystemConfig config : {SystemConfig::kHos, SystemConfig::kVcs,
                              SystemConfig::kScs, SystemConfig::kSos}) {
    auto outcome = system_->Run(config, (*q)->sql);
    ASSERT_TRUE(outcome.ok())
        << SystemConfigName(config) << ": " << outcome.status().ToString();
    EXPECT_EQ(Canonical(outcome->result), expected)
        << "config " << SystemConfigName(config) << " diverged on Q"
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SelectedQueries, ConfigEquivalence,
                         ::testing::Values(3, 5, 6, 10, 12, 14, 19),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

// ---------------- morsel-parallel determinism ----------------

/// Exact serialization, order included: parallelism must not even
/// reorder rows.
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

/// The tentpole invariant: the REAL worker count (a machine property)
/// never changes anything observable — rows, row order, ExecStats,
/// counters, or the simulated cost account. Only wall-clock time may
/// differ. Exercised under the split (scs) and host-only secure (hos)
/// configurations, whose page stores see genuinely concurrent reads.
class ParallelDeterminism : public CsaSystemTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(ParallelDeterminism, RealWorkerCountInvariantUnderScs) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  std::optional<QueryOutcome> base;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    auto out = system_->Run(SystemConfig::kScs, (*q)->sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!base.has_value()) {
      base = std::move(*out);
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
        << "workers=" << workers;
    EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
    EXPECT_EQ(out->cost, base->cost) << "workers=" << workers;
    EXPECT_EQ(out->shipped_bytes, base->shipped_bytes);
    EXPECT_EQ(out->storage_pages_read, base->storage_pages_read);
  }
  common::ThreadPool::set_max_workers(0);
}

TEST_P(ParallelDeterminism, RealWorkerCountInvariantUnderHos) {
  auto q = tpch::GetQuery(GetParam());
  ASSERT_TRUE(q.ok());
  system_->set_host_parallelism(8);  // fixed simulated fan-out
  std::optional<QueryOutcome> base;
  for (int workers : {1, 4, 16}) {
    common::ThreadPool::set_max_workers(workers);
    auto out = system_->Run(SystemConfig::kHos, (*q)->sql);
    if (!out.ok()) {
      common::ThreadPool::set_max_workers(0);
      system_->set_host_parallelism(1);
    }
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!base.has_value()) {
      base = std::move(*out);
      continue;
    }
    EXPECT_EQ(ExactRows(out->result), ExactRows(base->result))
        << "workers=" << workers;
    EXPECT_EQ(out->stats, base->stats) << "workers=" << workers;
    EXPECT_EQ(out->cost, base->cost) << "workers=" << workers;
    EXPECT_EQ(out->host_pages_read, base->host_pages_read);
  }
  common::ThreadPool::set_max_workers(0);
  system_->set_host_parallelism(1);
}

INSTANTIATE_TEST_SUITE_P(Queries, ParallelDeterminism,
                         ::testing::Values(3, 6),
                         [](const auto& param_info) {
                           return "Q" + std::to_string(param_info.param);
                         });

TEST_F(CsaSystemTest, StorageCoresKnobKeepsRowsAndStatsIdentical) {
  // Varying the SIMULATED fan-out legitimately changes the simulated
  // cost (Figure 10 depends on it) but never the answer or the stats.
  auto q = tpch::GetQuery(6);
  ASSERT_TRUE(q.ok());
  std::optional<QueryOutcome> base;
  sim::SimNanos prev_ns = 0;
  for (int cores : {1, 4, 16}) {
    system_->set_storage_cores(cores);
    auto out = system_->Run(SystemConfig::kScs, (*q)->sql);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (base.has_value()) {
      EXPECT_EQ(ExactRows(out->result), ExactRows(base->result));
      EXPECT_EQ(out->stats, base->stats);
      EXPECT_LT(out->cost.elapsed_ns(), prev_ns) << "more cores, less time";
    } else {
      base = *out;
    }
    prev_ns = out->cost.elapsed_ns();
  }
  system_->set_storage_cores(16);
}

TEST_F(CsaSystemTest, SplitExecutionShipsLessThanHostOnly) {
  // Q6 is highly selective: the CS configurations must move far fewer
  // bytes over the network than host-only page shipping (Figure 7).
  auto q = tpch::GetQuery(6);
  auto hons = system_->Run(SystemConfig::kHons, (*q)->sql);
  auto vcs = system_->Run(SystemConfig::kVcs, (*q)->sql);
  ASSERT_TRUE(hons.ok() && vcs.ok());
  EXPECT_GT(hons->cost.network_bytes(), vcs->cost.network_bytes());
  EXPECT_GT(hons->host_pages_read, 0u);
  EXPECT_GT(vcs->storage_pages_read, 0u);
}

TEST_F(CsaSystemTest, SecureConfigPaysCryptoCosts) {
  auto q = tpch::GetQuery(6);
  auto vcs = system_->Run(SystemConfig::kVcs, (*q)->sql);
  auto scs = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(vcs.ok() && scs.ok());
  EXPECT_EQ(vcs->cost.decrypt_ns(), 0u);
  EXPECT_GT(scs->cost.decrypt_ns(), 0u);
  EXPECT_GT(scs->cost.freshness_ns(), 0u);
  EXPECT_GT(scs->cost.elapsed_ns(), vcs->cost.elapsed_ns());
}

TEST_F(CsaSystemTest, HostOnlySecurePaysEnclaveTransitions) {
  auto q = tpch::GetQuery(6);
  auto hos = system_->Run(SystemConfig::kHos, (*q)->sql);
  ASSERT_TRUE(hos.ok());
  EXPECT_GT(hos->cost.enclave_transitions(), 0u);
  auto scs = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(scs.ok());
  // IronSafe crosses the enclave boundary once per shipped batch, far
  // fewer times than per-page host-only execution (§6.2).
  EXPECT_LT(scs->cost.enclave_transitions(), hos->cost.enclave_transitions());
}

TEST_F(CsaSystemTest, StorageOnlyChargesStorageCpu) {
  auto q = tpch::GetQuery(6);
  auto sos = system_->Run(SystemConfig::kSos, (*q)->sql);
  ASSERT_TRUE(sos.ok());
  EXPECT_EQ(sos->cost.network_bytes(), 0u);
  EXPECT_GT(sos->cost.decrypt_ns(), 0u);
}

TEST_F(CsaSystemTest, AggregationPushdownAgreesAndShipsLess) {
  auto q = tpch::GetQuery(6);
  auto filter_run = system_->Run(SystemConfig::kScs, (*q)->sql);
  ASSERT_TRUE(filter_run.ok());
  system_->set_aggregation_pushdown(true);
  auto whole_run = system_->Run(SystemConfig::kScs, (*q)->sql);
  system_->set_aggregation_pushdown(false);
  ASSERT_TRUE(whole_run.ok()) << whole_run.status().ToString();
  EXPECT_EQ(Canonical(whole_run->result), Canonical(filter_run->result));
  EXPECT_LT(whole_run->shipped_bytes, filter_run->shipped_bytes);
}

TEST_F(CsaSystemTest, UnknownQueryErrorsPropagate) {
  auto bad = system_->Run(SystemConfig::kScs, "SELECT * FROM nonexistent");
  EXPECT_FALSE(bad.ok());
}

// ---------------- IronSafe end-to-end ----------------

class IronSafeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IronSafeSystem::Options options;
    options.csa.scale_factor = 0.001;
    auto system = IronSafeSystem::Create(options);
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    ASSERT_TRUE(system_->Bootstrap().ok());
    system_->set_current_date(*sql::ParseDate("1997-06-01"));
    system_->RegisterClient("producer");
    system_->RegisterClient("consumer", /*reuse_bit=*/1);
  }

  std::unique_ptr<IronSafeSystem> system_;
};

TEST_F(IronSafeTest, TimelyDeletionAntiPattern) {
  // Anti-pattern #1: records expire; consumers cannot see expired rows.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE bookings (id INTEGER, pax VARCHAR)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & le(T, TIMESTAMP)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      /*with_expiry=*/true, /*with_reuse=*/false)
                  .ok());

  int64_t live = *sql::ParseDate("1999-01-01");
  int64_t expired = *sql::ParseDate("1997-01-01");
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO bookings (id, pax) VALUES (1, 'ann')",
                            "", live)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO bookings (id, pax) VALUES (2, 'bob')",
                            "", expired)
                  .ok());

  // Producer sees both rows.
  auto p = system_->Execute("producer", "SELECT id FROM bookings");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->result.rows.size(), 2u);

  // Consumer sees only the unexpired row.
  auto c = system_->Execute("consumer", "SELECT id FROM bookings");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->result.rows.size(), 1u);
  EXPECT_EQ(c->result.rows[0][0].AsInt(), 1);
}

TEST_F(IronSafeTest, ReuseMapAntiPattern) {
  // Anti-pattern #2: rows opt in per service via a bitmap.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE profiles (id INTEGER)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & reuseMap(m)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, /*with_reuse=*/true)
                  .ok());
  // Row 1 opts into service bit 1 (consumer's bit); row 2 does not.
  ASSERT_TRUE(system_
                  ->Execute("producer", "INSERT INTO profiles (id) VALUES (1)",
                            "", std::nullopt, /*reuse=*/0b010)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer", "INSERT INTO profiles (id) VALUES (2)",
                            "", std::nullopt, /*reuse=*/0b100)
                  .ok());

  auto c = system_->Execute("consumer", "SELECT id FROM profiles");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->result.rows.size(), 1u);
  EXPECT_EQ(c->result.rows[0][0].AsInt(), 1);
}

TEST_F(IronSafeTest, TransparencyAntiPatternLogsConsumerQueries) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE pii (id INTEGER)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer) & logUpdate(shares, K, Q)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(
      system_->Execute("producer", "INSERT INTO pii (id) VALUES (7)").ok());

  size_t before = system_->monitor()->audit_log()->entries().size();
  ASSERT_TRUE(system_->Execute("consumer", "SELECT id FROM pii").ok());
  const auto& entries = system_->monitor()->audit_log()->entries();
  ASSERT_EQ(entries.size(), before + 1);
  EXPECT_EQ(entries.back().client_key_id, "consumer");
  // The regulator can verify the log end-to-end.
  EXPECT_TRUE(monitor::AuditLog::Verify(
                  entries, system_->monitor()->audit_log()->head_signature(),
                  system_->monitor()->audit_log()->public_key())
                  .ok());
}

TEST_F(IronSafeTest, UnauthorizedClientDenied) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE vault (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  auto denied = system_->Execute("consumer", "SELECT * FROM vault");
  EXPECT_TRUE(denied.status().IsPermissionDenied());
}

TEST_F(IronSafeTest, ExecutionPolicyForcesHostOnly) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE t (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_->Execute("producer", "INSERT INTO t (id) VALUES (1)").ok());

  auto offloaded = system_->Execute("producer", "SELECT * FROM t",
                                    "exec ::= storageLocIs(eu-west-1)");
  ASSERT_TRUE(offloaded.ok()) << offloaded.status().ToString();
  EXPECT_TRUE(offloaded->offloaded);

  auto host_only = system_->Execute("producer", "SELECT * FROM t",
                                    "exec ::= storageLocIs(us-east-1)");
  ASSERT_TRUE(host_only.ok()) << host_only.status().ToString();
  EXPECT_FALSE(host_only->offloaded);
  EXPECT_EQ(host_only->result.rows.size(), offloaded->result.rows.size());
}

TEST_F(IronSafeTest, RightToErasureDeletesThroughPolicyPath) {
  // GDPR right to erasure: the producer deletes one data subject's rows;
  // subsequent reads (by anyone) no longer see them, and the delete went
  // through the monitor like any other statement.
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer",
                      "CREATE TABLE subjects (id INTEGER, who VARCHAR)",
                      "read ::= sessionKeyIs(producer) | "
                      "sessionKeyIs(consumer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO subjects (id, who) VALUES "
                            "(1, 'ann'), (2, 'bob'), (3, 'ann')")
                  .ok());

  // The consumer cannot erase (write permission belongs to the producer).
  auto blocked =
      system_->Execute("consumer", "DELETE FROM subjects WHERE who = 'ann'");
  EXPECT_TRUE(blocked.status().IsPermissionDenied());

  auto erased =
      system_->Execute("producer", "DELETE FROM subjects WHERE who = 'ann'");
  ASSERT_TRUE(erased.ok()) << erased.status().ToString();
  EXPECT_EQ(erased->result.rows[0][0].AsInt(), 2);

  auto after = system_->Execute("consumer", "SELECT who FROM subjects");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->result.rows.size(), 1u);
  EXPECT_EQ(after->result.rows[0][0].AsString(), "bob");
}

TEST_F(IronSafeTest, UpdateThroughPolicyPath) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE accts (id INTEGER, bal DOUBLE)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  ASSERT_TRUE(system_
                  ->Execute("producer",
                            "INSERT INTO accts (id, bal) VALUES (1, 10.0)")
                  .ok());
  auto updated = system_->Execute(
      "producer", "UPDATE accts SET bal = bal + 5 WHERE id = 1");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  auto check = system_->Execute("producer", "SELECT bal FROM accts");
  ASSERT_TRUE(check.ok());
  EXPECT_NEAR(check->result.rows[0][0].AsDouble(), 15.0, 1e-9);
}

TEST_F(IronSafeTest, ProofOfComplianceVerifies) {
  ASSERT_TRUE(system_
                  ->CreateProtectedTable(
                      "producer", "CREATE TABLE t2 (id INTEGER)",
                      "read ::= sessionKeyIs(producer)\n"
                      "write ::= sessionKeyIs(producer)\n",
                      false, false)
                  .ok());
  auto result = system_->Execute("producer", "SELECT * FROM t2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(monitor::TrustedMonitor::VerifyProof(
      result->proof, system_->monitor()->public_key()));
  EXPECT_EQ(result->proof.host_measurement,
            system_->csa()->host_enclave()->measurement());
}

}  // namespace
}  // namespace ironsafe::engine
