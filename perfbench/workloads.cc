#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <utility>

#include "bench/bench_util.h"
#include "common/random.h"
#include "dist/fleet.h"
#include "engine/csa_system.h"
#include "engine/ironsafe.h"
#include "layers.h"
#include "server/query_service.h"
#include "sim/cost_model.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/value.h"
#include "stats.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/table_spec.h"

namespace ironsafe::perfbench {

void Observed::Fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) errors.push_back(message);
}

double Workload::ReadP50Ms(const Observed& observed) const {
  return Median(observed.read_ms);
}

Tail Workload::ReadTail(const Observed& observed) const {
  return TailPercentile(observed.read_ms);
}

namespace {

/// FNV-1a over every value's text form, with column and row separators:
/// equal digests mean equal row sequences.
uint64_t RowDigest(const sql::QueryResult& result) {
  uint64_t digest = bench::kDigestOffset;
  for (const sql::Row& row : result.rows) {
    for (const sql::Value& v : row) {
      digest = bench::DigestBytes(digest, v.ToString());
      digest = bench::DigestBytes(digest, std::string_view("|"));
    }
    digest = bench::DigestBytes(digest, std::string_view("\n"));
  }
  return digest;
}

uint64_t ValueBytes(const sql::Value& v) {
  switch (v.type()) {
    case sql::Type::kNull:
      return 0;
    case sql::Type::kBool:
      return 1;
    case sql::Type::kString:
      return v.AsString().size();
    default:
      return 8;
  }
}

/// Bytes of user row values held by every table of `db`.
Result<uint64_t> UserBytes(sql::Database* db) {
  uint64_t bytes = 0;
  for (const std::string& name : db->TableNames()) {
    ASSIGN_OR_RETURN(sql::Table * table, db->GetTable(name));
    auto cursor = table->NewCursor(nullptr);
    sql::Row row;
    while (true) {
      ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
      if (!more) break;
      for (const sql::Value& v : row) bytes += ValueBytes(v);
    }
  }
  return bytes;
}

/// Secure pages (x 4 KiB) held by every table of `db`.
uint64_t StoredBytes(sql::Database* db) {
  uint64_t pages = 0;
  for (const std::string& name : db->TableNames()) {
    auto table = db->GetTable(name);
    if (table.ok()) pages += (*table)->page_count();
  }
  return pages * 4096;
}

/// Loads the figure benches' TPC-H data (bench::kSeed), so simulated
/// cycles match the committed BENCH_*.json files; the benchmark seed
/// varies the query order, not the data (README.md explains why).
std::function<Status(sql::Database*)> TimedTpchLoader(
    std::vector<double>* invocation_ms) {
  return [invocation_ms](sql::Database* db) {
    bench::WallClock sw;
    tpch::TpchGenerator gen(tpch::TpchConfig{kScaleFactor, bench::kSeed});
    Status st = gen.LoadInto(db);
    invocation_ms->push_back(sw.ms());
    return st;
  };
}

void AddCost(const sim::CostModel& cost, OutcomeSums* sums) {
  sums->pages_decrypted += cost.pages_decrypted();
  sums->sim_compute_ns += cost.compute_ns();
  sums->sim_disk_ns += cost.disk_ns();
  sums->sim_network_ns += cost.network_ns();
  sums->sim_decrypt_ns += cost.decrypt_ns();
  sums->sim_freshness_ns += cost.freshness_ns();
  sums->sim_enclave_ns += cost.enclave_transition_ns();
  sums->sim_epc_fault_ns += cost.epc_fault_ns();
}

/// The sql probes over one pass worth of statement texts on `db`, the
/// plain twin of the workload's data: sql::ExecuteSelect (timed, with
/// its ExecStats) and sql::Parse per text.
void ProbeSql(sql::Database* db, const std::vector<std::string>& texts,
              WorkloadProbes* p) {
  if (texts.empty()) return;
  bench::WallClock sw;
  for (const std::string& text : texts) {
    auto stmt = sql::ParseSelect(text);
    sql::ExecStats stats;
    if (!stmt.ok() ||
        !sql::ExecuteSelect(db, **stmt, nullptr, nullptr, {}, &stats).ok()) {
      std::fprintf(stderr, "sql probe failed on: %s\n", text.c_str());
      std::exit(1);
    }
    p->rows_scanned += stats.rows_scanned;
    p->rows_output += stats.rows_output;
    p->peak_memory_bytes =
        std::max(p->peak_memory_bytes, stats.peak_memory_bytes);
    p->spill_bytes += stats.spill_bytes;
  }
  p->sql_exec_ms = sw.ms();
  size_t i = 0;
  p->sql_parse_us = TimePerCallUs(
      [&] {
        if (!sql::Parse(texts[i++ % texts.size()]).ok()) std::exit(1);
      },
      static_cast<int>(texts.size()));
}

/// Shared base of the TPC-H workloads: a fixed query set, run once per
/// pass in a seeded order, each result checked against the digest of a
/// host-only non-secure (hons) reference run on a single node with the
/// legacy row engine, so the reference shares no operator code with the
/// vectorized engine every measured run uses.
class TpchWorkloadBase : public Workload {
 public:
  TpchWorkloadBase(uint64_t seed, std::vector<int> query_numbers)
      : seed_(seed) {
    for (int n : query_numbers) {
      auto q = tpch::GetQuery(n);
      if (!q.ok()) {
        std::fprintf(stderr, "unknown TPC-H query %d\n", n);
        std::exit(1);
      }
      queries_.push_back(*q);
    }
  }

  void RunPass(uint64_t pass, Observed* observed,
               OutcomeSums* sums) override {
    uint64_t sim_cycles = 0;
    for (int idx : PassOrder(seed_, pass, static_cast<int>(queries_.size()))) {
      const tpch::TpchQuery& q = *queries_[static_cast<size_t>(idx)];
      ++observed->attempted;
      bench::WallClock sw;
      auto digest = RunChecked(q.sql, sums, &sim_cycles);
      double ms = sw.ms();
      std::string name = "q" + std::to_string(q.number);
      if (!digest.ok()) {
        observed->Fail(name + ": " + digest.status().ToString());
        continue;
      }
      if (*digest != reference_[static_cast<size_t>(idx)]) {
        observed->Fail(name +
                       ": row digest differs from the row-engine reference");
        continue;
      }
      ++observed->ops;
      observed->read_ms.push_back(ms);
      observed->class_ms[name].push_back(ms);
    }
    observed->pass_sim_cycles.push_back(sim_cycles);
  }

  /// Every query runs once per pass, so the pooled median of all reads
  /// falls exactly between the latency clusters of the two middle queries
  /// and follows their most extreme samples. The median of the per-query
  /// medians weighs the queries equally, as the pooled sample does, and
  /// is built from medians only.
  double ReadP50Ms(const Observed& observed) const override {
    std::vector<double> medians;
    for (const auto& [name, samples] : observed.class_ms) {
      medians.push_back(Median(samples));
    }
    return Median(medians);
  }

  double StoredBytesPerUserByte(const OutcomeSums&) const override {
    return user_bytes_ == 0 ? 0
                            : static_cast<double>(stored_bytes_) /
                                  static_cast<double>(user_bytes_);
  }

 protected:
  /// Runs one query on the measured system; returns its row digest and
  /// adds its outcome to `sums` and its simulated time to `sim_cycles`.
  virtual Result<uint64_t> RunChecked(const std::string& sql,
                                      OutcomeSums* sums,
                                      uint64_t* sim_cycles) = 0;

  /// Builds a single-node reference system and records each query's
  /// hons digest; leaves the system in `reference_system_`.
  Status BuildReference() {
    engine::CsaOptions options;
    options.scale_factor = kScaleFactor;
    ASSIGN_OR_RETURN(reference_system_, engine::CsaSystem::Create(options));
    std::vector<double> loader_ms;
    RETURN_IF_ERROR(reference_system_->Load(TimedTpchLoader(&loader_ms)));
    return RecordReferenceDigests();
  }

  Status RecordReferenceDigests() {
    reference_.clear();
    reference_system_->set_engine(sql::ExecEngine::kRow);
    for (const tpch::TpchQuery* q : queries_) {
      auto outcome = reference_system_->Run(engine::SystemConfig::kHons, q->sql);
      if (!outcome.ok()) {
        reference_system_->set_engine(sql::ExecEngine::kVectorized);
        return outcome.status();
      }
      reference_.push_back(RowDigest(outcome->result));
    }
    reference_system_->set_engine(sql::ExecEngine::kVectorized);
    return Status::OK();
  }

  WorkloadProbes ProbeReference() {
    WorkloadProbes p;
    p.read_page_us = ProbeReadPageUs(reference_system_->secure_store());
    std::vector<std::string> texts;
    for (const tpch::TpchQuery* q : queries_) texts.push_back(q->sql);
    ProbeSql(reference_system_->plain_db(), texts, &p);
    return p;
  }

  uint64_t seed_;
  std::vector<const tpch::TpchQuery*> queries_;
  std::vector<uint64_t> reference_;
  std::unique_ptr<engine::CsaSystem> reference_system_;
  uint64_t user_bytes_ = 0;
  uint64_t stored_bytes_ = 0;
};

std::vector<int> EvaluatedQueryNumbers() {
  std::vector<int> numbers;
  for (const tpch::TpchQuery& q : tpch::Queries()) numbers.push_back(q.number);
  return numbers;
}

/// tpch-scs / tpch-plain: the 16 evaluated queries through
/// CsaSystem::Run under one configuration. The measured system is also
/// the reference system (the hons reference is a different
/// configuration over the same loaded data).
class CsaTpchWorkload : public TpchWorkloadBase {
 public:
  CsaTpchWorkload(uint64_t seed, engine::SystemConfig config)
      : TpchWorkloadBase(seed, EvaluatedQueryNumbers()), config_(config) {}

  Status Setup(SetupTimes* times) override {
    bench::WallClock total;
    reference_system_.reset();
    bench::WallClock sw;
    engine::CsaOptions options;
    options.scale_factor = kScaleFactor;
    ASSIGN_OR_RETURN(reference_system_, engine::CsaSystem::Create(options));
    times->create_ms = sw.ms();
    std::vector<double> loader_ms;
    RETURN_IF_ERROR(
        reference_system_->Load(TimedTpchLoader(&loader_ms)));
    if (loader_ms.size() != 2) return Status::Internal("expected two loads");
    times->load_plain_ms = loader_ms[0];
    times->load_secure_ms = loader_ms[1];
    bench::WallClock ref;
    RETURN_IF_ERROR(RecordReferenceDigests());
    ASSIGN_OR_RETURN(user_bytes_, UserBytes(reference_system_->plain_db()));
    stored_bytes_ = reference_system_->secure_store()->num_pages() * 4096;
    times->reference_ms = ref.ms();
    times->total_ms = total.ms();
    return Status::OK();
  }

  WorkloadProbes Probe() override { return ProbeReference(); }

 protected:
  Result<uint64_t> RunChecked(const std::string& sql, OutcomeSums* sums,
                              uint64_t* sim_cycles) override {
    ASSIGN_OR_RETURN(engine::QueryOutcome outcome,
                     reference_system_->Run(config_, sql));
    AddCost(outcome.cost, sums);
    sums->shipped_bytes += outcome.shipped_bytes;
    sums->storage_pages_read += outcome.storage_pages_read;
    sums->host_pages_read += outcome.host_pages_read;
    *sim_cycles += bench::BaselineWriter::SimCycles(outcome.cost.elapsed_ns());
    return RowDigest(outcome.result);
  }

 private:
  engine::SystemConfig config_;
};

/// fleet-scs: fig12's scan-heavy queries through a 4 x 2 sharded fleet,
/// checked against the single-node hons digests.
class FleetWorkload : public TpchWorkloadBase {
 public:
  explicit FleetWorkload(uint64_t seed)
      : TpchWorkloadBase(seed, {3, 6, 12, 13, 14}) {}

  Status Setup(SetupTimes* times) override {
    bench::WallClock total;
    fleet_.reset();
    reference_system_.reset();
    bench::WallClock sw;
    dist::FleetOptions options;
    options.shard_count = 4;
    options.replicas_per_shard = 2;
    options.partitions = tpch::TpchPartitionScheme();
    ASSIGN_OR_RETURN(fleet_, dist::ShardedCsaFleet::Create(options));
    times->create_ms = sw.ms();
    // The fleet invokes the loader once, into a staging database; the
    // rest of Load routes the rows and writes every node's secure store.
    std::vector<double> loader_ms;
    bench::WallClock load;
    RETURN_IF_ERROR(fleet_->Load(TimedTpchLoader(&loader_ms)));
    double load_ms = load.ms();
    if (loader_ms.size() != 1) return Status::Internal("expected one load");
    times->load_plain_ms = loader_ms[0];
    times->load_secure_ms = load_ms - loader_ms[0];

    bench::WallClock ref;
    RETURN_IF_ERROR(BuildReference());
    ASSIGN_OR_RETURN(user_bytes_, UserBytes(reference_system_->plain_db()));
    stored_bytes_ = 0;
    for (int g = 0; g < fleet_->shard_count(); ++g) {
      for (int r = 0; r < fleet_->replicas_per_shard(); ++r) {
        stored_bytes_ += StoredBytes(fleet_->node_db(g, r));
      }
    }
    times->reference_ms = ref.ms();
    times->total_ms = total.ms();
    return Status::OK();
  }

  WorkloadProbes Probe() override { return ProbeReference(); }

 protected:
  Result<uint64_t> RunChecked(const std::string& sql, OutcomeSums* sums,
                              uint64_t* sim_cycles) override {
    ASSIGN_OR_RETURN(dist::FleetOutcome outcome, fleet_->Run(sql));
    AddCost(outcome.cost, sums);
    sums->shipped_bytes += outcome.shipped_bytes;
    sums->storage_pages_read += outcome.storage_pages_read;
    sums->failovers += static_cast<uint64_t>(outcome.failovers);
    *sim_cycles += bench::BaselineWriter::SimCycles(outcome.cost.elapsed_ns());
    return RowDigest(outcome.result);
  }

 private:
  std::unique_ptr<dist::ShardedCsaFleet> fleet_;
};

/// serve-mixed: QueryService with attested sessions, one statement in
/// flight per session; see README.md for the traffic shape.
class ServeWorkload : public Workload {
 public:
  /// Statements per session between session re-opens: one pass.
  static constexpr int kRoundsPerPass = 16;
  static constexpr size_t kPayloadChars = 16;

  explicit ServeWorkload(uint64_t seed)
      : seed_(seed), schedule_(seed) {}

  Status Setup(SetupTimes* times) override {
    bench::WallClock total;
    sessions_.clear();
    service_.reset();
    system_.reset();
    schedule_ = ServeSchedule(seed_);
    next_event_id_ = 0;

    bench::WallClock sw;
    engine::IronSafeSystem::Options options;
    options.csa.scale_factor = kScaleFactor;
    ASSIGN_OR_RETURN(system_, engine::IronSafeSystem::Create(options));
    times->create_ms = sw.ms();

    bench::WallClock boot;
    RETURN_IF_ERROR(system_->Bootstrap());
    times->bootstrap_ms = boot.ms();

    bench::WallClock seed_rows;
    ASSIGN_OR_RETURN(int64_t today, sql::ParseDate("1997-06-01"));
    system_->set_current_date(today);
    std::string readers = "read ::= sessionKeyIs(producer)";
    system_->RegisterClient("producer");
    for (int s = 1; s < kServeSessions; ++s) {
      system_->RegisterClient(ClientKey(s));
      readers += " | sessionKeyIs(" + ClientKey(s) + ")";
    }
    RETURN_IF_ERROR(system_->CreateProtectedTable(
        "producer",
        "CREATE TABLE accounts (id INTEGER, owner VARCHAR, balance DOUBLE)",
        readers + "\nwrite ::= sessionKeyIs(producer)\n", false, false));
    RETURN_IF_ERROR(system_->CreateProtectedTable(
        "producer", "CREATE TABLE events (id INTEGER, payload VARCHAR)",
        "read ::= sessionKeyIs(producer)\nwrite ::= sessionKeyIs(producer)\n",
        false, false));
    Random rng(seed_ ^ 0xba1a9ce5ull);
    std::vector<std::string> balance_text;
    balance_.clear();
    constexpr int kBatch = 100;
    for (int base = 0; base < kServeRows; base += kBatch) {
      std::string insert = "INSERT INTO accounts (id, owner, balance) VALUES ";
      for (int id = base; id < std::min(kServeRows, base + kBatch); ++id) {
        uint64_t cents = rng.Uniform(10'000'000);
        char text[32];
        std::snprintf(text, sizeof(text), "%llu.%02llu",
                      static_cast<unsigned long long>(cents / 100),
                      static_cast<unsigned long long>(cents % 100));
        balance_text.push_back(text);
        if (id > base) insert += ", ";
        insert += "(" + std::to_string(id) + ", 'user" + std::to_string(id) +
                  "', " + text + ")";
      }
      RETURN_IF_ERROR(system_->Execute("producer", insert).status());
    }
    times->seed_ms = seed_rows.ms();

    // The reference: every seeded row's value as the client will read it.
    bench::WallClock ref;
    for (const std::string& text : balance_text) {
      balance_.push_back(std::strtod(text.c_str(), nullptr));
    }
    service_ = std::make_unique<server::QueryService>(system_.get(),
                                                      server::ServiceOptions{});
    sessions_.resize(static_cast<size_t>(kServeSessions));
    times->reference_ms = ref.ms();
    times->total_ms = total.ms();
    return Status::OK();
  }

  void RunPass(uint64_t, Observed* observed, OutcomeSums* sums) override {
    server::QueryService::Stats before = service_->stats();
    uint64_t pages_before = system_->csa()->secure_store()->num_pages();
    last_pass_reads_.clear();

    // Each session re-opens once per pass (every kRoundsPerPass
    // statements): handshake plus channel setup.
    for (int s = 0; s < kServeSessions; ++s) {
      Session& session = sessions_[static_cast<size_t>(s)];
      if (session.channel != nullptr) {
        if (!service_->CloseSession(session.id).ok()) {
          observed->Fail("close session failed");
        }
        session = Session{};
      }
      ++observed->attempted;
      bench::WallClock sw;
      auto opened = service_->OpenSession(s == 0 ? "producer" : ClientKey(s));
      double ms = sw.ms();
      if (!opened.ok()) {
        observed->Fail("open session: " + opened.status().ToString());
        continue;
      }
      session.id = opened->id;
      session.channel = std::move(opened->channel);
      observed->open_ms.push_back(ms);
      observed->class_ms["open"].push_back(ms);
    }

    std::vector<ServeOp> ops(static_cast<size_t>(kServeSessions));
    std::vector<bench::WallClock> submitted(
        static_cast<size_t>(kServeSessions));
    std::vector<bool> pending(static_cast<size_t>(kServeSessions));
    for (int round = 0; round < kRoundsPerPass; ++round) {
      for (int s = 0; s < kServeSessions; ++s) {
        auto idx = static_cast<size_t>(s);
        pending[idx] = false;
        Session& session = sessions_[idx];
        if (session.channel == nullptr) continue;
        ops[idx] = schedule_.Next(s);
        server::StatementRequest request;
        request.sql = StatementText(ops[idx], sums);
        if (ops[idx].kind != OpKind::kInsert) {
          last_pass_reads_.push_back(request.sql);
        }
        ++observed->attempted;
        submitted[idx].Restart();
        auto frame = session.channel->Send(
            server::EncodeStatementRequest(request), nullptr);
        if (!frame.ok()) {
          observed->Fail("seal request: " + frame.status().ToString());
          continue;
        }
        auto seq = service_->Submit(session.id, *frame);
        if (!seq.ok()) {
          observed->Fail("submit: " + seq.status().ToString());
          continue;
        }
        pending[idx] = true;
      }
      service_->RunUntilIdle();
      for (int s = 0; s < kServeSessions; ++s) {
        auto idx = static_cast<size_t>(s);
        if (!pending[idx]) continue;
        Status verdict = Collect(sessions_[idx], ops[idx]);
        double ms = submitted[idx].ms();
        if (!verdict.ok()) {
          observed->Fail(verdict.ToString());
          continue;
        }
        ++observed->ops;
        switch (ops[idx].kind) {
          case OpKind::kInsert:
            observed->write_ms.push_back(ms);
            observed->class_ms["insert"].push_back(ms);
            break;
          case OpKind::kRangeRead:
            observed->read_ms.push_back(ms);
            observed->class_ms["range"].push_back(ms);
            break;
          case OpKind::kPointRead:
            observed->read_ms.push_back(ms);
            observed->class_ms["point"].push_back(ms);
            break;
        }
      }
    }

    server::QueryService::Stats after = service_->stats();
    sums->plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
    sums->plan_cache_misses +=
        after.plan_cache_misses - before.plan_cache_misses;
    sums->sched_delay_ns += static_cast<uint64_t>(
        after.total_sched_delay_ns - before.total_sched_delay_ns);
    sums->rejected += after.statements_rejected - before.statements_rejected;
    sums->aborted += after.statements_aborted - before.statements_aborted;
    sums->peak_queue_depth = std::max<uint64_t>(sums->peak_queue_depth,
                                                after.peak_queue_depth);
    sums->stream_chunks += after.stream_chunks - before.stream_chunks;
    sums->statements_executed +=
        after.statements_executed - before.statements_executed;
    sums->sessions_opened += after.sessions_opened - before.sessions_opened;
    sums->pages_appended +=
        system_->csa()->secure_store()->num_pages() - pages_before;
    auto sim = [](const server::QueryService::Stats& st) {
      return st.total_monitor_ns + st.total_execution_ns + st.total_serve_ns;
    };
    observed->pass_sim_cycles.push_back(
        bench::BaselineWriter::SimCycles(sim(after) - sim(before)));
  }

  /// A serve pass lasts about 0.3 s and holds 58 reads whose latencies
  /// move together per round, so the tail of a whole run rests on its
  /// few slowest rounds and follows whatever else the machine did then.
  /// The tail here is each pass's own (p80 of its 58 reads: the rounds
  /// with range scans), and the metric is their median over the passes.
  Tail ReadTail(const Observed& observed) const override {
    Tail tail;
    std::vector<double> pass_tails;
    size_t begin = 0;
    for (size_t end : observed.pass_read_ends) {
      tail = TailPercentile(std::vector<double>(
          observed.read_ms.begin() + static_cast<std::ptrdiff_t>(begin),
          observed.read_ms.begin() + static_cast<std::ptrdiff_t>(end)));
      pass_tails.push_back(tail.value);
      begin = end;
    }
    tail.value = Median(pass_tails);
    tail.parts = pass_tails.size();
    return tail;
  }

  double StoredBytesPerUserByte(const OutcomeSums& sums) const override {
    return sums.user_bytes_inserted == 0
               ? 0
               : static_cast<double>(sums.pages_appended * 4096) /
                     static_cast<double>(sums.user_bytes_inserted);
  }

  WorkloadProbes Probe() override {
    WorkloadProbes p;
    p.read_page_us = ProbeReadPageUs(system_->csa()->secure_store());
    if (last_pass_reads_.empty()) return p;
    ProbeSql(system_->csa()->plain_db(), last_pass_reads_, &p);
    size_t i = 0;
    p.authorize_us = TimePerCallUs([&] {
      const std::string& text = last_pass_reads_[i++ % last_pass_reads_.size()];
      auto auth = system_->Authorize(ClientKey(1), text);
      if (!auth.ok()) std::exit(1);
      system_->monitor()->EndSession(auth->auth.session_key);
    });
    auto auth = system_->Authorize(ClientKey(1), last_pass_reads_[0]);
    if (!auth.ok()) std::exit(1);
    system_->monitor()->EndSession(auth->auth.session_key);
    p.authorize_cached_us = TimePerCallUs([&] {
      auto key = system_->AuthorizeCached(ClientKey(1), last_pass_reads_[0],
                                          auth->auth.obligations);
      if (!key.ok()) std::exit(1);
      system_->monitor()->EndSession(*key);
    });
    return p;
  }

 private:
  struct Session {
    uint64_t id = 0;
    std::unique_ptr<net::SecureChannel> channel;
  };

  static std::string ClientKey(int session) {
    return "c" + std::to_string(session);
  }

  std::string StatementText(const ServeOp& op, OutcomeSums* sums) {
    switch (op.kind) {
      case OpKind::kPointRead:
        return "SELECT id, owner, balance FROM accounts WHERE id = " +
               std::to_string(op.key);
      case OpKind::kRangeRead:
        return "SELECT id, owner, balance FROM accounts WHERE id >= " +
               std::to_string(op.key) + " AND id < " +
               std::to_string(op.key + kServeRangeRows);
      case OpKind::kInsert:
        break;
    }
    uint64_t id = next_event_id_++;
    char payload[kPayloadChars + 1];
    std::snprintf(payload, sizeof(payload), "evt-%012llu",
                  static_cast<unsigned long long>(id));
    sums->user_bytes_inserted += 8 + kPayloadChars;
    return "INSERT INTO events (id, payload) VALUES (" + std::to_string(id) +
           ", '" + payload + "')";
  }

  Status CheckAccountRow(const sql::Row& row) const {
    if (row.size() != 3) return Status::Internal("account row arity");
    int64_t id = row[0].AsInt();
    if (id < 0 || id >= static_cast<int64_t>(balance_.size())) {
      return Status::Internal("account id out of range");
    }
    if (row[1].type() != sql::Type::kString ||
        row[1].AsString() != "user" + std::to_string(id)) {
      return Status::Internal("account owner differs from seeded row");
    }
    if (row[2].AsDouble() != balance_[static_cast<size_t>(id)]) {
      return Status::Internal("account balance differs from seeded row");
    }
    return Status::OK();
  }

  /// Takes the session's completion, opens and decodes it, and checks
  /// the rows against the seeded reference.
  Status Collect(Session& session, const ServeOp& op) {
    std::vector<server::Completion> done =
        service_->TakeCompletions(session.id);
    if (done.size() != 1) return Status::Internal("expected one completion");
    RETURN_IF_ERROR(done[0].transport);
    ASSIGN_OR_RETURN(Bytes plain,
                     session.channel->Receive(done[0].response_frame, nullptr));
    ASSIGN_OR_RETURN(server::StatementResponse response,
                     server::DecodeStatementResponse(plain));
    RETURN_IF_ERROR(response.status);
    const std::vector<sql::Row>& rows = response.result.rows;
    switch (op.kind) {
      case OpKind::kInsert:
        if (rows.size() != 1 || rows[0].size() != 1 ||
            rows[0][0].AsInt() != 1) {
          return Status::Internal("insert did not report one row");
        }
        return Status::OK();
      case OpKind::kPointRead:
        if (rows.size() != 1 || rows[0].empty() ||
            rows[0][0].AsInt() != op.key) {
          return Status::Internal("point read did not return its row");
        }
        return CheckAccountRow(rows[0]);
      case OpKind::kRangeRead: {
        if (rows.size() != static_cast<size_t>(kServeRangeRows)) {
          return Status::Internal("range read returned a wrong row count");
        }
        for (const sql::Row& row : rows) {
          RETURN_IF_ERROR(CheckAccountRow(row));
          int64_t id = row[0].AsInt();
          if (id < op.key || id >= op.key + kServeRangeRows) {
            return Status::Internal("range read returned a foreign row");
          }
        }
        return Status::OK();
      }
    }
    return Status::OK();
  }

  uint64_t seed_;
  ServeSchedule schedule_;
  std::unique_ptr<engine::IronSafeSystem> system_;
  std::unique_ptr<server::QueryService> service_;
  std::vector<Session> sessions_;
  std::vector<double> balance_;
  std::vector<std::string> last_pass_reads_;
  uint64_t next_event_id_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpch-scs", "tpch-plain",
                                                 "serve-mixed", "fleet-scs"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "tpch-scs") {
    return std::make_unique<CsaTpchWorkload>(seed, engine::SystemConfig::kScs);
  }
  if (name == "tpch-plain") {
    return std::make_unique<CsaTpchWorkload>(seed,
                                             engine::SystemConfig::kHons);
  }
  if (name == "serve-mixed") return std::make_unique<ServeWorkload>(seed);
  if (name == "fleet-scs") return std::make_unique<FleetWorkload>(seed);
  return nullptr;
}

}  // namespace ironsafe::perfbench
