#ifndef IRONSAFE_PERFBENCH_WORKLOADS_H_
#define IRONSAFE_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each builds its system through public APIs
// only (engine::CsaSystem, engine::IronSafeSystem + server::QueryService,
// dist::ShardedCsaFleet), runs closed-loop passes from one thread and
// checks every result it gets back.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace ironsafe::perfbench {

inline constexpr double kScaleFactor = 0.002;

/// Set-up phases, wall ms. A phase a workload does not have stays 0.
struct SetupTimes {
  double create_ms = 0;
  double load_plain_ms = 0;   ///< first loader invocation
  double load_secure_ms = 0;  ///< second loader invocation / routing
  double bootstrap_ms = 0;
  double seed_ms = 0;         ///< producer's table creation + seed rows
  double reference_ms = 0;    ///< building the correctness reference
  double total_ms = 0;        ///< the whole Setup call
};

/// What the timed passes observed, summed over passes.
struct Observed {
  std::vector<double> read_ms;   ///< submit -> verified result
  /// read_ms.size() at the end of each pass.
  std::vector<size_t> pass_read_ends;
  std::vector<double> write_ms;  ///< INSERT submit -> verified ack
  std::vector<double> open_ms;   ///< OpenSession
  /// Latency samples per query (TPC-H "q<n>") or per operation class
  /// (serve "point", "range", "insert", "open").
  std::map<std::string, std::vector<double>> class_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors plus wrong results
  uint64_t ops = 0;     ///< completed statements (opens excluded)
  /// Simulated elapsed time of each pass, in host cycles at the paper
  /// profile's clock (the sim_cycles unit of the BENCH_*.json files).
  std::vector<uint64_t> pass_sim_cycles;
  std::vector<std::string> errors;  ///< first few failure messages

  void Fail(const std::string& message);
};

/// Per-layer quantities read off the public outcome structs
/// (engine::QueryOutcome, dist::FleetOutcome, QueryService::Stats).
/// Row counts come from the sql probe instead: the host-only path leaves
/// QueryOutcome::stats empty.
struct OutcomeSums {
  uint64_t pages_decrypted = 0;
  uint64_t shipped_bytes = 0;
  uint64_t storage_pages_read = 0;
  uint64_t host_pages_read = 0;
  uint64_t failovers = 0;
  // CostModel breakdown, simulated ns.
  uint64_t sim_compute_ns = 0;
  uint64_t sim_disk_ns = 0;
  uint64_t sim_network_ns = 0;
  uint64_t sim_decrypt_ns = 0;
  uint64_t sim_freshness_ns = 0;
  uint64_t sim_enclave_ns = 0;
  uint64_t sim_epc_fault_ns = 0;
  // Secure write path (serve-mixed).
  uint64_t pages_appended = 0;
  uint64_t user_bytes_inserted = 0;
  // QueryService::Stats deltas (serve-mixed).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t sched_delay_ns = 0;
  uint64_t rejected = 0;
  uint64_t aborted = 0;
  uint64_t peak_queue_depth = 0;  ///< max
  uint64_t stream_chunks = 0;
  uint64_t statements_executed = 0;
  uint64_t sessions_opened = 0;
};

/// Timings of public calls on the workload's own objects, taken after
/// the timed passes (0 where the workload lacks the object).
struct WorkloadProbes {
  double read_page_us = 0;     ///< SecureStore::ReadPage, every page
  /// sql::ExecuteSelect on the plain twin over one pass worth of
  /// statement texts: wall time and summed ExecStats.
  double sql_exec_ms = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t peak_memory_bytes = 0;  ///< max over statements
  uint64_t spill_bytes = 0;
  double sql_parse_us = 0;     ///< sql::Parse per statement text
  double authorize_us = 0;     ///< IronSafeSystem::Authorize
  double authorize_cached_us = 0;  ///< IronSafeSystem::AuthorizeCached
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system from scratch (dropping any previous one), loads
  /// it and builds the correctness reference.
  virtual Status Setup(SetupTimes* times) = 0;

  /// One closed-loop pass. Failures and wrong results are recorded in
  /// `observed`, never thrown or returned.
  virtual void RunPass(uint64_t pass, Observed* observed,
                       OutcomeSums* sums) = 0;

  /// Secure-store bytes (pages x 4 KiB) per byte of user row values:
  /// for the TPC-H workloads the loaded database, for serve-mixed the
  /// growth over the timed passes per inserted byte.
  virtual double StoredBytesPerUserByte(const OutcomeSums& sums) const = 0;

  virtual WorkloadProbes Probe() = 0;

  /// The read_p50_ms metric: the median of all read latencies.
  virtual double ReadP50Ms(const Observed& observed) const;

  /// The read_tail_ms metric: TailPercentile of all read latencies.
  virtual Tail ReadTail(const Observed& observed) const;
};

/// Names of every workload. BENCHMARK.json gates serve-mixed and fleet-scs;
/// tpch-scs and tpch-plain are run by hand (README.md says why).
const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace ironsafe::perfbench

#endif  // IRONSAFE_PERFBENCH_WORKLOADS_H_
