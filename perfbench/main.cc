// The repository benchmark: one workload per invocation.
//
//   ironsafe_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// splits the time between an untraced and a traced half and reports the
// per-layer metrics (README.md has both catalogues). Human-readable
// lines go first; the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// Exit status is 0 only if every operation succeeded with a correct
// result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "layers.h"
#include "obs/trace.h"
#include "stats.h"
#include "workloads.h"

namespace ironsafe::perfbench {
namespace {

/// Set-ups per invocation; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// peak_rss_mb is read after this many passes (or at the end of a shorter
/// run), so it reflects a fixed amount of work: serve-mixed grows its
/// store with every INSERT, and a faster program would otherwise read as
/// using more memory.
constexpr uint64_t kRssPasses = 32;

/// Cap on the morsel worker pool, the caller included. Not one per core:
/// on a shared host a fan-out over every core waits for whichever core a
/// neighbour holds, and the runs then measure the neighbours. Two still
/// let parallel code show a gain.
constexpr int kMorselWorkers = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: ironsafe_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  return args;
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one timed phase (a run of whole passes) produced.
struct Phase {
  Observed observed;
  OutcomeSums sums;
  Counters counters_before;
  Counters counters_after;
  SpanTotals spans;
  uint64_t passes = 0;
  double wall_ms = 0;
  double peak_rss_mb = 0;  ///< after kRssPasses passes or at the end
  std::vector<double> pass_ms;
  /// Completed operations per wall second, one entry per pass.
  std::vector<double> pass_ops_per_s;

  int64_t Counter(const std::string& name) const {
    return CounterDelta(counters_before, counters_after, name);
  }
  double PerPass(double total) const {
    return passes == 0 ? 0 : total / static_cast<double>(passes);
  }
  /// The median pass's throughput. The run-wide ratio of operations to
  /// wall time weighs in every stretch a neighbour slowed the host and
  /// spread up to half as much again between runs.
  double OpsPerSecond() const { return Median(pass_ops_per_s); }
};

/// Runs whole passes until `seconds` of wall time have passed (at least
/// one). With `tracer` set, it is installed for the passes and its spans
/// are folded into the phase after each pass.
void RunPhase(Workload* workload, double seconds, uint64_t* next_pass,
              obs::Tracer* tracer, Phase* phase) {
  phase->counters_before = SnapshotCounters();
  bench::WallClock wall;
  while (phase->passes == 0 || wall.ms() < seconds * 1000) {
    uint64_t ops_before = phase->observed.ops;
    bench::WallClock pass_wall;
    if (tracer != nullptr) {
      obs::ScopedTracer scope(tracer);
      workload->RunPass((*next_pass)++, &phase->observed, &phase->sums);
    } else {
      workload->RunPass((*next_pass)++, &phase->observed, &phase->sums);
    }
    double ms = pass_wall.ms();
    ++phase->passes;
    phase->pass_ms.push_back(ms);
    phase->pass_ops_per_s.push_back(
        static_cast<double>(phase->observed.ops - ops_before) / (ms / 1000));
    if (phase->passes == kRssPasses) phase->peak_rss_mb = PeakRssMb();
    phase->observed.pass_read_ends.push_back(phase->observed.read_ms.size());
    if (tracer != nullptr) {
      AccumulateSpans(tracer->spans(), &phase->spans);
      tracer->Clear();
    }
  }
  phase->wall_ms = wall.ms();
  if (phase->passes < kRssPasses) phase->peak_rss_mb = PeakRssMb();
  phase->counters_after = SnapshotCounters();
}

double ClassGeoMean(const Observed& observed) {
  std::vector<double> medians;
  for (const auto& [name, samples] : observed.class_ms) {
    medians.push_back(Median(samples));
  }
  return GeoMean(medians);
}

void PrintTail(const char* what, const Tail& tail) {
  std::printf("%s tail: p%g = %.3f ms over %zu samples (%zu beyond)", what,
              tail.percentile, tail.value, tail.samples, tail.beyond);
  if (tail.parts > 1) std::printf(", median over %zu passes", tail.parts);
  if (tail.beyond < kTailMinBeyond) {
    std::printf(" [too few samples for the >=10 rule]");
  }
  std::printf("\n");
}

/// The TPC-H workloads run the same queries on the same data every pass,
/// so every pass must cost exactly the same simulated time.
void CheckSimDeterminism(const std::string& workload, Observed* observed) {
  if (workload == "serve-mixed") return;
  for (uint64_t sim : observed->pass_sim_cycles) {
    if (sim != observed->pass_sim_cycles.front()) {
      observed->Fail("simulated time differs between passes");
      return;
    }
  }
}

std::vector<Metric> EndToEndMetrics(const Workload& workload,
                                    const SetupTimes& setup,
                                    const Phase& phase) {
  const Observed& o = phase.observed;
  double sim_cycles = o.pass_sim_cycles.empty()
                          ? 0
                          : static_cast<double>(o.pass_sim_cycles.front());
  return {
      {"setup_s", setup.total_ms / 1000, "s"},
      {"ops_per_s", phase.OpsPerSecond(), "ops/s"},
      {"read_p50_ms", workload.ReadP50Ms(o), "ms"},
      {"read_tail_ms", workload.ReadTail(o).value, "ms"},
      {"query_geomean_ms", ClassGeoMean(o), "ms"},
      {"sim_cycles", sim_cycles, "cycles"},
      {"stored_bytes_per_user_byte",
       workload.StoredBytesPerUserByte(phase.sums), "ratio"},
      {"peak_rss_mb", phase.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> PerLayerMetrics(const SetupTimes& setup,
                                    const Phase& plain, const Phase& traced,
                                    const CryptoProbe& crypto,
                                    const WorkloadProbes& probes,
                                    double write_page_us,
                                    double seal_open_us) {
  const OutcomeSums& s = plain.sums;
  auto per_pass = [&](double total) { return plain.PerPass(total); };
  auto counter = [&](const char* name) {
    return per_pass(static_cast<double>(plain.Counter(name)));
  };
  auto span_self = [&](const char* key) {
    return traced.PerPass(traced.spans.Self(key));
  };
  auto ns_ms = [&](uint64_t ns) {
    return per_pass(static_cast<double>(ns) / 1e6);
  };
  double pages_read = per_pass(static_cast<double>(s.pages_decrypted));
  double pages_written = per_pass(static_cast<double>(s.pages_appended));
  double send_bytes = counter("net.channel.send_bytes");
  double read_busy_ms = pages_read * probes.read_page_us / 1000;
  double write_busy_ms = pages_written * write_page_us / 1000;
  double net_busy_ms = send_bytes / 65536 * seal_open_us / 1000;
  double lookups = static_cast<double>(s.plan_cache_hits + s.plan_cache_misses);
  double plain_ops = plain.OpsPerSecond();
  double traced_ops = traced.OpsPerSecond();

  // Probe-based attribution of one untraced pass: time per call x calls.
  double sign_ms = per_pass(static_cast<double>(s.statements_executed)) *
                   crypto.ed25519_sign_us / 1000;
  // A session open runs an X25519 handshake: two base-point and two
  // shared-secret multiplications across client and service.
  double handshake_ms = per_pass(static_cast<double>(s.sessions_opened)) * 4 *
                        crypto.x25519_us / 1000;
  double monitor_ms =
      per_pass(static_cast<double>(s.plan_cache_misses) * probes.authorize_us +
               static_cast<double>(s.plan_cache_hits) *
                   probes.authorize_cached_us) /
      1000;
  double pass_ms = plain.PerPass(plain.wall_ms);
  double attributed = read_busy_ms + write_busy_ms + net_busy_ms +
                      probes.sql_exec_ms + sign_ms + handshake_ms + monitor_ms;
  std::printf(
      "attribution of one untraced pass (%.1f ms wall): page reads %.1f, "
      "page writes %.1f, channel %.1f, sql exec %.1f, proof signing %.1f, "
      "handshakes %.1f, monitor %.1f; unattributed %.1f ms (%.1f%%)\n",
      pass_ms, read_busy_ms, write_busy_ms, net_busy_ms, probes.sql_exec_ms,
      sign_ms, handshake_ms, monitor_ms, pass_ms - attributed,
      pass_ms > 0 ? 100 * (pass_ms - attributed) / pass_ms : 0);
  double traced_pass_ms = traced.PerPass(traced.wall_ms);
  double span_coverage =
      traced_pass_ms > 0 ? traced.PerPass(traced.spans.root_ms) / traced_pass_ms
                         : 0;
  std::printf("span coverage of one traced pass (%.1f ms wall): %.1f%%\n",
              traced_pass_ms, 100 * span_coverage);

  Tail write_tail = TailPercentile(plain.observed.write_ms);
  return {
      {"crypto.aes_cbc_decrypt_us", crypto.aes_cbc_decrypt_us, "us"},
      {"crypto.aes_cbc_encrypt_us", crypto.aes_cbc_encrypt_us, "us"},
      {"crypto.hmac_sha512_us", crypto.hmac_sha512_us, "us"},
      {"crypto.sha256_node_us", crypto.sha256_node_us, "us"},
      {"crypto.ed25519_sign_us", crypto.ed25519_sign_us, "us"},
      {"crypto.ed25519_verify_us", crypto.ed25519_verify_us, "us"},
      {"crypto.x25519_us", crypto.x25519_us, "us"},

      {"securestore.pages_read", pages_read, "count"},
      {"securestore.read_page_us", probes.read_page_us, "us"},
      {"securestore.read_busy_ms", read_busy_ms, "ms"},
      {"securestore.pages_written", pages_written, "count"},
      {"securestore.write_page_us", write_page_us, "us"},
      {"securestore.reverifies", counter("securestore.reverifies"), "count"},

      {"net.send_bytes", send_bytes, "bytes"},
      {"net.frames_sent", counter("net.channel.frames_sent"), "count"},
      {"net.seal_open_us_per_64KiB", seal_open_us, "us"},
      {"net.busy_ms", net_busy_ms, "ms"},
      {"net.rejects", counter("net.channel.rejects"), "count"},
      {"net.rehandshakes", counter("net.channel.rehandshakes"), "count"},

      {"sql.exec_ms", probes.sql_exec_ms, "ms"},
      {"sql.scan_ms", span_self("sql/scan"), "ms"},
      {"sql.join_ms", span_self("sql/join"), "ms"},
      {"sql.aggregate_ms", span_self("sql/aggregate"), "ms"},
      {"sql.rows_scanned", static_cast<double>(probes.rows_scanned), "count"},
      {"sql.rows_output", static_cast<double>(probes.rows_output), "count"},
      {"sql.rows_scanned_per_row_out",
       probes.rows_output == 0 ? 0
                               : static_cast<double>(probes.rows_scanned) /
                                     static_cast<double>(probes.rows_output),
       "ratio"},
      {"sql.peak_memory_bytes", static_cast<double>(probes.peak_memory_bytes),
       "bytes"},
      {"sql.spill_bytes", static_cast<double>(probes.spill_bytes), "bytes"},
      {"sql.parse_us", probes.sql_parse_us, "us"},

      {"engine.partition_ms", span_self("engine/partition"), "ms"},
      {"engine.storage_phase_ms", span_self("engine/storage-phase"), "ms"},
      {"engine.ship_ms", span_self("engine/ship"), "ms"},
      {"engine.host_phase_ms", span_self("engine/host-phase"), "ms"},
      {"engine.proof_ms", span_self("engine/proof"), "ms"},
      {"engine.dml_ms", span_self("engine/dml-execute"), "ms"},
      {"engine.shipped_bytes", per_pass(static_cast<double>(s.shipped_bytes)),
       "bytes"},
      {"engine.storage_pages_read",
       per_pass(static_cast<double>(s.storage_pages_read)), "count"},
      {"engine.host_pages_read",
       per_pass(static_cast<double>(s.host_pages_read)), "count"},
      {"engine.host_fallbacks", counter("engine.host_fallbacks"), "count"},

      {"tee.sgx_transitions", counter("tee.sgx.transitions"), "count"},
      {"tee.epc_faults", counter("tee.sgx.epc_faults"), "count"},
      {"tee.rpmb_reads", counter("tee.rpmb.reads"), "count"},
      {"tee.rpmb_writes", counter("tee.rpmb.writes"), "count"},

      {"monitor.authorize_us", probes.authorize_us, "us"},
      {"monitor.authorize_cached_us", probes.authorize_cached_us, "us"},
      {"monitor.parse_ms", span_self("monitor/parse"), "ms"},
      {"policy.check_ms", span_self("monitor/policy-check"), "ms"},
      {"monitor.rewrite_ms", span_self("monitor/rewrite"), "ms"},

      {"server.decode_ms", span_self("server/stage-decode"), "ms"},
      {"server.authorize_ms", span_self("server/stage-authorize"), "ms"},
      {"server.execute_ms", span_self("server/stage-execute"), "ms"},
      {"server.encode_ms", span_self("server/stage-encode"), "ms"},
      {"server.plan_cache_hit_rate",
       lookups == 0 ? 0 : static_cast<double>(s.plan_cache_hits) / lookups,
       "fraction"},
      {"server.plan_cache_lookups", per_pass(lookups), "count"},
      {"server.sched_delay_ms", ns_ms(s.sched_delay_ns), "sim-ms"},
      {"server.rejected", per_pass(static_cast<double>(s.rejected)), "count"},
      {"server.aborted", per_pass(static_cast<double>(s.aborted)), "count"},
      {"server.peak_queue_depth", static_cast<double>(s.peak_queue_depth),
       "count"},
      {"server.stream_chunks", per_pass(static_cast<double>(s.stream_chunks)),
       "count"},
      {"server.write_p50_ms", Median(plain.observed.write_ms), "ms"},
      {"server.write_tail_ms", write_tail.value, "ms"},
      {"server.open_p50_ms", Median(plain.observed.open_ms), "ms"},

      {"dist.plan_ms", span_self("dist/plan"), "ms"},
      {"dist.fragment_ms_sum", traced.PerPass(traced.spans.Wall("dist/fragment")),
       "ms"},
      {"dist.shard_merge_ms", span_self("dist/shard-merge"), "ms"},
      {"dist.ship_ms", span_self("dist/ship"), "ms"},
      {"dist.host_phase_ms", span_self("dist/host-phase"), "ms"},
      {"dist.group_overlap",
       traced.spans.group_extent_ms > 0
           ? traced.spans.group_sum_ms / traced.spans.group_extent_ms
           : 0,
       "ratio"},
      {"dist.fragments", counter("dist.fragments"), "count"},
      {"dist.failovers", counter("dist.failovers"), "count"},
      {"dist.rehandshakes", counter("dist.channel.rehandshakes"), "count"},

      {"sim.compute_ms", ns_ms(s.sim_compute_ns), "sim-ms"},
      {"sim.disk_ms", ns_ms(s.sim_disk_ns), "sim-ms"},
      {"sim.network_ms", ns_ms(s.sim_network_ns), "sim-ms"},
      {"sim.decrypt_ms", ns_ms(s.sim_decrypt_ns), "sim-ms"},
      {"sim.freshness_ms", ns_ms(s.sim_freshness_ns), "sim-ms"},
      {"sim.enclave_ms", ns_ms(s.sim_enclave_ns), "sim-ms"},
      {"sim.epc_fault_ms", ns_ms(s.sim_epc_fault_ns), "sim-ms"},

      {"setup.create_ms", setup.create_ms, "ms"},
      {"setup.load_plain_ms", setup.load_plain_ms, "ms"},
      {"setup.load_secure_ms", setup.load_secure_ms, "ms"},
      {"setup.bootstrap_ms", setup.bootstrap_ms, "ms"},
      {"setup.seed_ms", setup.seed_ms, "ms"},
      {"setup.reference_ms", setup.reference_ms, "ms"},

      {"obs.trace_overhead", traced_ops > 0 ? plain_ops / traced_ops : 0,
       "ratio"},
      {"obs.untraced_ops_per_s", plain_ops, "ops/s"},
      {"obs.traced_ops_per_s", traced_ops, "ops/s"},
      {"obs.span_coverage", span_coverage, "fraction"},
      {"obs.unattributed_share",
       pass_ms > 0 ? (pass_ms - attributed) / pass_ms : 0, "fraction"},
  };
}

/// Median of each set-up phase over the repeats.
SetupTimes MedianSetup(const std::vector<SetupTimes>& runs) {
  auto med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : runs) v.push_back(t.*field);
    return Median(v);
  };
  SetupTimes m;
  m.create_ms = med(&SetupTimes::create_ms);
  m.load_plain_ms = med(&SetupTimes::load_plain_ms);
  m.load_secure_ms = med(&SetupTimes::load_secure_ms);
  m.bootstrap_ms = med(&SetupTimes::bootstrap_ms);
  m.seed_ms = med(&SetupTimes::seed_ms);
  m.reference_ms = med(&SetupTimes::reference_ms);
  m.total_ms = med(&SetupTimes::total_ms);
  return m;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  common::ThreadPool::set_max_workers(kMorselWorkers);

  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    Status st = workload->Setup(&t);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setups.push_back(t);
  }
  SetupTimes setup = MedianSetup(setups);
  std::printf("workload %s seed %llu: set-up median %.1f ms over %d runs\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), setup.total_ms,
              kSetupRepeats);

  uint64_t next_pass = 0;
  std::vector<Metric> metrics;
  Observed checked;  // every phase's outcomes, for the result line
  if (args.trace == 0) {
    Phase phase;
    RunPhase(workload.get(), args.seconds, &next_pass, nullptr, &phase);
    CheckSimDeterminism(args.workload, &phase.observed);
    metrics = EndToEndMetrics(*workload, setup, phase);
    PrintTail("read", workload->ReadTail(phase.observed));
    std::printf("median latency by query/class (ms):");
    for (const auto& [name, samples] : phase.observed.class_ms) {
      std::printf(" %s=%.2f", name.c_str(), Median(samples));
    }
    std::printf("\n");
    if (!phase.observed.write_ms.empty()) {
      std::printf("write p50 %.3f ms; ", Median(phase.observed.write_ms));
      PrintTail("write", TailPercentile(phase.observed.write_ms));
    }
    if (!phase.observed.open_ms.empty()) {
      std::printf("open p50 %.3f ms over %zu opens\n",
                  Median(phase.observed.open_ms),
                  phase.observed.open_ms.size());
    }
    std::printf("passes %llu, wall %.1f ms; pass wall ms:",
                static_cast<unsigned long long>(phase.passes), phase.wall_ms);
    for (double ms : phase.pass_ms) std::printf(" %.1f", ms);
    std::printf("\n");
    checked = std::move(phase.observed);
  } else {
    Phase plain;
    RunPhase(workload.get(), args.seconds / 2, &next_pass, nullptr, &plain);
    CheckSimDeterminism(args.workload, &plain.observed);
    obs::Tracer tracer;
    Phase traced;
    RunPhase(workload.get(), args.seconds / 2, &next_pass, &tracer, &traced);
    CryptoProbe crypto = ProbeCrypto();
    WorkloadProbes probes = workload->Probe();
    double write_page_us = ProbeWritePageUs();
    double seal_open_us = ProbeSealOpenUsPer64KiB();
    metrics = PerLayerMetrics(setup, plain, traced, crypto, probes,
                              write_page_us, seal_open_us);
    std::printf("untraced passes %llu (%.1f ms), traced passes %llu (%.1f ms)\n",
                static_cast<unsigned long long>(plain.passes), plain.wall_ms,
                static_cast<unsigned long long>(traced.passes),
                traced.wall_ms);
    checked = std::move(plain.observed);
    checked.attempted += traced.observed.attempted;
    checked.failed += traced.observed.failed;
    for (std::string& e : traced.observed.errors) {
      checked.errors.push_back(std::move(e));
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  double error_rate = checked.attempted == 0
                          ? 0
                          : static_cast<double>(checked.failed) /
                                static_cast<double>(checked.attempted);
  std::printf("error_rate %.6f (%llu of %llu operations)\n", error_rate,
              static_cast<unsigned long long>(checked.failed),
              static_cast<unsigned long long>(checked.attempted));
  for (const std::string& e : checked.errors) {
    std::printf("error: %s\n", e.c_str());
  }

  bool correct = checked.failed == 0 && checked.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checked.attempted);
  json += ", \"failed\": " + std::to_string(checked.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ironsafe::perfbench

int main(int argc, char** argv) {
  return ironsafe::perfbench::Main(argc, argv);
}
