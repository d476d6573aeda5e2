// Figure 6: TPC-H query execution-time speedup due to computational
// storage, non-secure (hons vs vcs) and secure (hos vs scs).
// Prints one row per evaluated query plus the secure-case average the
// abstract headlines (paper: 2.3x on average).
//
// Each hons run is repeated on the legacy row-at-a-time engine; the
// vec-gain column and the committed BENCH_fig6.json baseline carry the
// before/after evidence for the vectorized engine (simulated cycles and
// wall clock both). The comparison rides on hons because its time is
// execution-dominated — the secure configurations spend most of their
// (real and simulated) time in page crypto, which is engine-independent
// and would bury the signal. `--quick` truncates to the first three
// queries for the bench_smoke ctest; `--json=<path>` writes the
// baseline.

#include "bench/bench_util.h"

namespace ironsafe::bench {
namespace {

using engine::SystemConfig;

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  double sf = args.scale_factor;
  BenchTracer tracer(args);
  BaselineWriter baseline(args, "fig6_tpch_speedup");
  BENCH_ASSIGN(auto system, MakeLoadedSystem(sf));

  PrintHeader("Figure 6: TPC-H speedup from computational storage (SF=" +
              std::to_string(sf) + ")");
  std::printf("%5s %14s %14s %14s %14s %10s %10s %14s %10s %10s\n", "query",
              "hons(ms)", "vcs(ms)", "hos(ms)", "scs(ms)", "ns-speedup",
              "s-speedup", "hons-row(ms)", "vec-gain", "wall(ms)");

  WallClock total;
  double sum_secure_speedup = 0;
  int n = 0;
  int remaining = args.quick ? 3 : std::numeric_limits<int>::max();
  for (const auto& query : tpch::Queries()) {
    if (remaining-- <= 0) break;
    WallClock wall;
    BENCH_ASSIGN(auto hons, system->Run(SystemConfig::kHons, query.sql));
    double hons_wall_ms = wall.ms();
    BENCH_ASSIGN(auto vcs, system->Run(SystemConfig::kVcs, query.sql));
    BENCH_ASSIGN(auto hos, system->Run(SystemConfig::kHos, query.sql));
    BENCH_ASSIGN(auto scs, system->Run(SystemConfig::kScs, query.sql));

    // The same query on the pre-vectorization engine, same configuration.
    system->set_engine(sql::ExecEngine::kRow);
    WallClock row_wall;
    BENCH_ASSIGN(auto hons_row, system->Run(SystemConfig::kHons, query.sql));
    double row_wall_ms = row_wall.ms();
    system->set_engine(sql::ExecEngine::kVectorized);

    std::string key = std::string("q").append(std::to_string(query.number));
    baseline.Add(key, hons.cost.elapsed_ns(), hons_wall_ms);
    baseline.AddRow(key, hons_row.cost.elapsed_ns(), row_wall_ms);

    double nonsecure = hons.cost.elapsed_ms() / vcs.cost.elapsed_ms();
    double secure = hos.cost.elapsed_ms() / scs.cost.elapsed_ms();
    double vec_gain = hons_row.cost.elapsed_ms() / hons.cost.elapsed_ms();
    sum_secure_speedup += secure;
    ++n;
    std::printf(
        "%5d %14.3f %14.3f %14.3f %14.3f %9.2fx %9.2fx %14.3f %9.2fx %10.1f\n",
        query.number, hons.cost.elapsed_ms(), vcs.cost.elapsed_ms(),
        hos.cost.elapsed_ms(), scs.cost.elapsed_ms(), nonsecure, secure,
        hons_row.cost.elapsed_ms(), vec_gain, wall.ms());
  }
  std::printf("\naverage secure speedup (hos/scs): %.2fx (paper: 2.3x)\n",
              sum_secure_speedup / n);
  PrintWallClock(total);
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
