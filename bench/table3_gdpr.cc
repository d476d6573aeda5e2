// Table 3: GDPR anti-pattern use-cases — latency of a representative
// point query under a non-secure baseline versus the full IronSafe path
// (monitor authorization + policy rewriting + secure split execution).
// The paper reports overheads between 4.6x and 7.8x.

#include "bench/bench_util.h"
#include "engine/ironsafe.h"
#include "sql/value.h"

namespace ironsafe::bench {
namespace {

using engine::IronSafeSystem;
using engine::SystemConfig;

struct AntiPattern {
  const char* name;
  const char* policy;
  bool with_expiry;
  bool with_reuse;
  const char* exec_policy;
};

int Main(int argc, char** argv) {
  BenchArgs args = ParseArgs(argc, argv);
  BenchTracer tracer(args);

  IronSafeSystem::Options options;
  options.csa.scale_factor = 0.001;  // table uses its own tiny dataset
  auto system_or = IronSafeSystem::Create(options);
  if (!system_or.ok()) Die(system_or.status());
  auto system = std::move(*system_or);
  if (Status st = system->Bootstrap(); !st.ok()) Die(st);
  system->set_current_date(*sql::ParseDate("1997-06-01"));
  system->RegisterClient("producer");
  system->RegisterClient("consumer", /*reuse_bit=*/1);

  const AntiPattern kPatterns[] = {
      {"#1: Timely deletion",
       "read ::= sessionKeyIs(producer) | sessionKeyIs(consumer) & "
       "le(T, TIMESTAMP)\nwrite ::= sessionKeyIs(producer)\n",
       true, false, ""},
      {"#2: Indiscriminate use",
       "read ::= sessionKeyIs(producer) | sessionKeyIs(consumer) & "
       "reuseMap(m)\nwrite ::= sessionKeyIs(producer)\n",
       false, true, ""},
      {"#3: Transparency",
       "read ::= sessionKeyIs(producer) | sessionKeyIs(consumer) & "
       "logUpdate(shares, K, Q)\nwrite ::= sessionKeyIs(producer)\n",
       false, false, ""},
      {"#4: Risk-agnostic processing",
       "read ::= sessionKeyIs(producer) | sessionKeyIs(consumer)\n"
       "write ::= sessionKeyIs(producer)\n",
       false, false,
       "exec ::= fwVersionStorage(latest) & fwVersionHost(latest)"},
      {"#5: Undetectable breaches",
       "read ::= sessionKeyIs(producer) | sessionKeyIs(consumer) & "
       "logUpdate(access_log, K, Q)\n"
       "write ::= sessionKeyIs(producer) & logUpdate(access_log, K, Q)\n",
       false, false, ""},
  };

  PrintHeader("Table 3: GDPR anti-patterns — non-secure vs IronSafe");
  std::printf("%-30s %14s %14s %10s\n", "anti-pattern", "non-secure(ms)",
              "ironsafe(ms)", "overhead");

  WallClock wall;
  int idx = 0;
  for (const AntiPattern& pattern : kPatterns) {
    std::string table = std::string("t").append(std::to_string(idx++));
    std::string create = "CREATE TABLE " + table +
                         " (id INTEGER, owner VARCHAR, balance DOUBLE)";
    if (Status st = system->CreateProtectedTable("producer", create,
                                                 pattern.policy,
                                                 pattern.with_expiry,
                                                 pattern.with_reuse);
        !st.ok()) {
      Die(st);
    }
    // Populate a few hundred records.
    for (int batch = 0; batch < 10; ++batch) {
      std::string insert = "INSERT INTO " + table + " (id, owner, balance) VALUES ";
      for (int i = 0; i < 30; ++i) {
        int id = batch * 30 + i;
        if (i) insert += ", ";
        insert += std::string("(").append(std::to_string(id)) +
                  ", 'user" + std::to_string(id) +
                  "', " + std::to_string(100.0 + id) + ")";
      }
      auto r = system->Execute("producer", insert, "",
                               *sql::ParseDate("1999-01-01"), 0b010);
      if (!r.ok()) Die(r.status());
    }

    std::string query =
        "SELECT owner, balance FROM " + table + " WHERE id = 123";

    // Non-secure baseline: vanilla CS without monitor or crypto.
    auto baseline = system->csa()->Run(SystemConfig::kVcs, query);
    if (!baseline.ok()) Die(baseline.status());

    // Full IronSafe path as the consumer.
    auto secured = system->Execute("consumer", query, pattern.exec_policy);
    if (!secured.ok()) Die(secured.status());

    double base_ms = baseline->cost.elapsed_ms();
    double iron_ms = static_cast<double>(secured->total_ns()) / 1e6;
    std::printf("%-30s %14.3f %14.3f %9.2fx\n", pattern.name, base_ms,
                iron_ms, iron_ms / base_ms);
  }
  std::printf("(paper: overheads of 5.6x / 7.8x / 4.6x / 4.8x / 5.4x)\n");
  PrintWallClock(wall, "all five anti-patterns");
  return 0;
}

}  // namespace
}  // namespace ironsafe::bench

int main(int argc, char** argv) { return ironsafe::bench::Main(argc, argv); }
