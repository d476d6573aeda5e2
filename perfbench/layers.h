#ifndef IRONSAFE_PERFBENCH_LAYERS_H_
#define IRONSAFE_PERFBENCH_LAYERS_H_

// Per-layer measurement from outside the program: counter diffs of the
// global obs::MetricsRegistry, self times of the spans the program
// already emits (read off an obs::Tracer the benchmark installs), and
// timings of single public calls into each module.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "securestore/secure_store.h"

namespace ironsafe::perfbench {

/// Snapshot of every process-wide counter and gauge, by name.
using Counters = std::map<std::string, int64_t>;
Counters SnapshotCounters();
/// after[name] - before[name], treating a missing name as 0.
int64_t CounterDelta(const Counters& before, const Counters& after,
                     const std::string& name);

/// Wall-clock totals over the (non-detail) spans of traced passes.
/// Keys are "<category>/<name>", with the per-group "shard-<g>" spans of
/// the fleet folded into "dist/shard".
struct SpanTotals {
  std::map<std::string, double> self_ms;  ///< duration minus children
  std::map<std::string, double> wall_ms;  ///< duration, children included
  double root_ms = 0;  ///< summed wall time of root spans
  /// Fleet group concurrency: summed "shard-<g>" span wall time, and the
  /// wall extent from the first group's start to the last group's end,
  /// per query root.
  double group_sum_ms = 0;
  double group_extent_ms = 0;

  double Self(const std::string& key) const;
  double Wall(const std::string& key) const;
};
void AccumulateSpans(const std::vector<obs::Span>& spans, SpanTotals* totals);

/// Median wall time of one `fn()` call in microseconds: after one
/// warm-up call, calls it in batches of `batch` for at least 40 ms and
/// five batches, and reports the median batch mean.
double TimePerCallUs(const std::function<void()>& fn, int batch = 1);

/// Single-call timings of the crypto primitives on their production
/// inputs: one 4 KiB page for AES-256-CBC and HMAC-SHA-512, one Merkle
/// node (two 32-byte children) for SHA-256, a 32-byte message for
/// Ed25519, one scalar multiplication for X25519.
struct CryptoProbe {
  double aes_cbc_decrypt_us = 0;
  double aes_cbc_encrypt_us = 0;
  double hmac_sha512_us = 0;
  double sha256_node_us = 0;
  double ed25519_sign_us = 0;
  double ed25519_verify_us = 0;
  double x25519_us = 0;
};
CryptoProbe ProbeCrypto();

/// SecureStore::ReadPage over every page of `store`, µs per page.
double ProbeReadPageUs(securestore::SecureStore* store);

/// SecureStore::WritePage of 64 fresh pages, one durable write each
/// (root commit per page, as a single-row INSERT does), on a scratch
/// store; median µs per page.
double ProbeWritePageUs();

/// net::SecureChannel Send + Receive of one 64 KiB payload, µs.
double ProbeSealOpenUsPer64KiB();

}  // namespace ironsafe::perfbench

#endif  // IRONSAFE_PERFBENCH_LAYERS_H_
