#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "obs/metrics.h"
#include "stats.h"
#include "storage/block_device.h"
#include "tee/trustzone.h"

namespace ironsafe::perfbench {

namespace {

// A probe whose setup fails measures nothing: that is a broken build or
// API, never a workload outcome, so it stops the benchmark.
template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "probe %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*r);
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "probe %s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

double SpanMs(const obs::Span& s) {
  return static_cast<double>(s.wall_end_us - s.wall_start_us) / 1000.0;
}

std::string SpanKey(const obs::Span& s) {
  if (s.category == "dist" && s.name.rfind("shard-", 0) == 0 &&
      s.name != "shard-merge") {
    return "dist/shard";
  }
  return s.category + "/" + s.name;
}

}  // namespace

Counters SnapshotCounters() {
  Counters out;
  for (auto& [name, value] : obs::MetricsRegistry::Global().Snapshot()) {
    out[name] = value;
  }
  return out;
}

int64_t CounterDelta(const Counters& before, const Counters& after,
                     const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

double SpanTotals::Self(const std::string& key) const {
  auto it = self_ms.find(key);
  return it == self_ms.end() ? 0 : it->second;
}

double SpanTotals::Wall(const std::string& key) const {
  auto it = wall_ms.find(key);
  return it == wall_ms.end() ? 0 : it->second;
}

void AccumulateSpans(const std::vector<obs::Span>& spans, SpanTotals* totals) {
  // Spans are stored in open order with ids equal to their index, so a
  // child always follows its parent.
  std::vector<double> child_ms(spans.size(), 0);
  for (const obs::Span& s : spans) {
    if (s.detail || s.parent < 0) continue;
    child_ms[static_cast<size_t>(s.parent)] += SpanMs(s);
  }
  // Per query root: first start / last end / summed wall of group spans.
  struct Group {
    int64_t start = 0, end = 0;
    double sum = 0;
    bool any = false;
  };
  std::map<int64_t, Group> groups;
  std::vector<int64_t> root_of(spans.size(), -1);
  for (const obs::Span& s : spans) {
    if (s.detail) continue;
    auto idx = static_cast<size_t>(s.id);
    root_of[idx] = s.parent < 0 ? s.id : root_of[static_cast<size_t>(s.parent)];
    double ms = SpanMs(s);
    std::string key = SpanKey(s);
    totals->self_ms[key] += std::max(0.0, ms - child_ms[idx]);
    totals->wall_ms[key] += ms;
    if (s.parent < 0) totals->root_ms += ms;
    if (key == "dist/shard") {
      Group& g = groups[root_of[idx]];
      g.start = g.any ? std::min(g.start, s.wall_start_us) : s.wall_start_us;
      g.end = g.any ? std::max(g.end, s.wall_end_us) : s.wall_end_us;
      g.sum += ms;
      g.any = true;
    }
  }
  for (const auto& [root, g] : groups) {
    totals->group_sum_ms += g.sum;
    totals->group_extent_ms += static_cast<double>(g.end - g.start) / 1000.0;
  }
}

double TimePerCallUs(const std::function<void()>& fn, int batch) {
  constexpr double kBudgetMs = 40;
  constexpr size_t kMinBatches = 5;
  fn();  // warm caches and lazy state
  std::vector<double> per_call;
  bench::WallClock total;
  while (per_call.size() < kMinBatches || total.ms() < kBudgetMs) {
    bench::WallClock sw;
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back(sw.ms() * 1000.0 / batch);
  }
  return Median(per_call);
}

CryptoProbe ProbeCrypto() {
  crypto::Drbg drbg(ToBytes("perfbench-crypto-probe"));
  Bytes key = drbg.Generate(32);
  Bytes iv = drbg.Generate(16);
  Bytes page = drbg.Generate(securestore::SecureStore::kPageSize);
  Bytes node = drbg.Generate(64);
  Bytes message = drbg.Generate(32);

  CryptoProbe p;
  Bytes sealed = Must(crypto::AesCbcEncrypt(key, iv, page), "aes encrypt");
  p.aes_cbc_encrypt_us = TimePerCallUs([&] {
    Must(crypto::AesCbcEncrypt(key, iv, page), "aes encrypt");
  });
  p.aes_cbc_decrypt_us = TimePerCallUs([&] {
    Must(crypto::AesCbcDecrypt(key, iv, sealed), "aes decrypt");
  });
  p.hmac_sha512_us = TimePerCallUs([&] {
    Bytes mac = crypto::HmacSha512(key, page);
    if (mac.empty()) std::abort();
  });
  p.sha256_node_us = TimePerCallUs(
      [&] {
        Bytes h = crypto::Sha256::Hash(node);
        if (h.empty()) std::abort();
      },
      64);

  auto pair = Must(crypto::Ed25519KeyPairFromSeed(drbg.Generate(32)),
                   "ed25519 keygen");
  Bytes signature = Must(crypto::Ed25519Sign(pair.private_key, message),
                         "ed25519 sign");
  p.ed25519_sign_us = TimePerCallUs([&] {
    Must(crypto::Ed25519Sign(pair.private_key, message), "ed25519 sign");
  });
  p.ed25519_verify_us = TimePerCallUs([&] {
    if (!crypto::Ed25519Verify(pair.public_key, message, signature)) {
      std::abort();
    }
  });
  Bytes scalar = drbg.Generate(32);
  Bytes point = Must(crypto::X25519Base(drbg.Generate(32)), "x25519 base");
  p.x25519_us = TimePerCallUs(
      [&] { Must(crypto::X25519(scalar, point), "x25519"); });
  return p;
}

double ProbeReadPageUs(securestore::SecureStore* store) {
  uint64_t pages = store->num_pages();
  if (pages == 0) return 0;
  // One warm-up sweep over every page, then the median of three timed
  // sweeps.
  std::vector<double> per_page;
  for (int sweep = 0; sweep < 4; ++sweep) {
    bench::WallClock sw;
    for (uint64_t i = 0; i < pages; ++i) {
      Must(store->ReadPage(i, nullptr), "secure store read");
    }
    if (sweep > 0) per_page.push_back(sw.ms() * 1000.0 / static_cast<double>(pages));
  }
  return Median(per_page);
}

double ProbeWritePageUs() {
  constexpr int kPages = 64;
  tee::DeviceManufacturer manufacturer(ToBytes("perfbench-manufacturer"));
  tee::TrustZoneDevice device(ToBytes("perfbench-storage"), manufacturer,
                              tee::StorageNodeConfig{"perfbench", "local", 3});
  device.Boot({{"BL2", ToBytes("bl2")},
               {"TrustedOS", ToBytes("op-tee")},
               {"NormalWorld", ToBytes("perfbench")}});
  securestore::SecureStorageTa ta(&device);
  storage::BlockDevice disk;
  auto store = Must(securestore::SecureStore::Create(&disk, &ta),
                    "secure store create");
  crypto::Drbg drbg(ToBytes("perfbench-write-probe"));
  Bytes page = drbg.Generate(securestore::SecureStore::kPageSize);
  std::vector<double> per_page;
  for (int i = 0; i < kPages; ++i) {
    bench::WallClock sw;
    MustOk(store->WritePage(static_cast<uint64_t>(i), page, nullptr),
           "secure store write");
    per_page.push_back(sw.ms() * 1000.0);
  }
  return Median(per_page);
}

double ProbeSealOpenUsPer64KiB() {
  crypto::Drbg drbg(ToBytes("perfbench-channel-probe"));
  auto pair = Must(net::Handshake::FromSessionKey(drbg.Generate(32)),
                   "channel pair");
  Bytes payload = drbg.Generate(64 * 1024);
  return TimePerCallUs([&] {
    Bytes frame = Must(pair.first->Send(payload, nullptr), "channel send");
    Must(pair.second->Receive(frame, nullptr), "channel receive");
  });
}

}  // namespace ironsafe::perfbench
