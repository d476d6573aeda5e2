// google-benchmark microbenchmarks of the primitives every IronSafe
// query exercises: hashing, MACs, page encryption, signatures, the
// Merkle tree, the secure page store, the secure channel, and the
// vectorized engine's filter/hash-probe kernels (with a boxed
// row-at-a-time counterpart for before/after comparison). Each AES and
// SHA-256 benchmark has a `_Portable` twin pinned to the portable code,
// so one run shows what AES-NI / SHA-NI buy on the host.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "bench/bench_util.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/internal.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "net/secure_channel.h"
#include "securestore/merkle_tree.h"
#include "securestore/secure_store.h"
#include "sql/column_batch.h"
#include "sql/value.h"
#include "sql/vector_kernels.h"

namespace ironsafe {
namespace {

constexpr crypto::internal::AesPath kPortableAes{false};
constexpr crypto::internal::Sha256Path kPortableSha256{false};

void BM_Sha256_4KiB(benchmark::State& state) {
  Bytes data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_Sha256_4KiB_Portable(benchmark::State& state) {
  Bytes data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kPortableSha256.Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha256_4KiB_Portable);

/// One Merkle node: HMAC-SHA-256 over two 32-byte child digests.
void BM_HmacSha256_64B(benchmark::State& state) {
  Bytes key(32, 1), node(64, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha256(key, node));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HmacSha256_64B);

void BM_HmacSha256_64B_Portable(benchmark::State& state) {
  Bytes key(32, 1), node(64, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kPortableSha256.Hmac(key, node));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_HmacSha256_64B_Portable);

void BM_Sha512_4KiB(benchmark::State& state) {
  Bytes data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha512::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Sha512_4KiB);

void BM_HmacSha512_4KiB(benchmark::State& state) {
  Bytes key(32, 1), data(4096, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha512(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HmacSha512_4KiB);

void BM_AesCbcEncrypt_4KiB(benchmark::State& state) {
  Bytes key(32, 1), iv(16, 2), page(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AesCbcEncrypt(key, iv, page));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCbcEncrypt_4KiB);

void BM_AesCbcEncrypt_4KiB_Portable(benchmark::State& state) {
  Bytes key(32, 1), iv(16, 2), page(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kPortableAes.CbcEncrypt(key, iv, page));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCbcEncrypt_4KiB_Portable);

/// The page read's hot primitive (SecureStore::ReadPage decrypts every
/// page it returns).
void BM_AesCbcDecrypt_4KiB(benchmark::State& state) {
  Bytes key(32, 1), iv(16, 2);
  Bytes sealed = *crypto::AesCbcEncrypt(key, iv, Bytes(4096, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AesCbcDecrypt(key, iv, sealed));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCbcDecrypt_4KiB);

void BM_AesCbcDecrypt_4KiB_Portable(benchmark::State& state) {
  Bytes key(32, 1), iv(16, 2);
  Bytes sealed = *crypto::AesCbcEncrypt(key, iv, Bytes(4096, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kPortableAes.CbcDecrypt(key, iv, sealed));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCbcDecrypt_4KiB_Portable);

/// The secure channel's cipher (Aead::Seal / Open).
void BM_AesCtr_4KiB(benchmark::State& state) {
  Bytes key(32, 1), nonce(16, 2), data(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::AesCtr(key, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCtr_4KiB);

void BM_AesCtr_4KiB_Portable(benchmark::State& state) {
  Bytes key(32, 1), nonce(16, 2), data(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kPortableAes.Ctr(key, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCtr_4KiB_Portable);

void BM_ChaCha20_4KiB(benchmark::State& state) {
  Bytes key(32, 1), nonce(12, 2), data(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ChaCha20(key, nonce, 0, data));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ChaCha20_4KiB);

void BM_Ed25519_Sign(benchmark::State& state) {
  auto kp = *crypto::Ed25519KeyPairFromSeed(Bytes(32, 7));
  Bytes msg = ToBytes("attestation quote payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Ed25519Sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_Ed25519_Sign);

void BM_Ed25519_Verify(benchmark::State& state) {
  auto kp = *crypto::Ed25519KeyPairFromSeed(Bytes(32, 7));
  Bytes msg = ToBytes("attestation quote payload");
  Bytes sig = *crypto::Ed25519Sign(kp.private_key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Ed25519Verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519_Verify);

void BM_X25519(benchmark::State& state) {
  Bytes scalar(32, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519Base(scalar));
  }
}
BENCHMARK(BM_X25519);

void BM_MerkleVerify(benchmark::State& state) {
  const uint64_t leaves = state.range(0);
  securestore::MerkleTree tree(Bytes(32, 1), leaves);
  for (uint64_t i = 0; i < leaves; ++i) {
    tree.UpdateLeaf(i, crypto::Sha256::Hash(std::to_string(i)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    Bytes mac = crypto::Sha256::Hash(std::to_string(i % leaves));
    benchmark::DoNotOptimize(tree.VerifyLeaf(i % leaves, mac));
    ++i;
  }
}
BENCHMARK(BM_MerkleVerify)->Arg(256)->Arg(4096)->Arg(65536);

void BM_SecureStoreReadPage(benchmark::State& state) {
  tee::DeviceManufacturer mfg(ToBytes("m"));
  tee::TrustZoneDevice device(ToBytes("d"), mfg, {"n", "eu", 1});
  securestore::SecureStorageTa ta(&device);
  storage::BlockDevice disk;
  auto store = *securestore::SecureStore::Create(&disk, &ta);
  store->BeginBatch();
  for (uint64_t i = 0; i < 64; ++i) {
    (void)store->WritePage(i, Bytes(4096, static_cast<uint8_t>(i)));
  }
  (void)store->EndBatch();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->ReadPage(i++ % 64));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SecureStoreReadPage);

void BM_SecureChannelRoundTrip(benchmark::State& state) {
  auto pair = *net::Handshake::FromSessionKey(Bytes(32, 9));
  Bytes payload(state.range(0), 0x5A);
  for (auto _ : state) {
    auto frame = pair.first->Send(payload, nullptr);
    benchmark::DoNotOptimize(pair.second->Receive(*frame, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SecureChannelRoundTrip)->Arg(1024)->Arg(65536);

// ---- Vectorized-engine kernels ----
// One ColumnBatch worth of rows per iteration, matching the batch size
// the executor feeds the kernels.

constexpr size_t kKernelRows = sql::ColumnBatch::kBatchRows;

/// Values 0..99 round-robin, so a cutoff of `pct` keeps ~pct% of rows.
std::vector<int64_t> KernelColumn() {
  std::vector<int64_t> vals(kKernelRows);
  for (size_t i = 0; i < kKernelRows; ++i) {
    vals[i] = static_cast<int64_t>(i % 100);
  }
  return vals;
}

/// FilterI64 over a full batch; Arg = selectivity in percent (0/50/100).
void BM_VecFilterI64(benchmark::State& state) {
  std::vector<int64_t> vals = KernelColumn();
  int64_t cutoff = state.range(0);  // keeps vals[i] < cutoff
  std::vector<uint32_t> sel(kKernelRows);
  for (auto _ : state) {
    for (size_t i = 0; i < kKernelRows; ++i) sel[i] = static_cast<uint32_t>(i);
    benchmark::DoNotOptimize(sql::vec::FilterI64(
        vals.data(), sql::vec::CmpOp::kLt, cutoff, sel.data(), kKernelRows));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelRows));
}
BENCHMARK(BM_VecFilterI64)->Arg(0)->Arg(50)->Arg(100);

/// The row engine's equivalent: one boxed Value compare per row. The
/// BM_VecFilterI64 / BM_RowFilterValue ratio is the per-tuple overhead
/// the vectorized engine removes.
void BM_RowFilterValue(benchmark::State& state) {
  std::vector<int64_t> raw = KernelColumn();
  std::vector<sql::Value> vals;
  vals.reserve(kKernelRows);
  for (int64_t v : raw) vals.push_back(sql::Value::Int(v));
  sql::Value cutoff = sql::Value::Int(state.range(0));
  std::vector<uint32_t> sel;
  sel.reserve(kKernelRows);
  for (auto _ : state) {
    sel.clear();
    for (size_t i = 0; i < kKernelRows; ++i) {
      if (vals[i].Compare(cutoff) < 0) sel.push_back(static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelRows));
}
BENCHMARK(BM_RowFilterValue)->Arg(0)->Arg(50)->Arg(100);

/// Normalized-key hash probe at varying batch sizes; Arg = probe batch.
/// Build side: 64Ki keys, every probe hits.
void BM_VecHashProbe(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  constexpr size_t kBuildKeys = 64 * 1024;
  std::unordered_map<std::string, uint32_t> build;
  build.reserve(kBuildKeys);
  std::vector<uint8_t> key;
  for (size_t i = 0; i < kBuildKeys; ++i) {
    key.clear();
    sql::vec::AppendKeyI64(&key, static_cast<int64_t>(i));
    build.emplace(std::string(key.begin(), key.end()),
                  static_cast<uint32_t>(i));
  }
  std::vector<int64_t> probes(batch);
  for (size_t i = 0; i < batch; ++i) {
    probes[i] = static_cast<int64_t>((i * 2654435761u) % kBuildKeys);
  }
  std::string probe_key;
  for (auto _ : state) {
    uint64_t matched = 0;
    for (size_t i = 0; i < batch; ++i) {
      key.clear();
      sql::vec::AppendKeyI64(&key, probes[i]);
      probe_key.assign(key.begin(), key.end());
      auto it = build.find(probe_key);
      if (it != build.end()) matched += it->second;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_VecHashProbe)->Arg(64)->Arg(256)->Arg(2048)->Arg(8192);

/// FNV prehash of normalized keys, the probe loop's hashing component.
void BM_VecKeyHash(benchmark::State& state) {
  std::vector<int64_t> vals = KernelColumn();
  std::vector<uint8_t> key;
  for (auto _ : state) {
    uint64_t h = 0;
    for (size_t i = 0; i < kKernelRows; ++i) {
      key.clear();
      sql::vec::AppendKeyI64(&key, vals[i]);
      h ^= sql::vec::HashBytes(key.data(), key.size());
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kKernelRows));
}
BENCHMARK(BM_VecKeyHash);

}  // namespace
}  // namespace ironsafe

int main(int argc, char** argv) {
  ironsafe::bench::WallClock wall;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ironsafe::bench::PrintWallClock(wall, "all microbenchmarks");
  return 0;
}
