#ifndef IRONSAFE_ENGINE_STORAGE_NODE_H_
#define IRONSAFE_ENGINE_STORAGE_NODE_H_

#include <algorithm>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/chacha20.h"
#include "net/secure_channel.h"
#include "securestore/secure_store.h"
#include "sim/cost_model.h"
#include "sql/database.h"
#include "storage/block_device.h"
#include "tee/sgx.h"
#include "tee/trustzone.h"

namespace ironsafe::engine {

/// Per-node resources of the paper's storage server (§6.1): the defaults
/// every storage node starts from, single-node or sharded.
inline constexpr int kStorageCores = 16;
inline constexpr uint64_t kStorageMemoryBytes = 32ull * 1024 * 1024 * 1024;

/// EPC size that keeps the paper's database:EPC pressure ratio (§6.1:
/// ~3 GB of TPC-H against a 96 MiB EPC, i.e. ~32:1) for `data_bytes` of
/// stored data, floored at 16 pages.
inline uint64_t ScaledEpcBytes(uint64_t data_bytes) {
  return std::max<uint64_t>(16 * 4096, data_bytes * 96 / 3072);
}

/// Execution options of the near-data engine on one storage node:
/// storage-site charging, `cores`-way fan-out, `memory_bytes` operator cap.
sql::ExecOptions StorageExecOptions(int cores, uint64_t memory_bytes,
                                    sql::ExecEngine engine, bool oblivious);

/// Page-store decorator whose access mode is switched per configuration:
/// optionally ships each page over the network (NFS-style host access)
/// and optionally routes each access through the host enclave (charging
/// transitions and EPC residency).
class ConfigurablePageStore : public sql::PageStore {
 public:
  explicit ConfigurablePageStore(sql::PageStore* inner) : inner_(inner) {}

  void set_remote(bool remote) { remote_ = remote; }
  void set_enclave(tee::SgxEnclave* enclave) { enclave_ = enclave; }

  /// Cold per-query state: zeroed counters, local access without enclave
  /// routing, and an empty cache of `cache_bytes` of decrypted pages in
  /// engine memory, whose re-reads skip disk, network, crypto and the
  /// inner store (what the Figure 11 storage memory budget buys).
  void ResetForQuery(uint64_t cache_bytes);
  uint64_t cache_hits() const { return cache_hits_; }

  /// When reads run inside the enclave, each page verification walks the
  /// Merkle path: one node per level, plus the data page itself. With an
  /// enclave working set (data stream + tree + engine heap) larger than
  /// the EPC, a fraction ≈ 1 - EPC/working_set of those accesses fault
  /// (paper §6.3: "the space is taken up by the Merkle tree ... causes
  /// EPC paging"). `working_set_bytes` is data + tree.
  void set_secure_profile(uint64_t merkle_depth, uint64_t working_set_bytes) {
    merkle_depth_ = merkle_depth;
    working_set_bytes_ = working_set_bytes;
  }

  Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) override;
  Status WritePage(uint64_t id, const Bytes& page,
                   sim::CostModel* cost) override;
  uint64_t Allocate() override { return inner_->Allocate(); }
  uint64_t num_pages() const override { return inner_->num_pages(); }
  void BeginBatch() override { inner_->BeginBatch(); }
  Status EndBatch() override { return inner_->EndBatch(); }

  /// Morsel-scan bracket (see sql::PageStore). Between the two calls
  /// ReadPage may run concurrently from disjoint-range tasks; cache
  /// lookups go against a mutex-guarded frozen-but-growing cache and the
  /// per-task accesses are logged, then replayed in task order at
  /// EndParallelRead so LRU recency, hit/read counters and evictions are
  /// bit-identical for every worker count (including 1: the executor
  /// brackets every base-table scan).
  void BeginParallelRead(int slots) override;
  void EndParallelRead() override;

  /// Decoded-batch cache (see sql::PageStore): columnar decodes ride on
  /// the page-cache entries, so capacity and eviction are shared with
  /// the encoded bytes and ResetForQuery drops both.
  std::shared_ptr<const sql::ColumnBatch> CachedBatch(uint64_t id) override;
  void CacheBatch(uint64_t id,
                  std::shared_ptr<const sql::ColumnBatch> batch) override;

  uint64_t pages_read() const { return pages_read_; }

 private:
  struct CacheEntry {
    std::list<uint64_t>::iterator lru_it;
    Bytes data;
    /// Columnar decode of `data`, filled lazily by the vectorized engine.
    std::shared_ptr<const sql::ColumnBatch> batch;
  };
  struct PageAccess {
    uint64_t id;
    bool hit;
  };

  /// One uncached page fetch: inner store plus the configured network /
  /// enclave access charges. Const-safe under concurrency (workers pass
  /// private cost slices; the secure read path mutates nothing).
  Result<Bytes> ChargedRead(uint64_t id, sim::CostModel* cost);
  Result<Bytes> ReadPageParallel(uint64_t id, sim::CostModel* cost);
  void EvictExcess();

  sql::PageStore* inner_;
  bool remote_ = false;
  tee::SgxEnclave* enclave_ = nullptr;
  uint64_t merkle_depth_ = 0;
  uint64_t working_set_bytes_ = 0;
  uint64_t pages_read_ = 0;

  uint64_t cache_capacity_ = 0;  // pages; 0 disables caching
  uint64_t cache_hits_ = 0;
  std::list<uint64_t> lru_;  // front = most recently used
  std::unordered_map<uint64_t, CacheEntry> cached_;

  // Parallel-read bracket state. `mu_` guards lru_/cached_ insertions
  // while a bracket is open; access_log_[slot] is written only by the
  // task holding that slot.
  std::mutex mu_;
  int parallel_slots_ = 0;
  std::vector<std::vector<PageAccess>> access_log_;
};

/// One TrustZone computational-storage node (paper §4, §6.1): a device
/// booted through a measured BL2 → trusted OS → normal-world chain, its
/// secure-storage TA, an RPMB-anchored secure store on its own disk, the
/// near-data engine's database, and a sealed host↔node channel pair.
/// Attestation stays with the caller (the monitor, or the fleet).
class StorageNode {
 public:
  /// `device_seed` fixes the hardware unique key; the manufacturer
  /// certifies `node_id`.
  static Result<std::unique_ptr<StorageNode>> Create(
      const std::string& device_seed, const std::string& node_id,
      const tee::DeviceManufacturer& manufacturer);

  /// After loading: gives enclave-routed reads the store's secure profile.
  void FinishLoad();

  /// Cold per-query state (ConfigurablePageStore::ResetForQuery), with
  /// verification charged to the storage CPU.
  void BeginQuery(uint64_t cache_bytes);

  /// Re-keys the channel pair with a fresh session key from `drbg`.
  Status Rekey(crypto::Drbg* drbg);

  const std::string& node_id() const { return device_.config().node_id; }
  uint64_t data_bytes() const {
    return store_->num_pages() * securestore::SecureStore::kPageSize;
  }
  tee::TrustZoneDevice* device() { return &device_; }
  securestore::SecureStore* store() { return store_.get(); }
  ConfigurablePageStore* access() { return access_.get(); }
  sql::Database* db() { return db_.get(); }
  net::SecureChannel* host_end() { return host_end_.get(); }
  net::SecureChannel* node_end() { return node_end_.get(); }

 private:
  StorageNode(const std::string& device_seed, const std::string& node_id,
              const tee::DeviceManufacturer& manufacturer);

  tee::TrustZoneDevice device_;
  securestore::SecureStorageTa ta_;
  storage::BlockDevice disk_;
  std::unique_ptr<securestore::SecureStore> store_;
  std::unique_ptr<sql::SecurePageStore> page_store_;
  std::unique_ptr<ConfigurablePageStore> access_;
  std::unique_ptr<sql::Database> db_;
  std::unique_ptr<net::SecureChannel> host_end_;
  std::unique_ptr<net::SecureChannel> node_end_;
};

}  // namespace ironsafe::engine

#endif  // IRONSAFE_ENGINE_STORAGE_NODE_H_
