#ifndef IRONSAFE_SQL_PAGE_STORE_H_
#define IRONSAFE_SQL_PAGE_STORE_H_

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/result.h"
#include "securestore/secure_store.h"
#include "sim/cost_model.h"
#include "storage/block_device.h"

namespace ironsafe::sql {

class ColumnBatch;

/// Fixed-size page storage abstraction under the relational engine.
/// Implementations differ in where pages live and what security work the
/// read path performs — this is exactly the seam the paper's five system
/// configurations (Table 2) vary.
class PageStore {
 public:
  static constexpr size_t kPageSize = 4096;

  virtual ~PageStore() = default;

  virtual Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) = 0;
  virtual Status WritePage(uint64_t id, const Bytes& page,
                           sim::CostModel* cost) = 0;

  /// Allocates a fresh page id.
  virtual uint64_t Allocate() = 0;
  virtual uint64_t num_pages() const = 0;

  /// Bulk-load bracket (secure stores defer their root commit).
  virtual void BeginBatch() {}
  virtual Status EndBatch() { return Status::OK(); }

  /// Morsel-scan bracket. Between BeginParallelRead and EndParallelRead
  /// the executor may call ReadPage concurrently from up to `slots`
  /// tasks (one disjoint page range each; WritePage is not allowed).
  /// Stores with mutable read-path state (caches, counters) override
  /// this to defer those updates and replay them in task order at
  /// EndParallelRead, so cache contents and counters end up independent
  /// of the real thread schedule. Stateless stores need nothing: their
  /// read paths are const-safe under concurrency.
  virtual void BeginParallelRead(int slots) { (void)slots; }
  virtual void EndParallelRead() {}

  /// Decoded-batch side cache for the vectorized engine: a columnar
  /// decode of page `id`, attached to the page-cache entry so it lives
  /// and dies with the encoded bytes (same capacity, same eviction).
  /// Callers must ReadPage(id) first — the batch never substitutes for
  /// the page read, so I/O, crypto and cache-counter charges are
  /// unchanged. Stores without a page cache keep the default no-op.
  virtual std::shared_ptr<const ColumnBatch> CachedBatch(uint64_t id) {
    (void)id;
    return nullptr;
  }
  virtual void CacheBatch(uint64_t id,
                          std::shared_ptr<const ColumnBatch> batch) {
    (void)id;
    (void)batch;
  }
};

/// Plaintext pages on an untrusted block device (the non-secure baselines
/// hons / vcs).
class PlainPageStore : public PageStore {
 public:
  explicit PlainPageStore(storage::BlockDevice* device) : device_(device) {}

  Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) override;
  Status WritePage(uint64_t id, const Bytes& page,
                   sim::CostModel* cost) override;
  uint64_t Allocate() override { return next_page_++; }
  uint64_t num_pages() const override { return next_page_; }

 private:
  storage::BlockDevice* device_;
  uint64_t next_page_ = 0;
};

/// Encrypted/integrity/freshness-protected pages (hos / scs / sos).
class SecurePageStore : public PageStore {
 public:
  explicit SecurePageStore(securestore::SecureStore* store) : store_(store) {}

  Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) override;
  Status WritePage(uint64_t id, const Bytes& page,
                   sim::CostModel* cost) override;
  uint64_t Allocate() override;
  uint64_t num_pages() const override { return next_page_; }
  void BeginBatch() override { store_->BeginBatch(); }
  Status EndBatch() override { return store_->EndBatch(); }

 private:
  securestore::SecureStore* store_;
  uint64_t next_page_ = 0;
};

/// Pure in-memory page store (host-side intermediate tables).
class MemoryPageStore : public PageStore {
 public:
  Result<Bytes> ReadPage(uint64_t id, sim::CostModel* cost) override;
  Status WritePage(uint64_t id, const Bytes& page,
                   sim::CostModel* cost) override;
  uint64_t Allocate() override {
    pages_.emplace_back();
    return pages_.size() - 1;
  }
  uint64_t num_pages() const override { return pages_.size(); }

 private:
  std::vector<Bytes> pages_;
};

}  // namespace ironsafe::sql

#endif  // IRONSAFE_SQL_PAGE_STORE_H_
