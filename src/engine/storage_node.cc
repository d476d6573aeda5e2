#include "engine/storage_node.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "obs/retry.h"
#include "obs/trace.h"

namespace ironsafe::engine {

sql::ExecOptions StorageExecOptions(int cores, uint64_t memory_bytes,
                                    sql::ExecEngine engine, bool oblivious) {
  sql::ExecOptions opts;
  opts.site = sim::Site::kStorage;
  opts.parallelism = cores;
  opts.memory_cap_bytes = memory_bytes;
  opts.engine = engine;
  opts.oblivious = oblivious;
  return opts;
}

void ConfigurablePageStore::ResetForQuery(uint64_t cache_bytes) {
  pages_read_ = 0;
  cache_hits_ = 0;
  lru_.clear();
  cached_.clear();
  cache_capacity_ = cache_bytes / 4096;
  remote_ = false;
  enclave_ = nullptr;
}

Result<Bytes> ConfigurablePageStore::ChargedRead(uint64_t id,
                                                 sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes page, inner_->ReadPage(id, cost));
  if (remote_ && cost != nullptr) cost->ChargeNetworkBytes(page.size());
  if (enclave_ != nullptr) {
    // The enclave exits to fetch the page (SCONE-style ocall, §6.2). An
    // aborted ecall is re-entered with backoff (the SDK's standard
    // recovery); the retry machinery stays off this hot path until a
    // first plain attempt actually fails.
    Status ecall = enclave_->EnterExit(cost);
    if (!ecall.ok()) {
      RetryPolicy policy = obs::ObservedRetryPolicy("tee.ecall", cost);
      policy.retryable = [](const Status& s) { return s.IsUnavailable(); };
      RETURN_IF_ERROR(ResumeRetryWithBackoff(
          policy, std::move(ecall),
          [&]() -> Status { return enclave_->EnterExit(cost); }));
    }
    // Verifying a page inside the enclave touches the data page plus one
    // Merkle node per tree level. With a working set beyond the EPC, a
    // fraction ≈ 1 - EPC/working_set of those touches fault — the
    // paging behaviour §6.3 attributes to host-only secure execution
    // ("the space is taken up by the Merkle tree ... causes EPC paging").
    if (cost != nullptr && working_set_bytes_ > 0) {
      uint64_t epc = cost->profile().sgx.epc_bytes;
      double fault_fraction =
          1.0 - std::min(1.0, static_cast<double>(epc) /
                                  static_cast<double>(working_set_bytes_));
      uint64_t touches = 1 + merkle_depth_;
      auto faults = static_cast<uint64_t>(
          fault_fraction * static_cast<double>(touches) + 0.5);
      if (faults > 0) IRONSAFE_COUNTER_ADD("tee.sgx.epc_faults", faults);
      for (uint64_t i = 0; i < faults; ++i) cost->ChargeEpcFault();
    } else {
      enclave_->TouchMemory(id, page.size(), cost);
    }
  }
  return page;
}

void ConfigurablePageStore::EvictExcess() {
  while (cache_capacity_ > 0 && cached_.size() > cache_capacity_ &&
         !lru_.empty()) {
    cached_.erase(lru_.back());
    lru_.pop_back();
  }
}

Result<Bytes> ConfigurablePageStore::ReadPage(uint64_t id,
                                              sim::CostModel* cost) {
  if (parallel_slots_ > 0) return ReadPageParallel(id, cost);

  // Page-cache hit: the decrypted page already sits in engine memory, so
  // no device, network, enclave, or crypto work is charged.
  if (cache_capacity_ > 0) {
    auto it = cached_.find(id);
    if (it != cached_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++cache_hits_;
      return it->second.data;
    }
  }

  ASSIGN_OR_RETURN(Bytes page, ChargedRead(id, cost));
  ++pages_read_;
  if (cache_capacity_ > 0) {
    auto [it, inserted] = cached_.try_emplace(id);
    if (inserted) {
      lru_.push_front(id);
      it->second.lru_it = lru_.begin();
      it->second.data = page;
    }
    EvictExcess();
  }
  return page;
}

Result<Bytes> ConfigurablePageStore::ReadPageParallel(uint64_t id,
                                                      sim::CostModel* cost) {
  // Accesses are filed under the calling task's slot; the bracket owner
  // (slot -1, e.g. a scan running on the coordinating thread outside
  // RunTasks) files under slot 0.
  int slot = common::ThreadPool::current_slot();
  if (slot < 0 || slot >= static_cast<int>(access_log_.size())) slot = 0;

  if (cache_capacity_ > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = cached_.find(id);
    if (it != cached_.end()) {
      Bytes page = it->second.data;
      lock.unlock();
      access_log_[slot].push_back(PageAccess{id, /*hit=*/true});
      return page;
    }
  }

  ASSIGN_OR_RETURN(Bytes page, ChargedRead(id, cost));
  if (cache_capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = cached_.try_emplace(id);
    if (inserted) {
      lru_.push_front(id);
      it->second.lru_it = lru_.begin();
      it->second.data = page;
    }
  }
  access_log_[slot].push_back(PageAccess{id, /*hit=*/false});
  return page;
}

void ConfigurablePageStore::BeginParallelRead(int slots) {
  parallel_slots_ = std::max(1, slots);
  access_log_.assign(parallel_slots_, {});
}

void ConfigurablePageStore::EndParallelRead() {
  // Replay the recorded accesses in task order — the order the
  // equivalent serial scan produces — so LRU recency, the hit/read
  // counters and evictions are independent of the real thread schedule.
  // Eviction is deferred to the end of the bracket: during the scan
  // every fetched page stays resident (morsel ranges are disjoint, each
  // page is touched once), so the frozen cache is also a correct
  // working set.
  for (const auto& log : access_log_) {
    for (const PageAccess& a : log) {
      if (a.hit) {
        ++cache_hits_;
      } else {
        ++pages_read_;
      }
      auto it = cached_.find(a.id);
      if (it != cached_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      }
    }
  }
  EvictExcess();
  access_log_.clear();
  parallel_slots_ = 0;
}

std::shared_ptr<const sql::ColumnBatch> ConfigurablePageStore::CachedBatch(
    uint64_t id) {
  // No LRU touch and no counter: the caller already went through
  // ReadPage for this id, which did both. Locked unconditionally — the
  // vectorized scan calls this inside parallel brackets.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cached_.find(id);
  return it != cached_.end() ? it->second.batch : nullptr;
}

void ConfigurablePageStore::CacheBatch(
    uint64_t id, std::shared_ptr<const sql::ColumnBatch> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cached_.find(id);
  if (it != cached_.end()) it->second.batch = std::move(batch);
}

Status ConfigurablePageStore::WritePage(uint64_t id, const Bytes& page,
                                        sim::CostModel* cost) {
  auto it = cached_.find(id);
  if (it != cached_.end()) {
    lru_.erase(it->second.lru_it);
    cached_.erase(it);
  }
  if (remote_ && cost != nullptr) cost->ChargeNetworkBytes(page.size());
  return inner_->WritePage(id, page, cost);
}

StorageNode::StorageNode(const std::string& device_seed,
                         const std::string& node_id,
                         const tee::DeviceManufacturer& manufacturer)
    : device_(ToBytes(device_seed), manufacturer,
              tee::StorageNodeConfig{node_id, "eu-west-1", 3}),
      ta_(&device_) {
  device_.Boot(
      {{"BL2", ToBytes("bl2 v3")},
       {"TrustedOS", ToBytes("op-tee 3.4")},
       {"NormalWorld", ToBytes("linux 5.4.3 + ironsafe storage engine v3")}});
}

Result<std::unique_ptr<StorageNode>> StorageNode::Create(
    const std::string& device_seed, const std::string& node_id,
    const tee::DeviceManufacturer& manufacturer) {
  auto node = std::unique_ptr<StorageNode>(
      new StorageNode(device_seed, node_id, manufacturer));
  ASSIGN_OR_RETURN(node->store_,
                   securestore::SecureStore::Create(&node->disk_, &node->ta_));
  node->page_store_ =
      std::make_unique<sql::SecurePageStore>(node->store_.get());
  node->access_ =
      std::make_unique<ConfigurablePageStore>(node->page_store_.get());
  node->db_ = sql::Database::CreatePaged(node->access_.get());
  return node;
}

void StorageNode::FinishLoad() {
  // The enclave working set of a verified read: data pages plus the
  // Merkle tree (leaf + inner MACs, 96 B per page).
  uint64_t tree_bytes = store_->num_pages() * 96;
  access_->set_secure_profile(store_->merkle_depth(),
                              data_bytes() + tree_bytes);
}

void StorageNode::BeginQuery(uint64_t cache_bytes) {
  access_->ResetForQuery(cache_bytes);
  store_->set_site(sim::Site::kStorage);
}

Status StorageNode::Rekey(crypto::Drbg* drbg) {
  ASSIGN_OR_RETURN(auto pair,
                   net::Handshake::FromSessionKey(drbg->Generate(32)));
  host_end_ = std::move(pair.first);
  node_end_ = std::move(pair.second);
  return Status::OK();
}

}  // namespace ironsafe::engine
