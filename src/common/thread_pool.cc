#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ironsafe::common {

namespace {
thread_local int tls_slot = -1;
std::atomic<int> g_max_workers{0};
}  // namespace

struct ThreadPool::Batch {
  std::vector<std::function<void()>>* tasks = nullptr;
  std::atomic<size_t> next{0};  // next unclaimed task index
  size_t done = 0;              // completed tasks, guarded by pool mu_
  int active = 0;               // pool threads inside Drain, guarded by mu_
};

ThreadPool::ThreadPool(int threads) {
  threads_.reserve(std::max(0, threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  // Keep at least one background thread even on a single-core machine so
  // the cross-thread hand-off path always executes (and sanitizer runs
  // exercise it); extra workers beyond the core count just time-slice.
  static ThreadPool pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

void ThreadPool::set_max_workers(int n) { g_max_workers.store(std::max(0, n)); }

int ThreadPool::max_workers() { return g_max_workers.load(); }

int ThreadPool::current_slot() { return tls_slot; }

int ThreadPool::EffectiveWorkers(int requested) {
  int machine = Shared().size() + 1;  // pool threads + the caller
  int cap = g_max_workers.load();
  if (cap <= 0 || cap > machine) cap = machine;
  return std::max(1, std::min(requested, cap));
}

size_t ThreadPool::Drain(Batch* batch) {
  size_t n = batch->tasks->size();
  size_t completed = 0;
  int outer_slot = tls_slot;
  while (true) {
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    tls_slot = static_cast<int>(i);
    (*batch->tasks)[i]();
    ++completed;
  }
  tls_slot = outer_slot;
  return completed;
}

ThreadPool::Batch* ThreadPool::ClaimableBatch() const {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    Batch* batch = *it;
    if (batch->next.load(std::memory_order_relaxed) < batch->tasks->size()) {
      return batch;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Pick the batch inside the predicate: other threads claim tasks
    // without the lock, so a second look could find nothing left.
    Batch* batch = nullptr;
    work_cv_.wait(lock, [&] {
      return stop_ || (batch = ClaimableBatch()) != nullptr;
    });
    if (stop_) return;
    ++batch->active;  // keeps the batch alive until we step out of it
    lock.unlock();
    size_t completed = Drain(batch);
    lock.lock();
    --batch->active;
    batch->done += completed;
    if (batch->done == batch->tasks->size() && batch->active == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunTasks(std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    int outer_slot = tls_slot;
    tls_slot = 0;
    tasks[0]();
    tls_slot = outer_slot;
    return;
  }

  Batch batch;
  batch.tasks = &tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_.push_back(&batch);
  }
  work_cv_.notify_all();

  size_t completed = Drain(&batch);

  // Every task is claimed now: withdraw the batch, then wait for the
  // pool threads still running its tasks.
  std::unique_lock<std::mutex> lock(mu_);
  open_.erase(std::find(open_.begin(), open_.end(), &batch));
  batch.done += completed;
  done_cv_.wait(lock, [&] {
    return batch.done == tasks.size() && batch.active == 0;
  });
}

}  // namespace ironsafe::common
