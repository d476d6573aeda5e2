#ifndef IRONSAFE_COMMON_THREAD_POOL_H_
#define IRONSAFE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ironsafe::common {

/// Reusable worker pool for morsel-driven parallel execution. One
/// process-wide pool (Shared()) is sized to the hardware; executors fan
/// work out as an indexed batch of tasks and block until the batch
/// drains. Task index — not thread identity — addresses all per-task
/// state (result slices, cost-model slices, page-access logs), so the
/// outcome of a batch is independent of which thread runs which task.
class ThreadPool {
 public:
  /// `threads` pool threads are spawned; the thread calling RunTasks
  /// always participates as well, so a pool of 0 threads still makes
  /// progress (serial execution).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with
  /// max(1, hardware_concurrency() - 1) threads — the caller participates
  /// in every batch, so fan-out uses all cores without oversubscribing
  /// (except on a single core, where one background thread is kept so the
  /// cross-thread path always runs).
  static ThreadPool& Shared();

  /// Caps EffectiveWorkers (0 restores the hardware default). For tests
  /// and benches that pin the real thread count; simulated costs must
  /// never depend on this knob.
  static void set_max_workers(int n);
  static int max_workers();

  /// How many workers a caller asking for `requested`-way parallelism
  /// should fan out to: bounded by the request, the max_workers cap,
  /// and the machine. Always at least 1.
  static int EffectiveWorkers(int requested);

  /// Runs tasks[0..n) to completion; blocks until every task returned.
  /// The calling thread participates. During task i, current_slot() == i
  /// on the executing thread. A one-task batch runs inline on the caller.
  /// Batches may be issued concurrently and from inside a task (a shard
  /// group's morsel scans): every open batch is offered to idle pool
  /// threads, the innermost first, while its issuer drains it too. A
  /// thread waiting for its batch's last tasks takes no other work, so a
  /// task never runs on a thread whose own task is suspended under it.
  void RunTasks(std::vector<std::function<void()>>& tasks);

  /// Index of the task the calling thread is executing, or -1 outside a
  /// batch. Lets deep callees (e.g. page stores) file per-task records
  /// without threading an id through every interface.
  static int current_slot();

  int size() const { return static_cast<int>(threads_.size()); }

 private:
  struct Batch;

  void WorkerLoop();
  static size_t Drain(Batch* batch);
  /// The innermost open batch with a task left to claim, or null.
  /// Requires mu_.
  Batch* ClaimableBatch() const;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<Batch*> open_;  // batches still being drained, guarded by mu_
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace ironsafe::common

#endif  // IRONSAFE_COMMON_THREAD_POOL_H_
