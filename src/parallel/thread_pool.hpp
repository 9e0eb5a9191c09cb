// A work-sharing thread pool and data-parallel loops — the OpenMP stand-in
// used by the native BabelStream backends, solver kernels, and the
// campaign executor.
//
// Concurrency model: one FIFO queue of jobs, each optionally owned by a
// TaskGroup.  Waiting (pool-wide or per-group) *helps*: a blocked waiter
// pops and runs queued jobs instead of idling, so nested parallel regions
// and concurrent groups from independent callers make progress even on a
// single-thread pool.  The first exception a task throws is captured and
// rethrown to the corresponding wait() caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rebench {

class TaskGroup;

/// Fixed-size pool of worker threads.  Tasks *start* in FIFO order: every
/// executor — a worker, or a caller helping from wait() — pops the front
/// of the one queue.  Completion order is not FIFO: with a helping waiter
/// even ThreadPool(1) has two executors, whose tasks run concurrently.
class ThreadPool {
 public:
  /// `numThreads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t numThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result; exceptions the
  /// task throws surface through the future, not through wait().
  template <typename F>
  auto submitTask(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    submit([task] { (*task)(); });
    return task->get_future();
  }

  /// Blocks until every submitted task has finished, helping to run queued
  /// jobs meanwhile.  Rethrows the first exception escaping a plain
  /// submit() task (TaskGroup tasks report to their group's wait()
  /// instead).  Callable from inside a pool task; the caller's own nesting
  /// depth is discounted so a single nested wait() cannot deadlock itself.
  void wait();

  /// Worker-lane identity of the calling thread: workers are numbered
  /// 0..size()-1 at construction; threads outside any pool (including
  /// helpers draining the queue from wait()) read -1.  Which lane runs
  /// which task is scheduling-dependent — callers must treat the value
  /// as diagnostic, never as part of deterministic output (the campaign
  /// executor stamps *canonical* lanes into traces for that).
  static int currentLane();

  /// Process-wide pool (lazily constructed).  Sized by the
  /// REBENCH_THREADS environment variable when set (0 or unparsable =
  /// hardware_concurrency).
  static ThreadPool& global();

  /// Parses REBENCH_THREADS into a pool size (0 = hardware concurrency);
  /// exposed separately so the policy is testable without the singleton.
  static std::size_t globalSizeFromEnv();

 private:
  friend class TaskGroup;

  struct Job {
    std::function<void()> fn;
    TaskGroup* group = nullptr;  // null for plain submit()
  };

  void enqueue(Job job);
  /// Pops and runs the front job.  `lock` must hold mutex_ on entry and
  /// is re-held on return (released around the user function).
  void runOneJob(std::unique_lock<std::mutex>& lock);
  void workerLoop(std::size_t lane);

  std::vector<std::thread> workers_;
  std::queue<Job> jobs_;
  std::mutex mutex_;
  std::condition_variable taskReady_;  // workers: new work or shutdown
  std::condition_variable progress_;   // waiters/helpers: any state change
  std::size_t active_ = 0;
  bool shutdown_ = false;
  std::exception_ptr firstError_;  // from plain submit() tasks
};

/// A set of tasks whose completion can be awaited independently of other
/// work sharing the same pool.  wait() helps drain the pool's queue while
/// the group is outstanding and rethrows the first exception thrown by a
/// task of *this* group.  The destructor waits (swallowing errors) — call
/// wait() explicitly to observe failures.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues a task belonging to this group.
  void run(std::function<void()> task);

  /// Blocks until every task of this group has finished, running queued
  /// jobs meanwhile; rethrows the group's first exception.
  void wait();

 private:
  friend class ThreadPool;

  void waitImpl(bool rethrow);

  ThreadPool& pool_;
  std::size_t pending_ = 0;        // guarded by pool_.mutex_
  std::exception_ptr error_;       // guarded by pool_.mutex_
};

/// Scheduling policy for parallelFor, mirroring OpenMP's schedule clause.
enum class Schedule { kStatic, kDynamic };

/// Runs fn(i) for i in [begin, end) across the pool.  Static scheduling
/// gives each worker one contiguous block (streaming-friendly); dynamic
/// hands out `grain`-sized chunks for irregular work.  Exceptions from
/// `fn` propagate to the caller (first one wins).
void parallelFor(ThreadPool& pool, std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 Schedule schedule = Schedule::kStatic,
                 std::size_t grain = 1024);

/// Block-parallel loop: fn(blockBegin, blockEnd) per worker block.  This is
/// the fast path used by the stream kernels (no per-index call overhead).
void parallelForBlocked(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& blockFn);

/// Parallel sum reduction of fn(i) over [begin, end).
double parallelReduceSum(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<double(std::size_t)>& fn);

/// Blocked variant: partial(blockBegin, blockEnd) -> partial sum.
double parallelReduceSumBlocked(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<double(std::size_t, std::size_t)>& partial);

}  // namespace rebench
