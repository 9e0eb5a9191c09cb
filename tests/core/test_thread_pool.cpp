// Executor-facing thread-pool contracts: FIFO dispatch, exception
// propagation through wait()/futures/groups, nested parallel regions,
// and the REBENCH_THREADS sizing policy.  The data-parallel loop tests
// live in tests/parallel/test_thread_pool.cpp; this file covers the
// guarantees the campaign executor leans on.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace rebench {
namespace {

TEST(ThreadPoolOrder, SingleThreadPoolRunsFifo) {
  // Tasks start in FIFO order.  Waiting on a latch instead of pool.wait()
  // leaves the one worker as the only executor (wait() would help run
  // tasks concurrently), so run order is exactly start order.
  std::vector<int> order;
  std::latch done(32);
  ThreadPool pool(1);  // declared last: joins its worker before the rest go
  for (int i = 0; i < 32; ++i) {
    pool.submit([&order, &done, i] {
      order.push_back(i);
      done.count_down();
    });
  }
  done.wait();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolErrors, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The error is consumed: the pool is usable again afterwards.
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolErrors, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallelFor(pool, 0, 100,
                           [](std::size_t i) {
                             if (i == 37) throw std::runtime_error("index 37");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolErrors, GroupErrorDoesNotLeakToOtherWaiters) {
  ThreadPool pool(2);
  TaskGroup failing(pool);
  TaskGroup healthy(pool);
  std::atomic<int> ok{0};
  failing.run([] { throw std::logic_error("group fault"); });
  healthy.run([&ok] { ok.fetch_add(1); });
  EXPECT_THROW(failing.wait(), std::logic_error);
  healthy.wait();  // must not rethrow the other group's error
  EXPECT_EQ(ok.load(), 1);
  pool.wait();  // plain wait() must not see group-owned errors either
}

TEST(ThreadPoolFutures, SubmitTaskReturnsValue) {
  ThreadPool pool(2);
  std::future<int> result = pool.submitTask([] { return 6 * 7; });
  EXPECT_EQ(result.get(), 42);
}

TEST(ThreadPoolFutures, SubmitTaskRoutesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<int> result =
      pool.submitTask([]() -> int { throw std::runtime_error("via future"); });
  EXPECT_THROW(result.get(), std::runtime_error);
  pool.wait();  // a packaged_task exception must NOT surface here
}

TEST(ThreadPoolNesting, NestedParallelForFromWorkerCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallelFor(pool, 0, 4, [&](std::size_t) {
    parallelFor(pool, 0, 8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolNesting, GroupWaitFromInsideWorkerHelps) {
  // A worker that waits on a group it spawned must help drain the queue
  // rather than deadlock — even on a one-thread pool.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  TaskGroup outer(pool);
  outer.run([&pool, &inner] {
    TaskGroup nested(pool);
    for (int i = 0; i < 4; ++i) nested.run([&inner] { inner.fetch_add(1); });
    nested.wait();
  });
  outer.wait();
  EXPECT_EQ(inner.load(), 4);
}

TEST(ThreadPoolEnv, GlobalSizeParsesRebenchThreads) {
  // 0 means "host default": the ThreadPool constructor resolves it to
  // hardware_concurrency.
  ::setenv("REBENCH_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::globalSizeFromEnv(), 3u);
  ::setenv("REBENCH_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::globalSizeFromEnv(), 0u);
  ::setenv("REBENCH_THREADS", "not-a-number", 1);
  EXPECT_EQ(ThreadPool::globalSizeFromEnv(), 0u);
  ::unsetenv("REBENCH_THREADS");
  EXPECT_EQ(ThreadPool::globalSizeFromEnv(), 0u);
  ThreadPool resolved(ThreadPool::globalSizeFromEnv());
  EXPECT_GE(resolved.size(), 1u);
}

TEST(ThreadPoolLanes, WorkersSeeTheirLaneAndOutsidersSeeMinusOne) {
  // Off-pool threads (including the test body) have no lane.
  EXPECT_EQ(ThreadPool::currentLane(), -1);

  ThreadPool pool(4);
  std::mutex m;
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&m, &seen] {
      const int lane = ThreadPool::currentLane();
      std::lock_guard lock(m);
      seen.insert(lane);
    });
  }
  pool.wait();
  // Observed lanes are worker indices, or -1 when the waiting caller
  // helped drain the queue (helpers keep their off-pool lane).
  ASSERT_FALSE(seen.empty());
  for (const int lane : seen) {
    EXPECT_GE(lane, -1);
    EXPECT_LT(lane, static_cast<int>(pool.size()));
  }
  // Still no lane once back outside the pool.
  EXPECT_EQ(ThreadPool::currentLane(), -1);
}

}  // namespace
}  // namespace rebench
