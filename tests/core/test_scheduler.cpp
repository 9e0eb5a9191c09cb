#include "core/sched/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/util/error.hpp"

namespace rebench {
namespace {

JobRequest simpleJob(std::string name, double runtime, int tasks = 1,
                     int tasksPerNode = 0, int cpusPerTask = 1) {
  JobRequest req;
  req.name = std::move(name);
  req.numTasks = tasks;
  req.numTasksPerNode = tasksPerNode;
  req.numCpusPerTask = cpusPerTask;
  req.payload = [runtime](const Allocation&) {
    return JobOutcome{true, runtime, "ok\n"};
  };
  return req;
}

TEST(Scheduler, SingleJobCompletes) {
  SchedulerSim sim({.numNodes = 2, .coresPerNode = 8});
  const JobId id = sim.submit(simpleJob("j1", 10.0));
  sim.drain();
  const JobInfo& job = sim.query(id);
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_GE(job.startTime, 0.0);
  EXPECT_NEAR(job.endTime - job.startTime, 10.0, 1e-9);
  EXPECT_EQ(job.outcome.stdoutText, "ok\n");
}

TEST(Scheduler, AccountRequiredRejection) {
  ClusterOptions opts{.numNodes = 1, .coresPerNode = 4};
  opts.requireAccount = true;
  SchedulerSim sim(opts);
  EXPECT_THROW(sim.submit(simpleJob("noacct", 1.0)), SchedulerError);
  JobRequest withAccount = simpleJob("acct", 1.0);
  withAccount.account = "ec999";
  EXPECT_NO_THROW(sim.submit(std::move(withAccount)));
}

TEST(Scheduler, InvalidQosRejected) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req = simpleJob("badqos", 1.0);
  req.qos = "gold";
  EXPECT_THROW(sim.submit(std::move(req)), SchedulerError);
}

TEST(Scheduler, OversizedJobRejectedAtSubmit) {
  SchedulerSim sim({.numNodes = 2, .coresPerNode = 8});
  // 4 tasks/node x 4 cpus = 16 cores/node > 8.
  EXPECT_THROW(sim.submit(simpleJob("toofat", 1.0, 8, 4, 4)), SchedulerError);
  // Needs 8 nodes at 1 task/node but only 2 exist.
  EXPECT_THROW(sim.submit(simpleJob("toowide", 1.0, 8, 1, 1)),
               SchedulerError);
}

TEST(Scheduler, PayloadRequired) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req;
  req.name = "empty";
  EXPECT_THROW(sim.submit(std::move(req)), SchedulerError);
}

TEST(Scheduler, TimeLimitEnforced) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req = simpleJob("slow", 100.0);
  req.timeLimit = 10.0;
  const JobId id = sim.submit(std::move(req));
  sim.drain();
  const JobInfo& job = sim.query(id);
  EXPECT_EQ(job.state, JobState::kTimeout);
  EXPECT_NEAR(job.endTime - job.startTime, 10.0, 1e-9);
}

TEST(Scheduler, FailedPayloadReported) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req;
  req.name = "crash";
  req.payload = [](const Allocation&) {
    return JobOutcome{false, 1.0, "segfault\n"};
  };
  const JobId id = sim.submit(std::move(req));
  sim.drain();
  EXPECT_EQ(sim.query(id).state, JobState::kFailed);
}

TEST(Scheduler, JobsQueueWhenClusterFull) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  // Each job takes the whole node.
  const JobId a = sim.submit(simpleJob("a", 10.0, 1, 1, 4));
  const JobId b = sim.submit(simpleJob("b", 10.0, 1, 1, 4));
  sim.drain();
  const JobInfo& ja = sim.query(a);
  const JobInfo& jb = sim.query(b);
  EXPECT_EQ(ja.state, JobState::kCompleted);
  EXPECT_EQ(jb.state, JobState::kCompleted);
  // b started only after a finished.
  EXPECT_GE(jb.startTime, ja.endTime);
}

TEST(Scheduler, SmallJobBackfillsAroundBlockedHead) {
  SchedulerSim sim({.numNodes = 2, .coresPerNode = 4});
  // "big" fills one node; "wide" needs both nodes and must wait for big;
  // "small" fits on the second node immediately and backfills past wide.
  const JobId big = sim.submit(simpleJob("big", 20.0, 1, 1, 4));
  const JobId wide = sim.submit(simpleJob("wide", 5.0, 2, 1, 4));
  const JobId small = sim.submit(simpleJob("small", 5.0, 1, 1, 1));
  sim.drain();
  EXPECT_LT(sim.query(small).startTime, sim.query(wide).startTime);
  EXPECT_EQ(sim.query(big).state, JobState::kCompleted);
  EXPECT_EQ(sim.query(wide).state, JobState::kCompleted);
}

TEST(Scheduler, NodesConservedAfterDrain) {
  SchedulerSim sim({.numNodes = 3, .coresPerNode = 8});
  for (int i = 0; i < 10; ++i) {
    sim.submit(simpleJob(std::string("j").append(std::to_string(i)), 2.0 + i,
                         2, 2, 3));
  }
  sim.drain();
  EXPECT_EQ(sim.idleCores(), sim.totalCores());
}

TEST(Scheduler, CancelPendingJob) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  const JobId a = sim.submit(simpleJob("a", 50.0, 1, 1, 4));
  const JobId b = sim.submit(simpleJob("b", 50.0, 1, 1, 4));
  sim.advance(5.0);  // a running, b pending
  sim.cancel(b);
  sim.drain();
  EXPECT_EQ(sim.query(a).state, JobState::kCompleted);
  EXPECT_EQ(sim.query(b).state, JobState::kCancelled);
}

TEST(Scheduler, CancelRunningJobFreesNodes) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  const JobId a = sim.submit(simpleJob("a", 1000.0, 1, 1, 4));
  sim.advance(5.0);
  ASSERT_EQ(sim.query(a).state, JobState::kRunning);
  sim.cancel(a);
  EXPECT_EQ(sim.query(a).state, JobState::kCancelled);
  EXPECT_EQ(sim.idleCores(), sim.totalCores());
}

TEST(Scheduler, AccountingTracksCoreSeconds) {
  ClusterOptions opts{.numNodes = 2, .coresPerNode = 8};
  opts.requireAccount = true;
  SchedulerSim sim(opts);
  JobRequest req = simpleJob("acct", 10.0, 2, 1, 4);  // 2 nodes x 4 cores
  req.account = "ec999";
  sim.submit(std::move(req));
  sim.drain();
  const auto usage = sim.accountingCoreSeconds();
  ASSERT_TRUE(usage.contains("ec999"));
  EXPECT_NEAR(usage.at("ec999"), 10.0 * 8.0, 1e-6);
}

TEST(Scheduler, QueryUnknownJobThrows) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 1});
  EXPECT_THROW(sim.query(1), SchedulerError);
  EXPECT_THROW(sim.query(0), SchedulerError);
}

TEST(Scheduler, PackingDefaultsUsesWholeNode) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 8});
  // tasksPerNode=0 => pack 8/2 = 4 tasks per node.
  const JobId id = sim.submit(simpleJob("pack", 1.0, 4, 0, 2));
  sim.drain();
  EXPECT_EQ(sim.query(id).allocation.tasksPerNode, 4);
  EXPECT_EQ(sim.query(id).allocation.nodeIds.size(), 1u);
}

TEST(Scheduler, SchedulingLatencyDelaysStart) {
  ClusterOptions opts{.numNodes = 1, .coresPerNode = 4};
  opts.schedulingLatency = 7.5;
  SchedulerSim sim(opts);
  const JobId id = sim.submit(simpleJob("delayed", 1.0));
  sim.drain();
  EXPECT_GE(sim.query(id).startTime, 7.5);
}

TEST(Scheduler, PaperGeometryEightTasksTwoPerNode) {
  // HPGMG-FV in §3.3: 8 tasks, 2 tasks per node, 8 cpus per task.
  SchedulerSim sim({.numNodes = 4, .coresPerNode = 128});
  const JobId id = sim.submit(simpleJob("hpgmg", 60.0, 8, 2, 8));
  sim.drain();
  const JobInfo& job = sim.query(id);
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_EQ(job.allocation.nodeIds.size(), 4u);
  EXPECT_EQ(job.allocation.tasksPerNode, 2);
  EXPECT_EQ(job.allocation.cpusPerTask, 8);
}

}  // namespace
}  // namespace rebench
