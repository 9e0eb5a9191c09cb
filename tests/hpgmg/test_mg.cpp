#include "hpgmg/mg.hpp"

#include <gtest/gtest.h>

#include "hpgmg/driver.hpp"

namespace rebench::hpgmg {
namespace {

TEST(MgSolver, HierarchyDepth) {
  MgSolver solver(32);
  // 32 -> 16 -> 8 -> 4 with the default bottom of 4.
  EXPECT_EQ(solver.numLevels(), 4);
  EXPECT_EQ(solver.fineLevel().n, 32);
}

TEST(MgSolver, VCyclesConvergeAtMultigridRate) {
  MgSolver solver(32);
  fillManufacturedRhs(solver.fineLevel());
  const auto residuals = solver.iterate(6);
  ASSERT_EQ(residuals.size(), 6u);
  // Every cycle should knock the residual down by at least ~5x (textbook
  // multigrid gives ~10x for this problem).
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    if (residuals[i] < 1e-11) break;  // hit floating-point floor
    EXPECT_LT(residuals[i], residuals[i - 1] / 5.0) << "cycle " << i;
  }
}

TEST(MgSolver, FmgReachesDiscretisationAccuracy) {
  // One FMG pass must produce error at the truncation level O(h^2).
  for (int n : {16, 32}) {
    MgSolver solver(n);
    fillManufacturedRhs(solver.fineLevel());
    solver.fmgSolve();
    const double err = manufacturedError(solver.fineLevel());
    EXPECT_LT(err, 10.0 / (n * n)) << "n=" << n;
  }
}

TEST(MgSolver, FmgErrorShrinksSecondOrder) {
  double prev = 0.0;
  for (int n : {8, 16, 32}) {
    MgSolver solver(n);
    fillManufacturedRhs(solver.fineLevel());
    solver.fmgSolve();
    const double err = manufacturedError(solver.fineLevel());
    if (prev > 0.0) {
      EXPECT_GT(prev / err, 2.5) << "n=" << n;
    }
    prev = err;
  }
}

TEST(MgSolver, CountersTrackCycles) {
  MgSolver solver(16);
  fillManufacturedRhs(solver.fineLevel());
  solver.iterate(3);
  EXPECT_EQ(solver.counters().vCycles, 3);
  EXPECT_GT(solver.counters().smootherSweeps, 3 * 2);
  solver.resetCounters();
  EXPECT_EQ(solver.counters().vCycles, 0);
}

TEST(HpgmgDriver, NativeRunProducesThreeFoms) {
  const HpgmgResult result = runNative(32);
  ASSERT_EQ(result.foms.size(), 3u);
  EXPECT_EQ(result.foms[0].name, "l0");
  EXPECT_EQ(result.foms[0].dof, 32u * 32 * 32);
  EXPECT_EQ(result.foms[1].dof, 16u * 16 * 16);
  EXPECT_EQ(result.foms[2].dof, 8u * 8 * 8);
  EXPECT_TRUE(result.validated);
  for (const LevelFom& fom : result.foms) {
    EXPECT_GT(fom.mdofPerSec, 0.0);
    EXPECT_GT(fom.seconds, 0.0);
  }
}

TEST(HpgmgDriver, GlobalDofMatchesPaperArgs) {
  // "7 8" with 8 ranks: 128^3 cells/box x 8 boxes x 8 ranks = 2^27 x 2^3.
  HpgmgConfig config;
  config.log2BoxDim = 7;
  config.targetBoxesPerRank = 8;
  config.numRanks = 8;
  EXPECT_EQ(globalDof(config), (std::size_t{1} << 21) * 64);
}

TEST(HpgmgDriver, ModeledFomsFollowPlatformEfficiency) {
  const MachineModel& rome = builtinMachines().get("rome-7742");
  HpgmgConfig config;
  const HpgmgResult fast = runModeled(config, rome, 0.4, 30e-6, 16);
  const HpgmgResult slow = runModeled(config, rome, 0.1, 30e-6, 16);
  EXPECT_GT(fast.foms[0].mdofPerSec, 2.0 * slow.foms[0].mdofPerSec);
}

TEST(HpgmgDriver, SmallerScalesLoseToOverheads) {
  // Table 4's l0 > l2 pattern: fixed per-launch overheads dominate the
  // smaller problems.
  const MachineModel& clxModel = builtinMachines().get("clx-8276");
  HpgmgConfig config;
  const HpgmgResult result =
      runModeled(config, clxModel, 0.2, 200e-6, 16);
  EXPECT_GT(result.foms[0].mdofPerSec, result.foms[2].mdofPerSec);
}

TEST(HpgmgDriver, OutputParsesWithFrameworkRegexes) {
  const HpgmgResult result = runNative(16);
  const std::string out = formatOutput(result);
  EXPECT_NE(out.find("l0: "), std::string::npos);
  EXPECT_NE(out.find("l1: "), std::string::npos);
  EXPECT_NE(out.find("l2: "), std::string::npos);
  EXPECT_NE(out.find("MDOF/s"), std::string::npos);
  EXPECT_NE(out.find("Validation: PASSED"), std::string::npos);
}

TEST(HpgmgDriver, ModeledDeterministic) {
  const MachineModel& rome = builtinMachines().get("rome-7742");
  HpgmgConfig config;
  const double a = runModeled(config, rome, 0.12, 60e-6, 16).foms[0].mdofPerSec;
  const double b = runModeled(config, rome, 0.12, 60e-6, 16).foms[0].mdofPerSec;
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace rebench::hpgmg
