#include "core/concretizer/concretizer.hpp"

#include <gtest/gtest.h>

#include "core/sysconfig/system_config.hpp"
#include "core/util/error.hpp"

namespace rebench {
namespace {

class ConcretizerFixture : public ::testing::Test {
 protected:
  ConcretizerFixture()
      : repo_(builtinRepository()), systems_(builtinSystems()) {}

  ConcretizationResult concretizeOn(std::string_view system,
                                    std::string_view specText,
                                    ConcretizerOptions opts = {}) {
    const SystemConfig& sys = systems_.get(system);
    Concretizer c(repo_, sys.environment, opts);
    return c.concretize(Spec::parse(specText));
  }

  PackageRepository repo_;
  SystemRegistry systems_;
};

TEST_F(ConcretizerFixture, PinsEverythingOnSimpleSpec) {
  const auto result = concretizeOn("archer2", "babelstream +omp");
  ASSERT_NE(result.root, nullptr);
  EXPECT_EQ(result.root->name, "babelstream");
  EXPECT_EQ(result.root->version.toString(), "4.0");  // newest
  EXPECT_EQ(result.root->compilerName, "gcc");
  EXPECT_EQ(result.root->compilerVersion.toString(), "11.2.0");
  EXPECT_EQ(std::get<bool>(result.root->variants.at("omp")), true);
}

TEST_F(ConcretizerFixture, DefaultVariantsApplied) {
  const auto result = concretizeOn("archer2", "babelstream");
  EXPECT_EQ(std::get<std::string>(result.root->variants.at("model")), "omp");
}

TEST_F(ConcretizerFixture, CompilerConstraintRespected) {
  const auto result =
      concretizeOn("isambard-macs", "babelstream%gcc@9.2.0 model=omp");
  EXPECT_EQ(result.root->compilerVersion.toString(), "9.2.0");
}

TEST_F(ConcretizerFixture, MissingCompilerVersionFails) {
  EXPECT_THROW(concretizeOn("archer2", "babelstream%gcc@13:"),
               ConcretizationError);
}

TEST_F(ConcretizerFixture, UnknownVariantFails) {
  EXPECT_THROW(concretizeOn("archer2", "babelstream +nonexistent"),
               ConcretizationError);
}

TEST_F(ConcretizerFixture, DisallowedVariantValueFails) {
  EXPECT_THROW(concretizeOn("archer2", "babelstream model=fortran"),
               ConcretizationError);
}

TEST_F(ConcretizerFixture, VirtualMpiResolvesToSystemPreference) {
  const auto result = concretizeOn("archer2", "hpgmg%gcc");
  const ConcreteSpec* mpi = result.root->find("cray-mpich");
  ASSERT_NE(mpi, nullptr);
  EXPECT_TRUE(mpi->external);
  EXPECT_EQ(mpi->version.toString(), "8.1.23");
}

TEST_F(ConcretizerFixture, ExternalsReusedUnderDefaultPolicy) {
  const auto result = concretizeOn("csd3", "hpgmg%gcc");
  const ConcreteSpec* python = result.root->find("python");
  ASSERT_NE(python, nullptr);
  EXPECT_TRUE(python->external);
  EXPECT_EQ(python->version.toString(), "3.8.2");
}

TEST_F(ConcretizerFixture, PreferNewestBuildsFromSource) {
  ConcretizerOptions opts;
  opts.reuse = ReusePolicy::kPreferNewest;
  const auto result = concretizeOn("csd3", "hpgmg%gcc", opts);
  const ConcreteSpec* python = result.root->find("python");
  ASSERT_NE(python, nullptr);
  EXPECT_FALSE(python->external);
  EXPECT_EQ(python->version.toString(), "3.11.4");  // repo newest
}

TEST_F(ConcretizerFixture, UserDependencyConstraintApplies) {
  const auto result = concretizeOn("csd3", "hpgmg%gcc ^python@:3.7");
  // No 3.7-or-older python external on CSD3, so it must be built: newest
  // repo version satisfying :3.7 is 3.7.5.
  const ConcreteSpec* python = result.root->find("python");
  ASSERT_NE(python, nullptr);
  EXPECT_EQ(python->version.toString(), "3.7.5");
  EXPECT_FALSE(python->external);
}

TEST_F(ConcretizerFixture, ConflictingUserConstraintFails) {
  EXPECT_THROW(
      concretizeOn("csd3", "hpgmg%gcc ^python@4: ^python@:3"),
      ConcretizationError);
}

TEST_F(ConcretizerFixture, ConditionalDependencyActivates) {
  const auto withCuda =
      concretizeOn("isambard-macs", "babelstream model=cuda");
  EXPECT_NE(withCuda.root->find("cuda"), nullptr);
  const auto withoutCuda =
      concretizeOn("isambard-macs", "babelstream model=omp");
  EXPECT_EQ(withoutCuda.root->find("cuda"), nullptr);
}

TEST_F(ConcretizerFixture, AnonymousSpecRejected) {
  const SystemConfig& sys = systems_.get("archer2");
  Concretizer c(repo_, sys.environment);
  EXPECT_THROW(c.concretize(Spec::parse("+omp")), ConcretizationError);
}

TEST_F(ConcretizerFixture, TraceRecordsDecisions) {
  const auto result = concretizeOn("archer2", "hpgmg%gcc");
  bool sawVirtual = false, sawExternal = false, sawBuild = false;
  for (const std::string& line : result.trace) {
    if (line.find("virtual 'mpi'") != std::string::npos) sawVirtual = true;
    if (line.find("reused external") != std::string::npos) sawExternal = true;
    if (line.find("build hpgmg") != std::string::npos) sawBuild = true;
  }
  EXPECT_TRUE(sawVirtual);
  EXPECT_TRUE(sawExternal);
  EXPECT_TRUE(sawBuild);
}

TEST_F(ConcretizerFixture, DeterministicAcrossRuns) {
  const auto a = concretizeOn("archer2", "hpgmg%gcc");
  const auto b = concretizeOn("archer2", "hpgmg%gcc");
  EXPECT_EQ(a.root->dagHash(), b.root->dagHash());
}

TEST_F(ConcretizerFixture, DeclaredConflictsEnforced) {
  // §3.1's footnote became a recipe conflict: OpenCL + gcc >= 10.
  EXPECT_THROW(concretizeOn("csd3", "babelstream model=ocl"),
               ConcretizationError);  // csd3's gcc is 11.2.0
  // With gcc 9.2.0 the same spec concretizes fine.
  EXPECT_NO_THROW(concretizeOn("isambard-macs", "babelstream model=ocl"));
  // The error message carries the recipe's reason.
  try {
    concretizeOn("csd3", "babelstream model=ocl");
    FAIL() << "expected ConcretizationError";
  } catch (const ConcretizationError& e) {
    EXPECT_NE(std::string(e.what()).find("OpenCL build breaks"),
              std::string::npos);
  }
}

TEST_F(ConcretizerFixture, ConflictOnlyFiresWhenConditionHolds) {
  // model=omp is unaffected by the OpenCL conflict even with gcc 11.
  EXPECT_NO_THROW(concretizeOn("csd3", "babelstream model=omp"));
  // intel-tbb conflicts on aarch64 only.
  EXPECT_THROW(concretizeOn("csd3", "intel-tbb arch=aarch64"),
               ConcretizationError);
  EXPECT_NO_THROW(concretizeOn("csd3", "intel-tbb arch=x86_64"));
}

// --- The Table 3 reproduction, as unit assertions ------------------------

struct Table3Row {
  const char* system;
  const char* gcc;
  const char* python;
  const char* mpiPackage;
  const char* mpiVersion;
};

// Without a printer, gtest names each case by the raw bytes of the row, and
// those are string addresses that move with ASLR on every test discovery.
void PrintTo(const Table3Row& row, std::ostream* os) {
  *os << '"' << row.system << '"';
}

class Table3Test : public ConcretizerFixture,
                   public ::testing::WithParamInterface<Table3Row> {};

TEST_P(Table3Test, ConcretizedDependenciesMatchPaper) {
  const Table3Row& row = GetParam();
  const auto result = concretizeOn(row.system, "hpgmg%gcc");
  EXPECT_EQ(result.root->compilerVersion.toString(), row.gcc) << row.system;
  const ConcreteSpec* python = result.root->find("python");
  ASSERT_NE(python, nullptr);
  EXPECT_EQ(python->version.toString(), row.python) << row.system;
  const ConcreteSpec* mpi = result.root->find(row.mpiPackage);
  ASSERT_NE(mpi, nullptr) << row.system;
  EXPECT_EQ(mpi->version.toString(), row.mpiVersion) << row.system;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, Table3Test,
    ::testing::Values(
        Table3Row{"archer2", "11.2.0", "3.10.12", "cray-mpich", "8.1.23"},
        Table3Row{"cosma8", "11.1.0", "2.7.15", "mvapich", "2.3.6"},
        Table3Row{"csd3", "11.2.0", "3.8.2", "openmpi", "4.0.4"},
        Table3Row{"isambard-macs", "9.2.0", "3.7.5", "openmpi", "4.0.3"}),
    [](const ::testing::TestParamInfo<Table3Row>& paramInfo) {
      std::string name = paramInfo.param.system;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rebench
