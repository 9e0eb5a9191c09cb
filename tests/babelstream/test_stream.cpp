#include "babelstream/stream.hpp"

#include <gtest/gtest.h>

#include "babelstream/backend.hpp"

namespace rebench::babelstream {
namespace {

TEST(KernelMeta, NamesAndTraffic) {
  EXPECT_EQ(kernelName(Kernel::kTriad), "Triad");
  EXPECT_EQ(kernelName(Kernel::kDot), "Dot");
  // Triad streams two reads + one write of doubles.
  EXPECT_DOUBLE_EQ(kernelBytesPerElement(Kernel::kTriad), 24.0);
  EXPECT_DOUBLE_EQ(kernelBytesPerElement(Kernel::kCopy), 16.0);
  EXPECT_DOUBLE_EQ(kernelFlopsPerElement(Kernel::kCopy), 0.0);
  EXPECT_DOUBLE_EQ(kernelFlopsPerElement(Kernel::kTriad), 2.0);
}

TEST(GoldValues, MatchesManualIteration) {
  GoldValues gold;
  gold.stepIteration();
  // copy: c=0.1; mul: b=0.04; add: c=0.14; triad: a=0.04+0.4*0.14=0.096
  EXPECT_DOUBLE_EQ(gold.c, 0.14);
  EXPECT_DOUBLE_EQ(gold.b, 0.04);
  EXPECT_DOUBLE_EQ(gold.a, 0.096);
}

TEST(Validation, FreshArraysFailForNonzeroIterations) {
  const StreamArrays arrays(128);
  EXPECT_FALSE(validate(arrays, 1, 0.0).passed);
}

TEST(Validation, SerialBackendPassesAfterAnyIterationCount) {
  for (int ntimes : {1, 3, 10}) {
    StreamArrays arrays(256);
    auto backend = makeNativeBackend("serial");
    double dot = 0.0;
    for (int i = 0; i < ntimes; ++i) {
      backend->iteration(arrays);
      dot = backend->dot(arrays);
    }
    const ValidationResult result = validate(arrays, ntimes, dot);
    EXPECT_TRUE(result.passed) << "ntimes=" << ntimes
                               << " errA=" << result.errA;
  }
}

TEST(Validation, CorruptedArrayDetected) {
  StreamArrays arrays(256);
  auto backend = makeNativeBackend("serial");
  backend->iteration(arrays);
  const double dot = backend->dot(arrays);
  arrays.c[100] += 0.5;  // inject a fault
  EXPECT_FALSE(validate(arrays, 1, dot).passed);
}

TEST(Validation, WrongDotDetected) {
  StreamArrays arrays(256);
  auto backend = makeNativeBackend("serial");
  backend->iteration(arrays);
  const double dot = backend->dot(arrays);
  EXPECT_FALSE(validate(arrays, 1, dot * 1.01).passed);
  EXPECT_TRUE(validate(arrays, 1, dot).passed);
}

class BackendCorrectness : public ::testing::TestWithParam<std::string> {};

TEST_P(BackendCorrectness, ProducesValidatedResults) {
  auto backend = makeNativeBackend(GetParam());
  ASSERT_NE(backend, nullptr) << GetParam();
  EXPECT_EQ(backend->name(), GetParam());
  StreamArrays arrays(1000);  // non-power-of-two exercises chunk edges
  double dot = 0.0;
  for (int i = 0; i < 5; ++i) {
    backend->iteration(arrays);
    dot = backend->dot(arrays);
  }
  const ValidationResult result = validate(arrays, 5, dot);
  EXPECT_TRUE(result.passed)
      << "errA=" << result.errA << " errB=" << result.errB
      << " errC=" << result.errC << " errDot=" << result.errDot;
}

INSTANTIATE_TEST_SUITE_P(AllNativeBackends, BackendCorrectness,
                         ::testing::ValuesIn(nativeBackendIds()),
                         [](const auto& paramInfo) {
                           std::string name = paramInfo.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(BackendRegistry, GpuModelsHaveNoNativeBackend) {
  EXPECT_EQ(makeNativeBackend("cuda"), nullptr);
  EXPECT_EQ(makeNativeBackend("ocl"), nullptr);
  EXPECT_EQ(makeNativeBackend("sycl"), nullptr);
  EXPECT_EQ(makeNativeBackend("bogus"), nullptr);
}

TEST(BackendRegistry, AllBackendsAgreeOnDot) {
  StreamArrays reference(512);
  auto serial = makeNativeBackend("serial");
  serial->iteration(reference);
  const double expected = serial->dot(reference);

  for (const std::string& id : nativeBackendIds()) {
    StreamArrays arrays(512);
    auto backend = makeNativeBackend(id);
    backend->iteration(arrays);
    EXPECT_NEAR(backend->dot(arrays), expected, 1e-9) << id;
  }
}

}  // namespace
}  // namespace rebench::babelstream
