//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "support/Diag.h"
#include "support/MathExtras.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace omm;

TEST(MathExtras, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ull << 40));
  EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(MathExtras, AlignTo) {
  EXPECT_EQ(alignTo(0, 16), 0u);
  EXPECT_EQ(alignTo(1, 16), 16u);
  EXPECT_EQ(alignTo(16, 16), 16u);
  EXPECT_EQ(alignTo(17, 16), 32u);
  EXPECT_EQ(alignDown(17, 16), 16u);
  EXPECT_EQ(alignDown(15, 16), 0u);
}

TEST(MathExtras, IsAligned) {
  EXPECT_TRUE(isAligned(0, 16));
  EXPECT_TRUE(isAligned(32, 16));
  EXPECT_FALSE(isAligned(17, 16));
}

TEST(MathExtras, DivideCeil) {
  EXPECT_EQ(divideCeil(0, 8), 0u);
  EXPECT_EQ(divideCeil(1, 8), 1u);
  EXPECT_EQ(divideCeil(8, 8), 1u);
  EXPECT_EQ(divideCeil(9, 8), 2u);
}

TEST(MathExtras, Log2Floor) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(1024), 10u);
}

TEST(Random, Deterministic) {
  SplitMix64 A(42);
  SplitMix64 B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  SplitMix64 A(1);
  SplitMix64 B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Random, BoundsRespected) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(Rng.nextBelow(10), 10u);
    int64_t V = Rng.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
    float F = Rng.nextFloat();
    EXPECT_GE(F, 0.0f);
    EXPECT_LT(F, 1.0f);
  }
}

TEST(Random, FloatRange) {
  SplitMix64 Rng(9);
  for (int I = 0; I != 1000; ++I) {
    float F = Rng.nextFloatInRange(-2.0f, 3.0f);
    EXPECT_GE(F, -2.0f);
    EXPECT_LT(F, 3.0f);
  }
}

TEST(DiagSink, CollectsAndCounts) {
  DiagSink Sink;
  Sink.note("just saying");
  Sink.warning("be careful");
  Sink.error("it broke");
  Sink.error("it broke again");
  EXPECT_EQ(Sink.diags().size(), 4u);
  EXPECT_EQ(Sink.errorCount(), 2u);
  EXPECT_EQ(Sink.warningCount(), 1u);
  EXPECT_TRUE(Sink.containsMessage("broke again"));
  EXPECT_FALSE(Sink.containsMessage("segfault"));
  Sink.clear();
  EXPECT_EQ(Sink.diags().size(), 0u);
  EXPECT_EQ(Sink.errorCount(), 0u);
}

TEST(FatalError, Aborts) {
  EXPECT_DEATH(reportFatalError("boom"), "fatal error: boom");
}
