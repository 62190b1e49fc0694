// P² streaming quantile estimator (common/quantile.h), pinned on its
// exactness properties: order statistics below five samples, constants
// forever, and a bounded error on a benign ramp.

#include "common/quantile.h"

#include <gtest/gtest.h>

namespace dievent {
namespace {

TEST(P2Quantile, ExactOrderStatisticBelowFiveSamples) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.count(), 0);
  EXPECT_EQ(median.Estimate(), 0.0);
  median.Add(30.0);
  EXPECT_EQ(median.Estimate(), 30.0);
  median.Add(10.0);
  // Nearest rank: ceil(0.5 * 2) = 1st smallest.
  EXPECT_EQ(median.Estimate(), 10.0);
  median.Add(20.0);
  EXPECT_EQ(median.Estimate(), 20.0);  // 2nd of {10, 20, 30}
  median.Add(40.0);
  EXPECT_EQ(median.Estimate(), 20.0);  // 2nd of {10, 20, 30, 40}
  EXPECT_EQ(median.count(), 4);
}

TEST(P2Quantile, ConstantStreamIsEstimatedExactly) {
  P2Quantile p90(0.9);
  for (int i = 0; i < 1000; ++i) {
    p90.Add(0.02);
    EXPECT_EQ(p90.Estimate(), 0.02) << "sample " << i;
  }
  EXPECT_EQ(p90.count(), 1000);
}

TEST(P2Quantile, TracksTheTargetQuantileOfARamp) {
  // 1..1000 in order: P90 of the stream is 900; P² approximates it. The
  // classic accuracy expectation for this benign input is within a few
  // percent.
  P2Quantile p90(0.9);
  for (int i = 1; i <= 1000; ++i) p90.Add(static_cast<double>(i));
  EXPECT_NEAR(p90.Estimate(), 900.0, 30.0);
}

TEST(P2Quantile, ShiftedInputMovesTheEstimate) {
  P2Quantile p90(0.9);
  for (int i = 0; i < 50; ++i) p90.Add(0.02);
  for (int i = 0; i < 200; ++i) p90.Add(0.03);
  // After a long run at the new level the high percentile sits there.
  EXPECT_NEAR(p90.Estimate(), 0.03, 0.002);
}

}  // namespace
}  // namespace dievent
