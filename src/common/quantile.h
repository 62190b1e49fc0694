/// \file quantile.h
/// Streaming quantile estimation via the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers track the min, the target quantile, the max,
/// and two intermediate quantiles, adjusted per observation with a
/// piecewise-parabolic fit. O(1) memory, O(1) per sample — no stored
/// sample window — which is what lets the fleet load controller track
/// the frame-commit latency percentile, fleet-wide and per tenant, for
/// as long as the fleet runs.
///
/// Exactness properties the tests rely on: below five samples the
/// estimate is the exact nearest-rank order statistic of the samples seen;
/// for a constant input stream the estimate equals that constant exactly
/// (all markers coincide, and both the parabolic and linear adjustments
/// preserve equality).

#ifndef DIEVENT_COMMON_QUANTILE_H_
#define DIEVENT_COMMON_QUANTILE_H_

namespace dievent {

/// P² estimator for a single quantile. Not thread-safe; confine to one
/// thread or guard externally.
class P2Quantile {
 public:
  /// `quantile` in (0, 1), e.g. 0.9 for P90.
  explicit P2Quantile(double quantile);

  void Add(double x);

  /// Samples observed so far.
  long long count() const { return count_; }

  /// Current estimate of the target quantile. Returns 0 before any
  /// sample; exact order statistic below five samples.
  double Estimate() const;

 private:
  double Parabolic(int i, double d) const;
  double Linear(int i, int d) const;

  const double quantile_;
  long long count_ = 0;
  // Marker heights, actual positions (1-based), and desired positions.
  double q_[5] = {0, 0, 0, 0, 0};
  double n_[5] = {0, 0, 0, 0, 0};
  double desired_[5] = {0, 0, 0, 0, 0};
  double desired_inc_[5] = {0, 0, 0, 0, 0};
};

}  // namespace dievent

#endif  // DIEVENT_COMMON_QUANTILE_H_
