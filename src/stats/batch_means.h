// Batch-means interval estimation.
//
// The paper's methodology: a warmup period is discarded, then the run is
// divided into a fixed number of equal-length batches (20 in the paper); the
// per-batch means are treated as (approximately) i.i.d. observations, and a
// Student-t confidence interval is formed on their mean.
#ifndef CCSIM_STATS_BATCH_MEANS_H_
#define CCSIM_STATS_BATCH_MEANS_H_

#include <vector>

#include "stats/student_t.h"
#include "stats/welford.h"

namespace ccsim {

/// The result of interval estimation on a set of batch observations.
struct IntervalEstimate {
  double mean = 0.0;
  double half_width = 0.0;  ///< Confidence-interval half width.
  int batches = 0;
  /// Lag-1 autocorrelation of the batch series. Batch means treats batches
  /// as independent; substantial positive correlation (≳ 0.3) means the
  /// batches are too short and the interval is optimistic ([Sarg76]-style
  /// methodology check). 0 with fewer than 3 batches.
  double lag1_autocorrelation = 0.0;

  double lower() const { return mean - half_width; }
  double upper() const { return mean + half_width; }
  /// Half width as a fraction of the mean (0 when the mean is 0).
  double relative_half_width() const {
    return mean != 0.0 ? half_width / mean : 0.0;
  }
  /// True when the batch series looks independent enough for the Student-t
  /// interval to be trusted.
  bool batches_look_independent() const { return lag1_autocorrelation < 0.3; }
  bool operator==(const IntervalEstimate&) const = default;
};

/// Lag-1 sample autocorrelation of a series; 0 for fewer than 3 points or a
/// constant series.
double Lag1Autocorrelation(const std::vector<double>& series);

/// Accumulates one scalar observation per batch and produces a Student-t
/// confidence interval across batches.
class BatchMeans {
 public:
  explicit BatchMeans(ConfidenceLevel level = ConfidenceLevel::k90)
      : level_(level) {}

  /// Records the mean (or total, for rate metrics) observed in one batch.
  void AddBatch(double value) {
    batch_values_.push_back(value);
    across_.Add(value);
  }

  int batch_count() const { return static_cast<int>(batch_values_.size()); }
  const std::vector<double>& batch_values() const { return batch_values_; }

  /// Interval across batch observations. Requires >= 2 batches for a
  /// non-degenerate half width (half width is 0 with fewer).
  IntervalEstimate Estimate() const;

 private:
  ConfidenceLevel level_;
  std::vector<double> batch_values_;
  Welford across_;
};

}  // namespace ccsim

#endif  // CCSIM_STATS_BATCH_MEANS_H_
