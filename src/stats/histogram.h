// Streaming histogram / summary statistics.
//
// Used to validate protocol behaviour against the closed-form model, e.g.
// the distribution of Chord lookup hop counts against cSIndx =
// 0.5*log2(numActivePeers) (Eq. 7), or random-walk message counts against
// cSUnstr (Eq. 6), and to report lookup latency quantiles.

#ifndef PDHT_STATS_HISTOGRAM_H_
#define PDHT_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pdht {

/// Accumulates non-negative scalar observations: exact count/sum/min/max,
/// Welford mean/variance, and quantiles from a log-linear bucket sketch in
/// the style of HdrHistogram and DDSketch (Masson, Rim & Lee, VLDB 2019).
///
/// Each power of two [2^(e-1), 2^e) is split into kSubBuckets equal
/// sub-buckets holding integer counts, plus one bucket for zero.  Buckets
/// are allocated lazily over the exponent range actually seen, so memory
/// is O(kSubBuckets * log2(max/min)) however long the stream is, and the
/// counts do not depend on arrival order.
class Histogram {
 public:
  /// Sub-buckets per power of two: quantiles carry at most 1/128 relative
  /// error, and every integer below 2 * kSubBuckets has its own bucket.
  static constexpr int kSubBuckets = 128;

  /// `value` must be finite and non-negative (hop counts, delays, costs).
  void Add(double value);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (0 for fewer than two observations).
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  /// Nearest-rank quantile, q in [0, 1]: the lower bound of the bucket
  /// holding the sample of 0-based rank floor(q * count), clamped to
  /// [min, max].  Never falls as q rises; exact for integer samples below
  /// 256, otherwise within 1/kSubBuckets below the true sample.  0 when
  /// empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  void Reset();

  /// One-line summary: "n=... mean=... sd=... min=... p50=... p99=... max=..."
  std::string Summary() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
  uint64_t zeros_ = 0;  ///< observations equal to 0
  /// std::frexp exponent of buckets_[0..kSubBuckets); each further
  /// kSubBuckets counts cover the next power of two.
  int min_exp_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace pdht

#endif  // PDHT_STATS_HISTOGRAM_H_
