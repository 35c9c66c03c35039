#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace pdht {

// Scaling a frexp fraction by 2 * kSubBuckets must be exact.
static_assert((Histogram::kSubBuckets & (Histogram::kSubBuckets - 1)) == 0,
              "kSubBuckets must be a power of two");

void Histogram::Add(double value) {
  assert(value >= 0.0 && std::isfinite(value) &&
         "Histogram records finite, non-negative samples");
  ++count_;
  sum_ += value;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  if (!(value > 0.0)) {
    ++zeros_;
    return;
  }
  // value = frac * 2^exp with frac in [0.5, 1): the sub-bucket is the
  // top log2(kSubBuckets) bits after the leading one, exact in binary.
  int exp = 0;
  const double frac = std::frexp(value, &exp);
  const int sub = static_cast<int>(frac * (2 * kSubBuckets)) - kSubBuckets;
  if (buckets_.empty()) {
    min_exp_ = exp;
  } else if (exp < min_exp_) {
    buckets_.insert(buckets_.begin(),
                    static_cast<size_t>(min_exp_ - exp) * kSubBuckets, 0);
    min_exp_ = exp;
  }
  const size_t index =
      static_cast<size_t>(exp - min_exp_) * kSubBuckets + sub;
  if (index >= buckets_.size()) {
    buckets_.resize((index / kSubBuckets + 1) * kSubBuckets, 0);
  }
  ++buckets_[index];
}

double Histogram::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Histogram::stddev() const { return std::sqrt(variance()); }

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = std::min(
      static_cast<uint64_t>(q * static_cast<double>(count_)), count_ - 1);
  uint64_t seen = zeros_;
  if (rank < seen) return 0.0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (rank < seen) {
      // Lower bound of sub-bucket i % kSubBuckets of [2^(exp-1), 2^exp):
      // the fraction (kSubBuckets + sub) / (2 * kSubBuckets) times 2^exp.
      const int exp = min_exp_ + static_cast<int>(i / kSubBuckets);
      const double frac = static_cast<double>(kSubBuckets + i % kSubBuckets) /
                          (2 * kSubBuckets);
      const double low = std::ldexp(frac, exp);
      return std::clamp(low, min_, max_);
    }
  }
  return max_;  // unreachable: the buckets hold count_ - zeros_ samples
}

void Histogram::Reset() { *this = Histogram(); }

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " p50=" << Quantile(0.5)
     << " p99=" << Quantile(0.99) << " max=" << max();
  return os.str();
}

}  // namespace pdht
