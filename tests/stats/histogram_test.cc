#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace pdht {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.variance(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.variance(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_DOUBLE_EQ(h.Median(), 42.0);
}

TEST(HistogramTest, MeanAndVariance) {
  Histogram h;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  // Sample variance of this classic data set: 32/7.
  EXPECT_NEAR(h.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(h.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(HistogramTest, MinMaxTrackExtremes) {
  Histogram h;
  h.Add(3.0);
  h.Add(0.25);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(HistogramTest, SumAccumulates) {
  Histogram h;
  h.Add(1.5);
  h.Add(2.5);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
}

TEST(HistogramTest, QuantilesOnUniformSequence) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Add(i);
  EXPECT_NEAR(h.Quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.0);
  EXPECT_NEAR(h.Quantile(1.0), 99.0, 1.0);
}

TEST(HistogramTest, QuantileAfterInterleavedAdds) {
  Histogram h;
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Median(), 5.0);
  h.Add(1.0);
  h.Add(9.0);
  EXPECT_DOUBLE_EQ(h.Median(), 5.0);
}

TEST(HistogramTest, ZeroHasItsOwnBucket) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Add(0.0);
  for (int i = 0; i < 10; ++i) h.Add(0.5);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.45), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.5);
  EXPECT_EQ(h.Quantile(1.0), 0.5);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Add(1.0);
  h.Add(2000.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
  h.Add(7.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(1.0);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
}

// --- Quantiles against exact nearest-rank answers -----------------------

/// The sample of 0-based rank floor(q * n) in `sorted`: the rank
/// Histogram::Quantile promises to answer.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

constexpr double kQs[] = {0.0,  0.01, 0.1,  0.25, 0.5,   0.75,
                          0.9,  0.95, 0.99, 0.999, 1.0};

/// Feeds `values` in the given order and checks every quantile in kQs
/// against the exact answer: never above it, and below it by at most
/// 1/kSubBuckets of it.
void ExpectWithinRelativeError(const std::vector<double>& values,
                               const char* what) {
  Histogram h;
  for (double v : values) h.Add(v);
  const std::vector<double> sorted = Sorted(values);
  for (double q : kQs) {
    const double exact = ExactQuantile(sorted, q);
    const double got = h.Quantile(q);
    EXPECT_LE(got, exact) << what << " q=" << q;
    EXPECT_LE(exact - got, exact / Histogram::kSubBuckets)
        << what << " q=" << q << " got " << got << " exact " << exact;
  }
}

/// Lookup RTTs under timeout costing: a link-delay body plus, for a
/// fraction of lookups, one or more whole timeout waits -- the bimodal
/// shape of the latency benches' +timeout rows.
std::vector<double> TimeoutTailStream(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = 40.0 + rng.Exponential(1.0 / 120.0);
    while (rng.Bernoulli(0.05)) x += 2000.0;
    v.push_back(x);
  }
  return v;
}

void ExpectAccurateSortedAndShuffled(std::vector<double> values,
                                     const char* what) {
  std::sort(values.begin(), values.end());
  ExpectWithinRelativeError(values, what);
  Rng rng(99);
  rng.Shuffle(values.data(), values.size());
  ExpectWithinRelativeError(values, what);
}

TEST(HistogramQuantileTest, UniformStreamWithinRelativeError) {
  Rng rng(12345);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.UniformDouble() * 100.0);
  ExpectAccurateSortedAndShuffled(values, "uniform");
}

TEST(HistogramQuantileTest, ExponentialStreamWithinRelativeError) {
  Rng rng(67890);
  std::vector<double> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.Exponential(0.1));
  ExpectAccurateSortedAndShuffled(values, "exponential");
}

TEST(HistogramQuantileTest, TimeoutTailStreamWithinRelativeError) {
  ExpectAccurateSortedAndShuffled(TimeoutTailStream(3, 20000),
                                  "timeout tail");
}

TEST(HistogramQuantileTest, IntegerSamplesBelow256AreExact) {
  // Hop counts: every integer below 2 * kSubBuckets owns its bucket.
  Rng rng(2024);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<double>(rng.UniformU64(256)));
  }
  Histogram h;
  for (double v : values) h.Add(v);
  const std::vector<double> sorted = Sorted(values);
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    EXPECT_EQ(h.Quantile(q), ExactQuantile(sorted, q)) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, QuantilesNeverFallAsQRises) {
  // The stream fed largest-first: the order on which independent
  // per-quantile P² sketches reported p95 3604 ms > p99 3320 ms.
  std::vector<double> values = TimeoutTailStream(3, 20000);
  std::sort(values.rbegin(), values.rend());
  Histogram h;
  for (double v : values) h.Add(v);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  double prev = h.Quantile(0.0);
  for (int i = 1; i <= 1000; ++i) {
    const double cur = h.Quantile(i / 1000.0);
    EXPECT_LE(prev, cur) << "q=" << i / 1000.0;
    prev = cur;
  }
}

}  // namespace
}  // namespace pdht
