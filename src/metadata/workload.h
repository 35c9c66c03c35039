// Query workload generation.
//
// Queries are Zipf(alpha)-distributed over the key universe [Srip01].  The
// mapping from popularity rank to concrete key is a permutation; the
// adaptivity experiments (Section 5.2 / 6: "adjusts to changing query
// frequencies and distributions") change that permutation mid-run, which
// instantly re-ranks every key while keeping the aggregate distribution --
// exactly the "popularity of keys can change dramatically over time"
// stressor from the introduction.

#ifndef PDHT_METADATA_WORKLOAD_H_
#define PDHT_METADATA_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/zipf.h"

namespace pdht::metadata {

class QueryWorkload {
 public:
  /// Zipf(alpha) over `num_keys` keys (keys are dense ids 0..num_keys-1).
  QueryWorkload(uint64_t num_keys, double alpha, Rng rng);

  /// Samples the key of one query.
  uint64_t SampleKey();

  /// Samples the key of one query from a caller-provided stream.  Const:
  /// reads only the precomputed sampler tables and the current
  /// permutation, so concurrent calls with distinct Rngs are race-free
  /// (the round engine planner's per-peer key streams rely on this).
  uint64_t SampleKey(Rng& rng) const;

  /// Samples the number of queries in a round given `num_peers` peers each
  /// querying with frequency `f_qry` (binomial approximated by the exact
  /// per-peer Bernoulli when f_qry < 1, else deterministic + Bernoulli
  /// remainder).
  uint64_t SampleQueryCount(uint64_t num_peers, double f_qry);

  /// Rank (1-based popularity position) of `key` under the current
  /// permutation.
  uint64_t RankOf(uint64_t key) const;

  /// Key occupying popularity rank `rank` (1-based).
  uint64_t KeyAtRank(uint64_t rank) const;

  /// Probability mass of `key` under the current permutation.
  double ProbOf(uint64_t key) const;

  /// Re-draws the rank->key permutation (total popularity shift).
  void ShufflePopularity();

  /// Rotates popularity by `offset` ranks (gradual drift: every key moves
  /// `offset` positions in the ranking).
  void RotatePopularity(uint64_t offset);

  uint64_t num_keys() const { return num_keys_; }
  double alpha() const { return sampler_.alpha(); }

 private:
  uint64_t num_keys_;
  Rng rng_;
  ZipfSampler sampler_;
  std::vector<uint64_t> rank_to_key_;  // rank r (1-based) -> key id
  std::vector<uint64_t> key_to_rank_;  // key id -> rank (1-based)
};

}  // namespace pdht::metadata

#endif  // PDHT_METADATA_WORKLOAD_H_
