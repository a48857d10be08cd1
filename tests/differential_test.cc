// Randomized differential-testing harness for the envelope lower-bound
// fast path. Two claims are exercised with seeded random cases:
//
//  1. The bound chain LB_Keogh <= LB_Improved <= D_tw holds for every
//     (query, candidate, band) — the exactness precondition of the whole
//     cascade — and the prefix-abandoning exact kernel agrees with the
//     plain one on membership and distance.
//  2. The fast-path searches (envelope cascade on, the default) return
//     byte-identical Match sets to the unfiltered engine for range and
//     k-NN queries, serial and multi-threaded, across all index kinds and
//     for the SeqScan baseline.
//  3. Disk-backed searches are byte-identical to a serial single-mutex
//     baseline across every buffer-pool configuration (eviction policy x
//     shard count x thread count) for all three index kinds.
//  4. The multivariate grid index (the fourth instantiation of the shared
//     search driver) is byte-identical to brute-force multivariate DTW
//     across thread counts, range and k-NN, bands, and with the
//     per-dimension envelope cascade on or off.
//  5. Every SIMD backend this machine can run (dtw::simd) returns
//     byte-identical match sets to the scalar backend across index kinds,
//     thread counts, and the SeqScan baseline — and identical serial
//     search stats, so the cascade prunes in exactly the same places.
//  7. The mmap zero-copy read path serves byte-identical match sets to
//     the buffered buffer-pool path over the same v2 bundle — across
//     index kinds, thread counts, range and k-NN, monolithic and tiered —
//     and the format gate holds: v1 bundles still open buffered but the
//     mmap path refuses them with Status::Corruption.
//  8. The node-summary screen (subtree hulls tested before descending an
//     edge) is byte-identical to searches with the screen disabled at
//     approx_factor 1.0 — across index kinds, memory/disk/tiered,
//     thread counts, range and k-NN, and bands — and any approx_factor
//     greater than 1 returns a subset of the exact answer with exact
//     (unperturbed) distances.
//
// Sequences mix three adversarial shapes: Gaussian random walks, spike
// trains (flat with rare large jumps — stresses the envelope edges), and
// constant runs (stresses sparse-suffix recovery and zero-width
// envelopes). Lengths span 1..64. Everything is seeded: a failure report
// names the case's seed, so any case replays deterministically.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index.h"
#include "core/result_collector.h"
#include "core/seq_scan.h"
#include "core/tier.h"
#include "core/tiered_index.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"
#include "dtw/warping_table.h"
#include "multivariate/multi_index.h"
#include "seqdb/sequence_database.h"
#include "storage/buffer_manager.h"
#include "storage/mmap_file.h"
#include "suffixtree/disk_tree.h"

namespace tswarp {
namespace {

using core::Index;
using core::IndexKind;
using core::IndexOptions;
using core::Match;
using core::QueryOptions;
using core::SeqScanOptions;

/// One random sequence of length `n`, shape selected by `shape % 3`.
std::vector<Value> RandomShape(Rng* rng, std::size_t n, std::uint64_t shape) {
  std::vector<Value> v;
  v.reserve(n);
  switch (shape % 3) {
    case 0: {  // Gaussian random walk.
      Value x = rng->Uniform(-10, 10);
      for (std::size_t i = 0; i < n; ++i) {
        x += rng->Gaussian(0, 1);
        v.push_back(x);
      }
      break;
    }
    case 1: {  // Spike train: flat baseline, rare large excursions.
      const Value base = rng->Uniform(-5, 5);
      for (std::size_t i = 0; i < n; ++i) {
        v.push_back(rng->Coin(0.1) ? base + rng->Uniform(-50, 50)
                                   : base + rng->Gaussian(0, 0.1));
      }
      break;
    }
    default: {  // Piecewise-constant runs.
      Value level = rng->Uniform(-8, 8);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng->Coin(0.25)) level = rng->Uniform(-8, 8);
        v.push_back(level);
      }
      break;
    }
  }
  return v;
}

/// Byte-level equality: same order, same (seq, start, len), and exactly
/// the same distance doubles — the fast path must not perturb a single
/// bit of the output.
void ExpectByteIdentical(const std::vector<Match>& expected,
                         const std::vector<Match>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].seq, actual[i].seq) << context << " at " << i;
    EXPECT_EQ(expected[i].start, actual[i].start) << context << " at " << i;
    EXPECT_EQ(expected[i].len, actual[i].len) << context << " at " << i;
    EXPECT_EQ(expected[i].distance, actual[i].distance)
        << context << " at " << i;
  }
}

// ---------------------------------------------------------------------------
// Claim 1: the bound chain, >= 1000 seeded random cases.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, BoundChainHoldsOnRandomCases) {
  constexpr int kCases = 1200;
  dtw::EnvelopeScratch scratch;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    Rng rng(seed);
    const std::size_t qlen =
        static_cast<std::size_t>(rng.UniformInt(1, 64));
    const std::size_t slen =
        static_cast<std::size_t>(rng.UniformInt(1, 64));
    const std::vector<Value> q = RandomShape(&rng, qlen, seed);
    const std::vector<Value> s = RandomShape(&rng, slen, seed / 3);
    constexpr Pos kBands[] = {0, 1, 3, 8, 64};
    const Pos band = kBands[static_cast<std::size_t>(rng.UniformInt(0, 4))];

    const dtw::QueryEnvelope env(q, band);
    const Value keogh = dtw::LbKeogh(env, s);
    const Value improved = dtw::LbImproved(env, q, s, kInfinity, &scratch);
    const Value exact = band == 0 ? dtw::DtwDistance(q, s)
                                  : dtw::DtwDistanceBanded(q, s, band);
    ASSERT_LE(keogh, improved + 1e-9)
        << "LB_Keogh > LB_Improved, seed=" << seed << " band=" << band;
    ASSERT_LE(improved, exact + 1e-9)
        << "LB_Improved > D_tw, seed=" << seed << " band=" << band
        << " |Q|=" << qlen << " |S|=" << slen;

    // The per-start scan under the running bound must agree with the
    // plain kernel on the full-length candidate's membership and, when
    // inside, on its exact distance.
    const Value eps = rng.Uniform(0, 2) * (exact == kInfinity
                                               ? 100.0
                                               : exact + 0.25);
    dtw::ScanTable table(q, band);
    Value got = -1.0;
    core::SearchStats stats;
    core::ScanStart(
        core::ValueSuffix(q, s, &env), &table, /*prune=*/true,
        [eps] { return eps; },
        [&](Pos len, Value d) {
          if (len == static_cast<Pos>(slen)) got = d;
        },
        &stats);
    const bool in = got >= 0.0;
    ASSERT_EQ(in, exact <= eps) << "seed=" << seed << " band=" << band;
    if (in) {
      ASSERT_EQ(got, exact) << "seed=" << seed << " band=" << band;
    }
  }
}

// ---------------------------------------------------------------------------
// Claim 2: fast-path searches are byte-identical to the unfiltered engine.
// ---------------------------------------------------------------------------

seqdb::SequenceDatabase RandomDb(std::uint64_t seed) {
  Rng rng(seed);
  seqdb::SequenceDatabase db;
  const int num_sequences = static_cast<int>(rng.UniformInt(6, 12));
  for (int i = 0; i < num_sequences; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(1, 40));
    db.Add(RandomShape(&rng, n, seed + static_cast<std::uint64_t>(i)));
  }
  return db;
}

TEST(DifferentialTest, FastPathSearchByteIdenticalAcrossEngines) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(seed);
    Rng rng(1000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 10)), seed);
    const Value eps = rng.Uniform(0.5, 12.0);

    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 8;
      auto index = Index::Build(&db, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();

      QueryOptions slow;
      slow.use_lower_bound = false;
      const std::vector<Match> reference = index->Search(q, eps, slow);
      const std::vector<Match> knn_reference = index->SearchKnn(q, 7, slow);
      for (const std::size_t threads : {0u, 2u, 3u}) {
        QueryOptions fast;
        fast.num_threads = threads;
        const std::string ctx = std::string(core::IndexKindToString(kind)) +
                                " seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, fast),
                            "range " + ctx);
        ExpectByteIdentical(knn_reference, index->SearchKnn(q, 7, fast),
                            "knn " + ctx);
      }
    }
  }
}

TEST(DifferentialTest, FastPathBandedSearchByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(50 + seed);
    Rng rng(2000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(3, 10)), seed);
    const Value eps = rng.Uniform(0.5, 8.0);
    // Banded searches need a dense index (sparse recovery is unsound
    // under a band).
    IndexOptions options;
    options.kind = IndexKind::kCategorized;
    options.num_categories = 8;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    for (const Pos band : {1u, 2u, 4u}) {
      QueryOptions slow;
      slow.band = band;
      slow.use_lower_bound = false;
      QueryOptions fast;
      fast.band = band;
      ExpectByteIdentical(index->Search(q, eps, slow),
                          index->Search(q, eps, fast),
                          "banded range seed=" + std::to_string(seed) +
                              " band=" + std::to_string(band));
      ExpectByteIdentical(index->SearchKnn(q, 5, slow),
                          index->SearchKnn(q, 5, fast),
                          "banded knn seed=" + std::to_string(seed) +
                              " band=" + std::to_string(band));
    }
  }
}

TEST(DifferentialTest, DiskBackedSearchByteIdenticalAcrossPoolConfigs) {
  // Acceptance gate for the sharded buffer manager: for every index kind,
  // disk-backed searches through any (eviction, shards, threads) pool
  // configuration return byte-identical matches to a serial search through
  // the single-mutex (1-shard) baseline pool. The pool is kept tiny so
  // every configuration actually evicts and re-reads pages mid-search.
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    const std::string kind_name = core::IndexKindToString(kind);
    const seqdb::SequenceDatabase db = RandomDb(
        200 + static_cast<std::uint64_t>(kind));
    Rng rng(4000 + static_cast<std::uint64_t>(kind));
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 8)), 1);
    const Value eps = rng.Uniform(1.0, 10.0);

    IndexOptions build;
    build.kind = kind;
    build.num_categories = 8;
    build.disk_path = testing::TempDir() + "/diff_disk_" + kind_name;
    build.disk_batch_sequences = 4;
    // Pool configurations are a buffered-path concept: the mmap path has
    // no pool at all (claim 7 covers it).
    build.disk_io_mode = storage::IoMode::kBuffered;
    build.disk_pool_pages = 2;
    build.disk_pool_shards = 1;  // Single-mutex baseline.
    auto baseline = Index::Build(&db, build);
    ASSERT_TRUE(baseline.ok()) << kind_name << ": "
                               << baseline.status().ToString();
    const std::vector<Match> reference = baseline->Search(q, eps);
    const std::vector<Match> knn_reference = baseline->SearchKnn(q, 7);

    for (const auto eviction : {storage::EvictionPolicyKind::kLru,
                                storage::EvictionPolicyKind::kClock}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        IndexOptions reopen = build;
        reopen.disk_pool_shards = shards;
        reopen.disk_eviction = eviction;
        reopen.disk_readahead_pages = 2;
        auto index = Index::Open(&db, reopen);
        ASSERT_TRUE(index.ok()) << kind_name << ": "
                                << index.status().ToString();
        for (const std::size_t threads : {0u, 4u}) {
          QueryOptions query_options;
          query_options.num_threads = threads;
          const std::string ctx =
              kind_name + " " +
              storage::EvictionPolicyKindToString(eviction) + " shards=" +
              std::to_string(shards) + " threads=" + std::to_string(threads);
          ExpectByteIdentical(reference, index->Search(q, eps, query_options),
                              "disk range " + ctx);
          ExpectByteIdentical(knn_reference,
                              index->SearchKnn(q, 7, query_options),
                              "disk knn " + ctx);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Claim 4: the multivariate grid index runs on the same search driver and
// is byte-identical to brute-force multivariate DTW — across thread
// counts, range and k-NN, and with the envelope cascade on or off.
// ---------------------------------------------------------------------------

/// Random multivariate database: `dim` interleaved RandomShape streams per
/// sequence, flattened element-major.
mv::MultiSequenceDatabase RandomMultiDb(std::uint64_t seed,
                                        std::size_t dim) {
  Rng rng(seed);
  mv::MultiSequenceDatabase db(dim);
  const int num_sequences = static_cast<int>(rng.UniformInt(5, 9));
  for (int i = 0; i < num_sequences; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(2, 24));
    std::vector<std::vector<Value>> per_dim;
    for (std::size_t d = 0; d < dim; ++d) {
      per_dim.push_back(RandomShape(&rng, n, seed + d));
    }
    std::vector<Value> flat;
    flat.reserve(n * dim);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t d = 0; d < dim; ++d) flat.push_back(per_dim[d][p]);
    }
    db.Add(std::move(flat));
  }
  return db;
}

std::vector<Value> RandomMultiQuery(Rng* rng, std::size_t dim,
                                    std::size_t len, std::uint64_t shape) {
  std::vector<std::vector<Value>> per_dim;
  for (std::size_t d = 0; d < dim; ++d) {
    per_dim.push_back(RandomShape(rng, len, shape + d));
  }
  std::vector<Value> flat;
  for (std::size_t p = 0; p < len; ++p) {
    for (std::size_t d = 0; d < dim; ++d) flat.push_back(per_dim[d][p]);
  }
  return flat;
}

TEST(DifferentialTest, MultivariateDriverByteIdenticalAcrossEngines) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t dim = 1 + seed % 3;
    const mv::MultiSequenceDatabase db = RandomMultiDb(500 + seed, dim);
    Rng rng(5000 + seed);
    const std::size_t qlen =
        static_cast<std::size_t>(rng.UniformInt(2, 6));
    const std::vector<Value> q = RandomMultiQuery(&rng, dim, qlen, seed);
    const Value eps = rng.Uniform(0.5, 15.0) * static_cast<Value>(dim);

    // Ground truth: brute-force multivariate DTW over every subsequence.
    const std::vector<Match> truth = mv::MultiSeqScan(db, q, qlen, eps);

    for (const bool sparse : {true, false}) {
      mv::MultiIndexOptions build;
      build.sparse = sparse;
      build.categories_per_dim = 4;
      auto index = mv::MultiIndex::Build(&db, build);
      ASSERT_TRUE(index.ok()) << index.status().ToString();

      QueryOptions slow;
      slow.use_lower_bound = false;
      const std::vector<Match> reference = index->Search(q, qlen, eps, slow);
      const std::vector<Match> knn_reference =
          index->SearchKnn(q, qlen, 6, slow);
      ExpectByteIdentical(truth, reference,
                          "mv truth seed=" + std::to_string(seed) +
                              " sparse=" + std::to_string(sparse));

      for (const std::size_t threads : {0u, 2u, 3u}) {
        for (const bool lb : {true, false}) {
          QueryOptions fast;
          fast.num_threads = threads;
          fast.use_lower_bound = lb;
          const std::string ctx = "mv seed=" + std::to_string(seed) +
                                  " dim=" + std::to_string(dim) +
                                  " sparse=" + std::to_string(sparse) +
                                  " threads=" + std::to_string(threads) +
                                  " lb=" + std::to_string(lb);
          ExpectByteIdentical(reference, index->Search(q, qlen, eps, fast),
                              "range " + ctx);
          ExpectByteIdentical(knn_reference,
                              index->SearchKnn(q, qlen, 6, fast),
                              "knn " + ctx);
        }
      }
    }
  }
}

TEST(DifferentialTest, MultivariateKnnMatchesBruteForce) {
  // The k-NN heap keeps the k best matches under the total order
  // (distance, seq, start, len); selecting the same top k from an
  // exhaustive enumeration must reproduce it byte for byte.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t dim = 1 + seed % 3;
    const mv::MultiSequenceDatabase db = RandomMultiDb(600 + seed, dim);
    Rng rng(6000 + seed);
    const std::size_t qlen =
        static_cast<std::size_t>(rng.UniformInt(2, 5));
    const std::vector<Value> q = RandomMultiQuery(&rng, dim, qlen, seed);
    std::vector<Match> all = mv::MultiSeqScan(db, q, qlen, kInfinity);
    std::sort(all.begin(), all.end(), core::KnnMatchLess);
    const std::size_t k = 5;
    if (all.size() > k) all.resize(k);

    mv::MultiIndexOptions build;
    build.categories_per_dim = 4;
    auto index = mv::MultiIndex::Build(&db, build);
    ASSERT_TRUE(index.ok());
    for (const std::size_t threads : {0u, 3u}) {
      QueryOptions query_options;
      query_options.num_threads = threads;
      ExpectByteIdentical(all,
                          index->SearchKnn(q, qlen, k, query_options),
                          "mv knn brute seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads));
    }
  }
}

TEST(DifferentialTest, MultivariateBandedByteIdentical) {
  // Bands need a dense grid index (sparse recovery is unsound banded);
  // the banded driver must agree with the banded brute-force scan.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t dim = 1 + seed % 2;
    const mv::MultiSequenceDatabase db = RandomMultiDb(700 + seed, dim);
    Rng rng(7000 + seed);
    const std::size_t qlen =
        static_cast<std::size_t>(rng.UniformInt(3, 6));
    const std::vector<Value> q = RandomMultiQuery(&rng, dim, qlen, seed);
    const Value eps = rng.Uniform(0.5, 12.0) * static_cast<Value>(dim);
    mv::MultiIndexOptions build;
    build.sparse = false;
    build.categories_per_dim = 4;
    auto index = mv::MultiIndex::Build(&db, build);
    ASSERT_TRUE(index.ok());
    for (const Pos band : {1u, 2u}) {
      const std::vector<Match> truth =
          mv::MultiSeqScan(db, q, qlen, eps, band);
      for (const std::size_t threads : {0u, 2u}) {
        for (const bool lb : {true, false}) {
          QueryOptions query_options;
          query_options.band = band;
          query_options.num_threads = threads;
          query_options.use_lower_bound = lb;
          ExpectByteIdentical(
              truth, index->Search(q, qlen, eps, query_options),
              "mv banded seed=" + std::to_string(seed) + " band=" +
                  std::to_string(band) + " threads=" +
                  std::to_string(threads) + " lb=" + std::to_string(lb));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Claim 5: SIMD backends are interchangeable — same matches, same stats.
// ---------------------------------------------------------------------------

void ExpectStatsEqual(const core::SearchStats& a, const core::SearchStats& b,
                      const std::string& context) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << context;
  EXPECT_EQ(a.rows_pushed, b.rows_pushed) << context;
  EXPECT_EQ(a.unshared_rows, b.unshared_rows) << context;
  EXPECT_EQ(a.cells_computed, b.cells_computed) << context;
  EXPECT_EQ(a.branches_pruned, b.branches_pruned) << context;
  EXPECT_EQ(a.candidates, b.candidates) << context;
  EXPECT_EQ(a.endpoint_rejections, b.endpoint_rejections) << context;
  EXPECT_EQ(a.lb_invocations, b.lb_invocations) << context;
  EXPECT_EQ(a.lb_pruned, b.lb_pruned) << context;
  EXPECT_EQ(a.exact_dtw_calls, b.exact_dtw_calls) << context;
  EXPECT_EQ(a.answers, b.answers) << context;
}

TEST(DifferentialTest, SimdBackendsByteIdenticalAcrossEnginesAndThreads) {
  const std::string saved = dtw::simd::ActiveBackend();
  const std::vector<std::string> backends = dtw::simd::AvailableBackends();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(300 + seed);
    Rng rng(8000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 10)), seed);
    const Value eps = rng.Uniform(0.5, 12.0);

    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 8;
      auto index = Index::Build(&db, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();

      // Scalar reference: serial fast path, with stats.
      ASSERT_TRUE(dtw::simd::SetBackend("scalar"));
      core::SearchStats ref_stats;
      const std::vector<Match> reference =
          index->Search(q, eps, {}, &ref_stats);
      core::SearchStats ref_knn_stats;
      const std::vector<Match> knn_reference =
          index->SearchKnn(q, 7, {}, &ref_knn_stats);
      const std::vector<Match> scan_reference = core::SeqScan(db, q, eps, {});

      for (const std::string& backend : backends) {
        ASSERT_TRUE(dtw::simd::SetBackend(backend));
        const std::string ctx = std::string(core::IndexKindToString(kind)) +
                                " seed=" + std::to_string(seed) +
                                " backend=" + backend;
        core::SearchStats stats;
        ExpectByteIdentical(reference, index->Search(q, eps, {}, &stats),
                            "range " + ctx);
        ExpectStatsEqual(ref_stats, stats, "range stats " + ctx);
        core::SearchStats knn_stats;
        ExpectByteIdentical(knn_reference,
                            index->SearchKnn(q, 7, {}, &knn_stats),
                            "knn " + ctx);
        ExpectStatsEqual(ref_knn_stats, knn_stats, "knn stats " + ctx);
        ExpectByteIdentical(scan_reference, core::SeqScan(db, q, eps, {}),
                            "seqscan " + ctx);
        for (const std::size_t threads : {2u, 3u}) {
          QueryOptions parallel;
          parallel.num_threads = threads;
          ExpectByteIdentical(
              reference, index->Search(q, eps, parallel),
              "range " + ctx + " threads=" + std::to_string(threads));
          ExpectByteIdentical(
              knn_reference, index->SearchKnn(q, 7, parallel),
              "knn " + ctx + " threads=" + std::to_string(threads));
        }
      }
    }
  }
  ASSERT_TRUE(dtw::simd::SetBackend(saved));
}

TEST(DifferentialTest, SeqScanCascadeByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(100 + seed);
    Rng rng(3000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(1, 12)), seed);
    const Value eps = rng.Uniform(0.0, 10.0);
    for (const Pos band : {0u, 2u}) {
      SeqScanOptions slow;
      slow.band = band;
      slow.use_lower_bound = false;
      SeqScanOptions fast;
      fast.band = band;
      ExpectByteIdentical(core::SeqScan(db, q, eps, slow),
                          core::SeqScan(db, q, eps, fast),
                          "seqscan seed=" + std::to_string(seed) +
                              " band=" + std::to_string(band));
    }
  }
}

TEST(DifferentialTest, WorkStealingExecutorByteIdenticalAcrossThreadCounts) {
  // Acceptance gate for the work-stealing execution layer: with lazy task
  // splitting, per-thread arena reuse, and the cached k-NN threshold, a
  // parallel search at any worker count must return byte-identical
  // matches to the serial traversal — memory- and disk-backed, range and
  // k-NN, for every index kind. Runs several seeds back to back so
  // threads reuse cached arenas across queries of different lengths.
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(500 + seed);
    Rng rng(6000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 10)), seed);
    const Value eps = rng.Uniform(0.5, 10.0);

    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      const std::string kind_name = core::IndexKindToString(kind);
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 8;
      auto index = Index::Build(&db, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();

      const std::vector<Match> reference = index->Search(q, eps);
      const std::vector<Match> knn_reference = index->SearchKnn(q, 7);

      IndexOptions disk = options;
      disk.disk_path = testing::TempDir() + "/diff_steal_" + kind_name +
                       std::to_string(seed);
      disk.disk_batch_sequences = 4;
      disk.disk_io_mode = storage::IoMode::kBuffered;
      disk.disk_pool_pages = 2;  // Tiny pool: evictions mid-search.
      auto disk_index = Index::Build(&db, disk);
      ASSERT_TRUE(disk_index.ok()) << disk_index.status().ToString();

      for (const std::size_t threads : {1u, 4u}) {
        QueryOptions qo;
        qo.num_threads = threads;
        const std::string ctx = kind_name + " seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, qo),
                            "steal range " + ctx);
        ExpectByteIdentical(knn_reference, index->SearchKnn(q, 7, qo),
                            "steal knn " + ctx);
        ExpectByteIdentical(reference, disk_index->Search(q, eps, qo),
                            "steal disk range " + ctx);
        ExpectByteIdentical(knn_reference, disk_index->SearchKnn(q, 7, qo),
                            "steal disk knn " + ctx);
      }
    }

    // The SeqScan baseline's new parallel mode obeys the same gate.
    const std::vector<Match> scan_reference = core::SeqScan(db, q, eps);
    for (const std::size_t threads : {1u, 4u}) {
      SeqScanOptions scan;
      scan.num_threads = threads;
      ExpectByteIdentical(scan_reference, core::SeqScan(db, q, eps, scan),
                          "steal seqscan seed=" + std::to_string(seed) +
                              " threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Claim 6 (PR 8): a TieredIndex — base tier + appended sealed tiers +
// memtable, before, during, and after compactions — returns byte-identical
// match sets to a monolithic index freshly built over the same data, for
// range and k-NN, memory- and disk-backed, serial and parallel. Every
// engine verifies candidates exactly against raw values, so per-tier
// symbol tables cannot perturb the output; these sweeps are the proof.
// ---------------------------------------------------------------------------

/// Shared setup: `total` random sequences, the first `base_count` of which
/// seed the base tier and the rest arrive via Append.
struct TieredCase {
  std::vector<std::vector<Value>> data;
  seqdb::SequenceDatabase full_db;
  seqdb::SequenceDatabase base_db;
  std::size_t base_count;
  std::vector<Value> q;
  Value eps;
};

TieredCase MakeTieredCase(std::uint64_t seed) {
  TieredCase c;
  Rng rng(9000 + seed);
  const int total = static_cast<int>(rng.UniformInt(10, 14));
  for (int i = 0; i < total; ++i) {
    c.data.push_back(RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(4, 28)),
        seed + static_cast<std::uint64_t>(i)));
  }
  c.base_count = 4 + seed % 3;
  for (std::size_t i = 0; i < c.data.size(); ++i) {
    c.full_db.Add(c.data[i]);
    if (i < c.base_count) c.base_db.Add(c.data[i]);
  }
  c.q = RandomShape(&rng, static_cast<std::size_t>(rng.UniformInt(2, 8)),
                    seed);
  c.eps = rng.Uniform(0.5, 10.0);
  return c;
}

TEST(DifferentialTest, TieredIndexByteIdenticalToMonolithic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TieredCase c = MakeTieredCase(seed);
    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      IndexOptions mono;
      mono.kind = kind;
      mono.num_categories = 8;
      auto monolithic = Index::Build(&c.full_db, mono);
      ASSERT_TRUE(monolithic.ok()) << monolithic.status().ToString();
      const std::vector<Match> reference = monolithic->Search(c.q, c.eps);
      const std::vector<Match> knn_reference = monolithic->SearchKnn(c.q, 7);

      // memtable_max sweeps the final tier count from ~1 extra tier up to
      // a 4-deep stack (memtable + sealed tiers awaiting compaction).
      for (const std::size_t memtable_max : {1u, 2u, 4u}) {
        core::TieredOptions tiered_options;
        tiered_options.index = mono;
        tiered_options.memtable_max_sequences = memtable_max;
        tiered_options.max_sealed_tiers = 2;
        tiered_options.merge_in_background = false;
        auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
        ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
        for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
          ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
        }
        const auto snapshot = (*tiered)->Snapshot();
        ASSERT_GE(snapshot->tiers().size(), 2u);
        for (const std::size_t threads : {0u, 1u, 4u}) {
          QueryOptions qo;
          qo.num_threads = threads;
          const std::string ctx =
              std::string(core::IndexKindToString(kind)) + " seed=" +
              std::to_string(seed) + " memtable=" +
              std::to_string(memtable_max) + " threads=" +
              std::to_string(threads);
          ExpectByteIdentical(reference, snapshot->Search(c.q, c.eps, qo),
                              "tiered range " + ctx);
          ExpectByteIdentical(knn_reference,
                              snapshot->SearchKnn(c.q, 7, qo),
                              "tiered knn " + ctx);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Claim: subtree resolution scans each start once and equals SeqScan.
// ---------------------------------------------------------------------------

/// Plateau-rich random walks: each level repeats 1-4 times, so sparse
/// trees store suffixes with leading runs longer than one symbol.
std::vector<Value> PlateauWalk(Rng* rng, std::size_t n) {
  std::vector<Value> v;
  Value level = rng->Uniform(-5, 5);
  while (v.size() < n) {
    const auto repeat = static_cast<std::size_t>(rng->UniformInt(1, 4));
    for (std::size_t r = 0; r < repeat && v.size() < n; ++r) {
      v.push_back(level);
    }
    level += rng->Gaussian(0, 1.5);
  }
  return v;
}

/// Replays the sparse filter over `tier` (interval rows, the MaxRun
/// discount, Theorem 1) and reports whether some path first passes at a
/// row past the first of its edge, above occurrences with a leading run
/// longer than one symbol — the resolution case the test must reach.
bool ResolvesMidEdgeAboveRuns(const core::Tier& tier,
                              std::span<const Value> q, Value eps) {
  const suffixtree::TreeView& tree = *tier.view();
  const categorize::Alphabet& alphabet = *tier.alphabet;
  dtw::WarpingTable table(q);
  std::function<bool(suffixtree::NodeId, Value)> visit =
      [&](suffixtree::NodeId node, Value first_lb) {
        suffixtree::Children children;
        tree.GetChildren(node, &children);
        for (const auto& edge : children.edges) {
          const std::span<const Symbol> label = children.Label(edge);
          Value fl = first_lb;
          if (table.Empty()) {
            const dtw::Interval iv = alphabet.ToInterval(label.front());
            fl = dtw::BaseDistanceLb(q.front(), iv.lb, iv.ub);
          }
          const Pos max_run = tree.MaxRun(edge.child);
          const Value discount =
              max_run > 1 ? static_cast<Value>(max_run - 1) * fl : 0.0;
          std::size_t pushed = 0;
          bool descend = true;
          for (std::size_t i = 0; i < label.size(); ++i) {
            const dtw::Interval iv = alphabet.ToInterval(label[i]);
            table.PushRowInterval(iv.lb, iv.ub);
            ++pushed;
            const Value dist = table.LastColumn();
            if (dist <= eps || dist - discount <= eps) {
              if (i > 0 && max_run > 1) return true;
              descend = false;
              break;
            }
            if (table.RowMin() - discount > eps) {
              descend = false;
              break;
            }
          }
          if (descend && visit(edge.child, fl)) return true;
          table.PopRows(pushed);
        }
        return false;
      };
  return visit(tree.Root(), 0.0);
}

void ExpectNoDuplicates(const std::vector<Match>& matches,
                        const std::string& context) {
  std::set<std::tuple<SeqId, Pos, Pos>> seen;
  for (const Match& m : matches) {
    EXPECT_TRUE(seen.insert({m.seq, m.start, m.len}).second)
        << context << ": (" << m.seq << ", " << m.start << ", " << m.len
        << ") reported twice";
  }
}

TEST(DifferentialTest, SubtreeResolutionByteIdenticalToSeqScan) {
  constexpr std::size_t kK = 7;
  bool reached_mid_edge = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(7700 + seed);
    std::vector<std::vector<Value>> data;
    const int total = static_cast<int>(rng.UniformInt(6, 9));
    for (int i = 0; i < total; ++i) {
      data.push_back(PlateauWalk(
          &rng, static_cast<std::size_t>(rng.UniformInt(12, 30))));
    }
    seqdb::SequenceDatabase full_db;
    seqdb::SequenceDatabase base_db;
    for (std::size_t i = 0; i < data.size(); ++i) {
      full_db.Add(data[i]);
      if (i < 3) base_db.Add(data[i]);
    }
    // A piece of the data, so the first passing row lies deep on a path.
    const std::vector<Value>& src = data[seed % data.size()];
    const auto qlen = static_cast<std::size_t>(rng.UniformInt(5, 8));
    const auto qpos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(src.size() - qlen)));
    std::vector<Value> q(src.begin() + qpos, src.begin() + qpos + qlen);
    for (Value& v : q) v += rng.Gaussian(0, 0.2);
    const Value eps = rng.Uniform(1.0, 4.0);

    const std::vector<Match> reference = core::SeqScan(full_db, q, eps);
    std::vector<Match> knn_reference =
        core::SeqScan(full_db, q, kInfinity);
    std::sort(knn_reference.begin(), knn_reference.end(),
              core::KnnMatchLess);
    knn_reference.resize(std::min(kK, knn_reference.size()));

    for (const auto& [kind, categories] :
         {std::pair{IndexKind::kCategorized, 4u},
          std::pair{IndexKind::kSparse, 4u},
          std::pair{IndexKind::kSparse, 16u}}) {
      IndexOptions options;
      options.kind = kind;
      options.num_categories = categories;
      auto monolithic = Index::Build(&full_db, options);
      ASSERT_TRUE(monolithic.ok()) << monolithic.status().ToString();
      if (kind == IndexKind::kSparse) {
        reached_mid_edge =
            reached_mid_edge ||
            ResolvesMidEdgeAboveRuns(*monolithic->snapshot()->tiers().front(),
                                     q, eps);
      }
      core::TieredOptions tiered_options;
      tiered_options.index = options;
      tiered_options.memtable_max_sequences = 2;
      tiered_options.max_sealed_tiers = 2;
      tiered_options.merge_in_background = false;
      auto tiered = core::TieredIndex::Create(&base_db, tiered_options);
      ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
      for (std::size_t i = base_db.size(); i < data.size(); ++i) {
        ASSERT_TRUE((*tiered)->Append(data[i]).ok());
      }
      const auto snapshot = (*tiered)->Snapshot();
      ASSERT_GE(snapshot->tiers().size(), 2u);

      for (const bool summaries : {true, false}) {
        for (const std::size_t threads : {0u, 1u, 4u}) {
          QueryOptions qo;
          qo.num_threads = threads;
          qo.use_node_summaries = summaries;
          const std::string ctx =
              std::string(core::IndexKindToString(kind)) +
              " c=" + std::to_string(categories) +
              " seed=" + std::to_string(seed) +
              " summaries=" + std::to_string(summaries) +
              " threads=" + std::to_string(threads);
          for (const bool is_tiered : {false, true}) {
            const std::string where =
                (is_tiered ? "tiered " : "monolithic ") + ctx;
            const std::vector<Match> range =
                is_tiered ? snapshot->Search(q, eps, qo)
                          : monolithic->Search(q, eps, qo);
            ExpectNoDuplicates(range, "range " + where);
            ExpectByteIdentical(reference, range, "range " + where);
            const std::vector<Match> knn =
                is_tiered ? snapshot->SearchKnn(q, kK, qo)
                          : monolithic->SearchKnn(q, kK, qo);
            ExpectNoDuplicates(knn, "knn " + where);
            ExpectByteIdentical(knn_reference, knn, "knn " + where);
          }
        }
      }
    }
  }
  EXPECT_TRUE(reached_mid_edge)
      << "no case resolved a sparse subtree mid-edge above a run > 1";
}

TEST(DifferentialTest, TieredMidStreamSnapshotsMatchMonolithicPrefixes) {
  // After *every* append (and the inline compactions it triggers), the
  // published snapshot must equal a monolithic index freshly built over
  // exactly the sequences ingested so far — the mid-stream tier shapes
  // (fresh memtable, tier just sealed, pair just merged) all pass through
  // this gate.
  const TieredCase c = MakeTieredCase(7);
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    IndexOptions mono;
    mono.kind = kind;
    mono.num_categories = 8;
    core::TieredOptions tiered_options;
    tiered_options.index = mono;
    tiered_options.memtable_max_sequences = 2;
    tiered_options.max_sealed_tiers = 1;
    tiered_options.merge_in_background = false;
    auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
    ASSERT_TRUE(tiered.ok());

    seqdb::SequenceDatabase prefix_db;
    for (std::size_t i = 0; i < c.base_count; ++i) prefix_db.Add(c.data[i]);
    for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
      ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
      prefix_db.Add(c.data[i]);
      auto prefix_index = Index::Build(&prefix_db, mono);
      ASSERT_TRUE(prefix_index.ok());
      const std::string ctx = std::string(core::IndexKindToString(kind)) +
                              " after append " + std::to_string(i);
      ExpectByteIdentical(prefix_index->Search(c.q, c.eps),
                          (*tiered)->Snapshot()->Search(c.q, c.eps),
                          "midstream range " + ctx);
      ExpectByteIdentical(prefix_index->SearchKnn(c.q, 5),
                          (*tiered)->Snapshot()->SearchKnn(c.q, 5),
                          "midstream knn " + ctx);
    }
  }
}

TEST(DifferentialTest, TieredDiskBackedByteIdenticalToMonolithic) {
  const TieredCase c = MakeTieredCase(11);
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    const std::string kind_name = core::IndexKindToString(kind);
    IndexOptions mono;
    mono.kind = kind;
    mono.num_categories = 8;
    auto monolithic = Index::Build(&c.full_db, mono);
    ASSERT_TRUE(monolithic.ok());
    const std::vector<Match> reference = monolithic->Search(c.q, c.eps);
    const std::vector<Match> knn_reference = monolithic->SearchKnn(c.q, 7);

    core::TieredOptions tiered_options;
    tiered_options.index = mono;
    tiered_options.index.disk_path =
        testing::TempDir() + "/diff_tiered_" + kind_name;
    tiered_options.index.disk_batch_sequences = 4;
    tiered_options.memtable_max_sequences = 1;
    tiered_options.max_sealed_tiers = 1;
    tiered_options.merge_in_background = false;
    auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
      ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
    }
    ASSERT_GE((*tiered)->Stats().merges_completed, 1u);
    const auto snapshot = (*tiered)->Snapshot();
    for (const std::size_t threads : {0u, 4u}) {
      QueryOptions qo;
      qo.num_threads = threads;
      const std::string ctx =
          kind_name + " threads=" + std::to_string(threads);
      ExpectByteIdentical(reference, snapshot->Search(c.q, c.eps, qo),
                          "tiered disk range " + ctx);
      ExpectByteIdentical(knn_reference, snapshot->SearchKnn(c.q, 7, qo),
                          "tiered disk knn " + ctx);
    }
  }
}

TEST(DifferentialTest, TieredBackgroundMergeSnapshotsByteIdentical) {
  // With the background worker on, snapshots taken while compactions may
  // still be in flight — and again after the queue drains — must both be
  // byte-identical to the monolithic reference.
  const TieredCase c = MakeTieredCase(13);
  IndexOptions mono;
  mono.kind = IndexKind::kSparse;
  mono.num_categories = 8;
  auto monolithic = Index::Build(&c.full_db, mono);
  ASSERT_TRUE(monolithic.ok());
  const std::vector<Match> reference = monolithic->Search(c.q, c.eps);
  const std::vector<Match> knn_reference = monolithic->SearchKnn(c.q, 7);

  core::TieredOptions tiered_options;
  tiered_options.index = mono;
  tiered_options.memtable_max_sequences = 1;
  tiered_options.max_sealed_tiers = 1;
  tiered_options.merge_in_background = true;
  auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
  ASSERT_TRUE(tiered.ok());
  for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
    ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
  }
  // Taken possibly mid-merge: the snapshot still covers every ingested
  // sequence with some consistent tier stack.
  ExpectByteIdentical(reference, (*tiered)->Snapshot()->Search(c.q, c.eps),
                      "bg possibly-mid-merge range");
  (*tiered)->WaitForMerges();
  ExpectByteIdentical(reference, (*tiered)->Snapshot()->Search(c.q, c.eps),
                      "bg drained range");
  ExpectByteIdentical(knn_reference,
                      (*tiered)->Snapshot()->SearchKnn(c.q, 7),
                      "bg drained knn");
}

// ---------------------------------------------------------------------------
// Claim 7: the mmap zero-copy read path is interchangeable with the
// buffered path — same bundle, byte-identical answers — and the v1
// format gate refuses mmap cleanly.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, MmapReadPathByteIdenticalToBuffered) {
  // For every index kind, the same persisted bundle is reopened through
  // both read paths; every (io_mode, threads) combination must return
  // byte-identical matches to the buffered serial reference, and the
  // mmap reopen must show zero buffer-pool traffic (the whole point of
  // the zero-copy path) with a non-empty mapping.
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    const std::string kind_name = core::IndexKindToString(kind);
    const seqdb::SequenceDatabase db = RandomDb(
        900 + static_cast<std::uint64_t>(kind));
    Rng rng(9900 + static_cast<std::uint64_t>(kind));
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 8)), 1);
    const Value eps = rng.Uniform(1.0, 10.0);

    IndexOptions build;
    build.kind = kind;
    build.num_categories = 8;
    build.disk_path = testing::TempDir() + "/diff_iomode_" + kind_name;
    build.disk_batch_sequences = 4;
    build.disk_io_mode = storage::IoMode::kBuffered;
    build.disk_pool_pages = 2;  // Tiny pool: the buffered legs re-read.
    auto baseline = Index::Build(&db, build);
    ASSERT_TRUE(baseline.ok()) << kind_name << ": "
                               << baseline.status().ToString();
    const std::vector<Match> reference = baseline->Search(q, eps);
    const std::vector<Match> knn_reference = baseline->SearchKnn(q, 7);

    for (const storage::IoMode mode : {storage::IoMode::kBuffered,
                                       storage::IoMode::kMmap}) {
      IndexOptions reopen = build;
      reopen.disk_io_mode = mode;
      auto index = Index::Open(&db, reopen);
      ASSERT_TRUE(index.ok()) << kind_name << ": "
                              << index.status().ToString();
      for (const std::size_t threads : {0u, 4u}) {
        QueryOptions query_options;
        query_options.num_threads = threads;
        const std::string ctx = kind_name + " io=" +
                                storage::IoModeToString(mode) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, query_options),
                            "iomode range " + ctx);
        ExpectByteIdentical(knn_reference,
                            index->SearchKnn(q, 7, query_options),
                            "iomode knn " + ctx);
      }
      ASSERT_NE(index->disk_tree(), nullptr);
      EXPECT_EQ(index->disk_tree()->io_mode(), mode) << kind_name;
      if (mode == storage::IoMode::kMmap) {
        const auto pool = index->disk_tree()->PoolStats().Total();
        EXPECT_EQ(pool.hits + pool.misses, 0u)
            << kind_name << ": mmap path touched the buffer pool";
        EXPECT_GT(index->MappedStats().mapped_bytes, 0u) << kind_name;
      }
    }
  }
}

TEST(DifferentialTest, TieredMmapByteIdenticalToMonolithic) {
  // The tiered stack on the mmap path: merges write through buffered
  // scratch trees, but every *published* disk tier is reopened mmap'd —
  // and the stack still answers byte-identically to a monolithic index.
  const TieredCase c = MakeTieredCase(17);
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    const std::string kind_name = core::IndexKindToString(kind);
    IndexOptions mono;
    mono.kind = kind;
    mono.num_categories = 8;
    auto monolithic = Index::Build(&c.full_db, mono);
    ASSERT_TRUE(monolithic.ok());
    const std::vector<Match> reference = monolithic->Search(c.q, c.eps);
    const std::vector<Match> knn_reference = monolithic->SearchKnn(c.q, 7);

    core::TieredOptions tiered_options;
    tiered_options.index = mono;
    tiered_options.index.disk_path =
        testing::TempDir() + "/diff_tiered_mmap_" + kind_name;
    tiered_options.index.disk_batch_sequences = 4;
    tiered_options.index.disk_io_mode = storage::IoMode::kMmap;
    tiered_options.memtable_max_sequences = 1;
    tiered_options.max_sealed_tiers = 1;
    tiered_options.merge_in_background = false;
    auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
      ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
    }
    ASSERT_GE((*tiered)->Stats().merges_completed, 1u);
    const auto snapshot = (*tiered)->Snapshot();
    std::size_t mapped_tiers = 0;
    for (const auto& tier : snapshot->tiers()) {
      if (!tier->info.on_disk) continue;
      EXPECT_EQ(tier->info.io_mode, storage::IoMode::kMmap) << kind_name;
      EXPECT_GT(tier->info.mapped_bytes, 0u) << kind_name;
      ++mapped_tiers;
    }
    EXPECT_GE(mapped_tiers, 1u) << kind_name;
    for (const std::size_t threads : {0u, 4u}) {
      QueryOptions qo;
      qo.num_threads = threads;
      const std::string ctx =
          kind_name + " threads=" + std::to_string(threads);
      ExpectByteIdentical(reference, snapshot->Search(c.q, c.eps, qo),
                          "tiered mmap range " + ctx);
      ExpectByteIdentical(knn_reference, snapshot->SearchKnn(c.q, 7, qo),
                          "tiered mmap knn " + ctx);
    }
  }
}

TEST(DifferentialTest, V1BundleVersionGate) {
  // A v1 bundle (no section table) must keep opening on the buffered
  // path with byte-identical answers, while the mmap path refuses it
  // with Corruption — the relocatable layout only exists in v2.
  const seqdb::SequenceDatabase db = RandomDb(777);
  Rng rng(10700);
  const std::vector<Value> q = RandomShape(
      &rng, static_cast<std::size_t>(rng.UniformInt(2, 8)), 1);
  const Value eps = rng.Uniform(1.0, 10.0);

  IndexOptions build;
  build.kind = IndexKind::kSparse;
  build.num_categories = 8;
  build.disk_path = testing::TempDir() + "/diff_v1_gate";
  build.disk_batch_sequences = 4;
  build.disk_io_mode = storage::IoMode::kBuffered;
  auto baseline = Index::Build(&db, build);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_NE(baseline->disk_tree(), nullptr);
  EXPECT_EQ(baseline->disk_tree()->format_version(), 2u);
  const std::vector<Match> reference = baseline->Search(q, eps);
  const std::vector<Match> knn_reference = baseline->SearchKnn(q, 7);

  ASSERT_TRUE(suffixtree::DowngradeBundleToV1ForTest(build.disk_path).ok());

  // Buffered: a v1 bundle is still first-class.
  auto buffered = Index::Open(&db, build);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  ASSERT_NE(buffered->disk_tree(), nullptr);
  EXPECT_EQ(buffered->disk_tree()->format_version(), 1u);
  ExpectByteIdentical(reference, buffered->Search(q, eps), "v1 range");
  ExpectByteIdentical(knn_reference, buffered->SearchKnn(q, 7), "v1 knn");

  // Mmap: refused cleanly, no crash.
  IndexOptions mmap_reopen = build;
  mmap_reopen.disk_io_mode = storage::IoMode::kMmap;
  auto refused = Index::Open(&db, mmap_reopen);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status().ToString();
}

// ---------------------------------------------------------------------------
// Claim 8: the node-summary screen never changes the answer at
// approx_factor 1.0, and factors > 1 trade a subset answer for pruning.
// ---------------------------------------------------------------------------

/// Every match in `subset` must appear in `superset` with the same
/// (seq, start, len) and exactly the same distance double — the approx
/// dial may drop matches but never invent or perturb one.
void ExpectSubsetWithExactDistances(const std::vector<Match>& superset,
                                    const std::vector<Match>& subset,
                                    const std::string& context) {
  ASSERT_LE(subset.size(), superset.size()) << context;
  for (const Match& m : subset) {
    bool found = false;
    for (const Match& ref : superset) {
      if (ref.seq == m.seq && ref.start == m.start && ref.len == m.len) {
        EXPECT_EQ(ref.distance, m.distance)
            << context << " at (" << m.seq << "," << m.start << ","
            << m.len << ")";
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << context << ": approx match (" << m.seq << ","
                       << m.start << "," << m.len
                       << ") not in the exact answer";
  }
}

TEST(DifferentialTest, SummaryScreenByteIdenticalAcrossEngines) {
  // Also proves the screen is live, not vacuously identical: across the
  // sweep it must have screened edges and pruned at least one subtree.
  std::uint64_t total_invocations = 0;
  std::uint64_t total_pruned = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(300 + seed);
    Rng rng(11000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 10)), seed);
    const Value eps = rng.Uniform(0.5, 12.0);

    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 8;
      auto index = Index::Build(&db, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();

      QueryOptions off;
      off.use_node_summaries = false;
      const std::vector<Match> reference = index->Search(q, eps, off);
      const std::vector<Match> knn_reference = index->SearchKnn(q, 7, off);
      for (const std::size_t threads : {0u, 2u, 3u}) {
        QueryOptions on;  // Summaries default on at factor 1.0.
        on.num_threads = threads;
        core::SearchStats stats;
        const std::string ctx = std::string(core::IndexKindToString(kind)) +
                                " seed=" + std::to_string(seed) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, on, &stats),
                            "summary range " + ctx);
        ExpectByteIdentical(knn_reference, index->SearchKnn(q, 7, on),
                            "summary knn " + ctx);
        total_invocations += stats.summary_lb_invocations;
        total_pruned += stats.nodes_pruned_by_summary;
      }
    }
  }
  EXPECT_GT(total_invocations, 0u);
  EXPECT_GT(total_pruned, 0u);
}

TEST(DifferentialTest, SummaryScreenBandedByteIdentical) {
  // Under a band the screen adds the length pre-check (subtree too short
  // for any legal banded path); both legs must still be exact.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(350 + seed);
    Rng rng(12000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(3, 10)), seed);
    const Value eps = rng.Uniform(0.5, 8.0);
    IndexOptions options;
    options.kind = IndexKind::kCategorized;
    options.num_categories = 8;
    auto index = Index::Build(&db, options);
    ASSERT_TRUE(index.ok());
    for (const Pos band : {1u, 2u, 4u}) {
      QueryOptions off;
      off.band = band;
      off.use_node_summaries = false;
      QueryOptions on;
      on.band = band;
      const std::string ctx = "seed=" + std::to_string(seed) +
                              " band=" + std::to_string(band);
      ExpectByteIdentical(index->Search(q, eps, off),
                          index->Search(q, eps, on),
                          "summary banded range " + ctx);
      ExpectByteIdentical(index->SearchKnn(q, 5, off),
                          index->SearchKnn(q, 5, on),
                          "summary banded knn " + ctx);
    }
  }
}

TEST(DifferentialTest, SummaryScreenDiskAndTieredByteIdentical) {
  // The persisted summary section (v2 4th section, both io modes) and the
  // tiered stack (memory summaries on sealed tiers, attached sections on
  // merged disk tiers, none on the memtable) must all stay exact.
  const TieredCase c = MakeTieredCase(23);
  for (const IndexKind kind : {IndexKind::kSuffixTree,
                               IndexKind::kCategorized,
                               IndexKind::kSparse}) {
    const std::string kind_name = core::IndexKindToString(kind);
    IndexOptions build;
    build.kind = kind;
    build.num_categories = 8;
    build.disk_path = testing::TempDir() + "/diff_sums_disk_" + kind_name;
    build.disk_batch_sequences = 4;
    build.disk_io_mode = storage::IoMode::kBuffered;
    build.disk_pool_pages = 2;
    auto built = Index::Build(&c.full_db, build);
    ASSERT_TRUE(built.ok()) << kind_name << ": " << built.status().ToString();

    QueryOptions off;
    off.use_node_summaries = false;
    const std::vector<Match> reference = built->Search(c.q, c.eps, off);
    const std::vector<Match> knn_reference =
        built->SearchKnn(c.q, 7, off);

    for (const storage::IoMode io :
         {storage::IoMode::kBuffered, storage::IoMode::kMmap}) {
      IndexOptions reopen = build;
      reopen.disk_io_mode = io;
      auto index = Index::Open(&c.full_db, reopen);
      ASSERT_TRUE(index.ok()) << kind_name << ": "
                              << index.status().ToString();
      for (const std::size_t threads : {0u, 4u}) {
        QueryOptions on;
        on.num_threads = threads;
        core::SearchStats stats;
        const std::string ctx = kind_name + " io=" +
                                storage::IoModeToString(io) + " threads=" +
                                std::to_string(threads);
        ExpectByteIdentical(reference,
                            index->Search(c.q, c.eps, on, &stats),
                            "disk summary range " + ctx);
        ExpectByteIdentical(knn_reference,
                            index->SearchKnn(c.q, 7, on),
                            "disk summary knn " + ctx);
        if (threads == 0) {
          EXPECT_GT(stats.summary_lb_invocations, 0u) << ctx;
        }
      }
    }

    // Tiered: base tier + appends through seal/merge, memory and disk.
    for (const bool on_disk : {false, true}) {
      core::TieredOptions tiered_options;
      tiered_options.index.kind = kind;
      tiered_options.index.num_categories = 8;
      if (on_disk) {
        tiered_options.index.disk_path =
            testing::TempDir() + "/diff_sums_tiered_" + kind_name;
        tiered_options.index.disk_batch_sequences = 4;
      }
      tiered_options.memtable_max_sequences = 2;
      tiered_options.max_sealed_tiers = 2;
      tiered_options.merge_in_background = false;
      auto tiered = core::TieredIndex::Create(&c.base_db, tiered_options);
      ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
      for (std::size_t i = c.base_count; i < c.data.size(); ++i) {
        ASSERT_TRUE((*tiered)->Append(c.data[i]).ok());
      }
      const auto snapshot = (*tiered)->Snapshot();
      const std::vector<Match> tiered_reference =
          snapshot->Search(c.q, c.eps, off);
      const std::vector<Match> tiered_knn_reference =
          snapshot->SearchKnn(c.q, 7, off);
      ExpectByteIdentical(reference, tiered_reference,
                          "tiered summary-off baseline " + kind_name);
      for (const std::size_t threads : {0u, 4u}) {
        QueryOptions on;
        on.num_threads = threads;
        const std::string ctx = kind_name +
                                (on_disk ? " disk" : " memory") +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(tiered_reference,
                            snapshot->Search(c.q, c.eps, on),
                            "tiered summary range " + ctx);
        ExpectByteIdentical(tiered_knn_reference,
                            snapshot->SearchKnn(c.q, 7, on),
                            "tiered summary knn " + ctx);
      }
    }
  }
}

TEST(DifferentialTest, ApproxFactorReturnsSubsetWithExactDistances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const seqdb::SequenceDatabase db = RandomDb(400 + seed);
    Rng rng(13000 + seed);
    const std::vector<Value> q = RandomShape(
        &rng, static_cast<std::size_t>(rng.UniformInt(2, 10)), seed);
    const Value eps = rng.Uniform(1.0, 12.0);
    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 8;
      auto index = Index::Build(&db, options);
      ASSERT_TRUE(index.ok());
      const std::vector<Match> exact = index->Search(q, eps);
      const std::vector<Match> everything = index->Search(q, kInfinity);
      for (const Value factor : {1.5, 4.0}) {
        QueryOptions approx;
        approx.approx_factor = factor;
        const std::string ctx = std::string(core::IndexKindToString(kind)) +
                                " seed=" + std::to_string(seed) +
                                " factor=" + std::to_string(factor);
        ExpectSubsetWithExactDistances(exact,
                                       index->Search(q, eps, approx),
                                       "approx range " + ctx);
        // k-NN under a factor may return different (farther) neighbors
        // than the exact top-k, but every one it reports must be a real
        // match from the database at its true distance — checked against
        // the unbounded exact range answer.
        const std::vector<Match> knn = index->SearchKnn(q, 4, approx);
        EXPECT_LE(knn.size(), 4u) << ctx;
        ExpectSubsetWithExactDistances(everything, knn, "approx knn " + ctx);
      }
    }
  }
}

TEST(DifferentialTest, ApproxFactorActuallyPrunes) {
  // A crafted case where the dial must bite: the query sits far from the
  // data, so every surviving candidate's summary lower bound is large and
  // a factor of 3 pushes it past the threshold. Exact search still finds
  // matches (eps is generous); the approximate search must drop some of
  // them — and report the prunes in its stats.
  Rng rng(14000);
  seqdb::SequenceDatabase db;
  for (int i = 0; i < 8; ++i) {
    db.Add(RandomShape(&rng, static_cast<std::size_t>(rng.UniformInt(8, 24)),
                       0));  // Random walks near 0.
  }
  const std::vector<Value> q(6, 40.0);  // Constant, far from the walks.
  IndexOptions options;
  options.kind = IndexKind::kCategorized;
  options.num_categories = 8;
  auto index = Index::Build(&db, options);
  ASSERT_TRUE(index.ok());
  // Anchor eps just above the true nearest neighbor: every candidate's
  // summary bound is then ~eps/1.25 or more, so bound * 3 clears the
  // threshold and the dial must discard real matches.
  const std::vector<Match> nearest = index->SearchKnn(q, 1);
  ASSERT_EQ(nearest.size(), 1u);
  const Value eps = nearest[0].distance * 1.25;
  const std::vector<Match> exact = index->Search(q, eps);
  ASSERT_GT(exact.size(), 0u);

  QueryOptions approx;
  approx.approx_factor = 3.0;
  core::SearchStats stats;
  const std::vector<Match> got = index->Search(q, eps, approx, &stats);
  ExpectSubsetWithExactDistances(exact, got, "forced approx");
  EXPECT_LT(got.size(), exact.size());
  EXPECT_GT(stats.nodes_pruned_by_summary, 0u);
}

}  // namespace
}  // namespace tswarp
