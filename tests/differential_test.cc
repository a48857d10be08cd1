// Randomized differential-testing harness for the envelope lower-bound
// fast path. These claims are exercised with seeded random cases:
//
//  1. The running bound of the per-start scan (endpoint cost plus the
//     envelope's per-element terms) never exceeds D_tw for any (query,
//     candidate, band) — the exactness precondition of the whole cascade —
//     and the scan under that bound agrees with the plain kernel on
//     membership and distance.
//  2. The fast-path searches (envelope cascade on, the default) return
//     byte-identical Match sets to the unfiltered engine for range and
//     k-NN queries, serial and multi-threaded, across all index kinds and
//     for the SeqScan baseline.
//  3. Disk-backed searches are byte-identical to the in-memory index
//     whatever batch size the disk build spills and merges at, across
//     reopens and thread counts.
//  4. The multivariate grid index (the fourth instantiation of the shared
//     search driver) is byte-identical to brute-force multivariate DTW
//     across thread counts, range and k-NN, bands, and with the
//     per-dimension envelope cascade on or off.
//  5. Every SIMD backend this machine can run (dtw::simd) returns
//     byte-identical match sets to the scalar backend across index kinds,
//     thread counts, and the SeqScan baseline — and identical serial
//     search stats, so the cascade prunes in exactly the same places.
//  7. Disk-backed indexes, read through the bundle's mappings, serve
//     byte-identical match sets to the in-memory index — across index
//     kinds, thread counts, range and k-NN, freshly built or reopened,
//     monolithic and tiered — and v1 bundles are refused with
//     Status::Corruption.
//  8. k-NN answers equal the SeqScan oracle's first k in the k-NN total
//     order, byte for byte, across index kinds, thread counts, tiers and
//     mapped disk bundles, with the k-th distance tied.
//
// Sequences mix three adversarial shapes: Gaussian random walks, spike
// trains (flat with rare large jumps — stresses the envelope edges), and
// constant runs (stresses sparse-suffix recovery and zero-width
// envelopes). Lengths span 1..64. Everything is seeded: a failure report
// names the case's seed, so any case replays deterministically.

#include <algorithm>
#include <cstdint>
#include <fstream>
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
#include "dtw/base.h"
#include "dtw/dtw.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"
#include "dtw/warping_table.h"
#include "multivariate/multi_index.h"
#include "seqdb/sequence_database.h"
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
    const Value exact = band == 0 ? dtw::DtwDistance(q, s)
                                  : dtw::DtwDistanceBanded(q, s, band);
    // The full-length candidate's running bound: S[0] meets Q[0] in the
    // path's start cell, and every later element pays at least its
    // envelope distance.
    Value bound = dtw::BaseDistance(q.front(), s.front());
    for (std::size_t k = 1; k < slen; ++k) bound += env.ElementLb(k, s[k]);
    ASSERT_LE(bound, exact + 1e-9)
        << "running bound > D_tw, seed=" << seed << " band=" << band
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

// ---------------------------------------------------------------------------
// Claim 3: disk-backed searches do not depend on how the bundle was built
// or opened.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, DiskBackedSearchByteIdenticalAcrossPoolConfigs) {
  // For every index kind, bundles built at several spill batch sizes
  // (one sequence per intermediate tree, a few, all at once) and each
  // reopened, return byte-identical matches to the serial in-memory
  // index at every thread count. What varies is how the bundle was
  // written and how many threads search it; every bundle is read through
  // a read-only mapping. (The name dates from the deleted buffer pool.)
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

    IndexOptions options;
    options.kind = kind;
    options.num_categories = 8;
    auto memory = Index::Build(&db, options);
    ASSERT_TRUE(memory.ok()) << kind_name << ": "
                             << memory.status().ToString();
    const std::vector<Match> reference = memory->Search(q, eps);
    const std::vector<Match> knn_reference = memory->SearchKnn(q, 7);

    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{4}, db.size()}) {
      IndexOptions build = options;
      build.disk_path = testing::TempDir() + "/diff_disk_batch_" +
                        kind_name + "_" + std::to_string(batch);
      build.disk_batch_sequences = batch;
      ASSERT_TRUE(Index::Build(&db, build).ok()) << kind_name;
      auto index = Index::Open(&db, build);
      ASSERT_TRUE(index.ok()) << kind_name << ": "
                              << index.status().ToString();
      ASSERT_NE(index->disk_tree(), nullptr);
      for (const std::size_t threads : {0u, 4u}) {
        QueryOptions query_options;
        query_options.num_threads = threads;
        const std::string ctx = kind_name + " batch=" +
                                std::to_string(batch) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, query_options),
                            "disk range " + ctx);
        ExpectByteIdentical(knn_reference,
                            index->SearchKnn(q, 7, query_options),
                            "disk knn " + ctx);
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
  // Acceptance gate for the parallel search: with the root's edges cut
  // once into ranges (one task each), per-thread arena reuse, and the
  // shared k-NN threshold, a parallel search at any worker count must
  // return byte-identical matches to the serial traversal — memory- and
  // disk-backed, range and k-NN, for every index kind. Runs several
  // seeds back to back so threads reuse cached arenas across queries of
  // different lengths. (The name dates from the deleted work-stealing
  // scheduler.)
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

      for (const std::size_t threads : {0u, 1u, 4u}) {
        QueryOptions qo;
        qo.num_threads = threads;
        const std::string ctx = std::string(core::IndexKindToString(kind)) +
                                " c=" + std::to_string(categories) +
                                " seed=" + std::to_string(seed) +
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
// Claim 8: k-NN equals its oracle — every subsequence (SeqScan at +inf) in
// the k-NN total order, cut to k — byte for byte, however the threshold
// was seeded. Integer plateaus make distances integral, so the k-th
// distance is tied: a seeded bound even one ulp too low would drop a tie.
// ---------------------------------------------------------------------------

/// Integer-valued plateaus: levels in [0, 6], each repeated 1-4 times.
std::vector<Value> IntegerPlateaus(Rng* rng, std::size_t n) {
  std::vector<Value> v;
  while (v.size() < n) {
    const auto level = static_cast<Value>(rng->UniformInt(0, 6));
    const auto repeat = static_cast<std::size_t>(rng->UniformInt(1, 4));
    for (std::size_t r = 0; r < repeat && v.size() < n; ++r) {
      v.push_back(level);
    }
  }
  return v;
}

TEST(DifferentialTest, KnnByteIdenticalToSeqScanOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(8800 + seed);
    std::vector<std::vector<Value>> data;
    const int total = static_cast<int>(rng.UniformInt(6, 9));
    for (int i = 0; i < total; ++i) {
      data.push_back(IntegerPlateaus(
          &rng, static_cast<std::size_t>(rng.UniformInt(10, 30))));
    }
    seqdb::SequenceDatabase full_db;
    seqdb::SequenceDatabase base_db;
    for (std::size_t i = 0; i < data.size(); ++i) {
      full_db.Add(data[i]);
      if (i < 3) base_db.Add(data[i]);
    }
    const std::vector<Value> q = IntegerPlateaus(
        &rng, static_cast<std::size_t>(rng.UniformInt(3, 6)));

    std::vector<Match> all = core::SeqScan(full_db, q, kInfinity);
    std::sort(all.begin(), all.end(), core::KnnMatchLess);
    // The smallest k >= 4 whose k-th distance is tied with the next one.
    std::size_t k = 4;
    while (k < all.size() && all[k - 1].distance != all[k].distance) ++k;
    ASSERT_LT(k, all.size()) << "seed " << seed << ": no tie to straddle";
    const std::vector<Match> oracle(all.begin(), all.begin() + k);

    for (const IndexKind kind : {IndexKind::kSuffixTree,
                                 IndexKind::kCategorized,
                                 IndexKind::kSparse}) {
      const std::string kind_name = core::IndexKindToString(kind);
      IndexOptions options;
      options.kind = kind;
      options.num_categories = 4;
      auto memory = Index::Build(&full_db, options);
      ASSERT_TRUE(memory.ok()) << memory.status().ToString();

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

      IndexOptions disk_options = options;
      disk_options.disk_path = testing::TempDir() + "/diff_knn_oracle_" +
                               kind_name + std::to_string(seed);
      disk_options.disk_batch_sequences = 4;
      ASSERT_TRUE(Index::Build(&full_db, disk_options).ok());
      auto reopened = Index::Open(&full_db, disk_options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      ASSERT_GT(reopened->MappedStats().mapped_bytes, 0u);

      for (const std::size_t threads : {0u, 2u, 3u}) {
        QueryOptions qo;
        qo.num_threads = threads;
        const std::string ctx = kind_name + " seed=" + std::to_string(seed) +
                                " k=" + std::to_string(k) +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(oracle, memory->SearchKnn(q, k, qo),
                            "memory knn " + ctx);
        ExpectByteIdentical(oracle, snapshot->SearchKnn(q, k, qo),
                            "tiered knn " + ctx);
        ExpectByteIdentical(oracle, reopened->SearchKnn(q, k, qo),
                            "mapped knn " + ctx);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Claim 7: disk-backed searches, read through the bundle's mappings, are
// byte-identical to the in-memory index — and v1 bundles are refused.
// ---------------------------------------------------------------------------

TEST(DifferentialTest, MmapReadPathByteIdenticalToBuffered) {
  // For every index kind, the bundle is searched right after Build and
  // again after a fresh reopen; every (open, threads) combination must
  // return byte-identical matches to the serial in-memory reference,
  // the fully buffered copy of the same tree.
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

    IndexOptions options;
    options.kind = kind;
    options.num_categories = 8;
    auto memory = Index::Build(&db, options);
    ASSERT_TRUE(memory.ok()) << kind_name << ": "
                             << memory.status().ToString();
    const std::vector<Match> reference = memory->Search(q, eps);
    const std::vector<Match> knn_reference = memory->SearchKnn(q, 7);

    options.disk_path = testing::TempDir() + "/diff_disk_" + kind_name;
    options.disk_batch_sequences = 4;  // Spill and merge intermediates.
    auto built = Index::Build(&db, options);
    ASSERT_TRUE(built.ok()) << kind_name << ": "
                            << built.status().ToString();
    auto reopened = Index::Open(&db, options);
    ASSERT_TRUE(reopened.ok()) << kind_name << ": "
                               << reopened.status().ToString();
    for (const auto& [open, index] :
         {std::pair{"built", &*built}, std::pair{"reopened", &*reopened}}) {
      ASSERT_NE(index->disk_tree(), nullptr);
      EXPECT_GT(index->MappedStats().mapped_bytes, 0u) << kind_name;
      for (const std::size_t threads : {0u, 4u}) {
        QueryOptions query_options;
        query_options.num_threads = threads;
        const std::string ctx = kind_name + " " + open +
                                " threads=" + std::to_string(threads);
        ExpectByteIdentical(reference, index->Search(q, eps, query_options),
                            "disk range " + ctx);
        ExpectByteIdentical(knn_reference,
                            index->SearchKnn(q, 7, query_options),
                            "disk knn " + ctx);
      }
    }
  }
}

TEST(DifferentialTest, TieredMmapByteIdenticalToMonolithic) {
  // The tiered stack on disk: every published disk tier is mapped, and
  // the stack still answers byte-identically to a monolithic index.
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
  // A v1 bundle (no section table) is refused with a Corruption that
  // names the remedy, instead of being served without validation — the
  // section table is what the mappings are checked against.
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
  auto baseline = Index::Build(&db, build);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_NE(baseline->disk_tree(), nullptr);
  const std::vector<Match> reference = baseline->Search(q, eps);

  // The bundle reopens with the same answers...
  auto reopened = Index::Open(&db, build);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectByteIdentical(reference, reopened->Search(q, eps), "reopened range");

  // ...the same bundle with its version field (u32 at byte 8) set to v1
  // is refused cleanly, no crash.
  {
    std::fstream f(build.disk_path + ".tsw",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::uint32_t v1 = 1;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&v1), sizeof(v1));
  }
  auto refused = Index::Open(&db, build);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("rebuild"), std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace tswarp
