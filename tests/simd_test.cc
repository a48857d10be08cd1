// Cross-backend tests for the SIMD kernel layer (src/dtw/simd.h): every
// backend the machine can run must produce BITWISE identical results to
// the scalar backend on every kernel in the table, including the
// +infinity patterns the warping table feeds them (band fills, column-0
// sentinels, infinite carry-ins). Bitwise — not approximate — equality is
// the contract that makes match sets and stats machine-independent; see
// the canonical-dataflow note in simd.h.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"
#include "dtw/envelope.h"
#include "dtw/simd.h"

namespace tswarp::dtw::simd {
namespace {

/// Bit-pattern equality: distinguishes +0/-0 and would catch a backend
/// producing a NaN with a different payload.
testing::AssertionResult BitEqual(Value a, Value b) {
  const auto ab = std::bit_cast<std::uint64_t>(a);
  const auto bb = std::bit_cast<std::uint64_t>(b);
  if (ab == bb) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << a << " (0x" << std::hex << ab << ") vs " << b << " (0x" << bb
         << ")";
}

testing::AssertionResult BitEqualRows(const std::vector<Value>& a,
                                      const std::vector<Value>& b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (auto r = BitEqual(a[i], b[i]); !r) {
      return testing::AssertionFailure() << "at " << i << ": " << r.message();
    }
  }
  return testing::AssertionSuccess();
}

/// Random values with the shapes the search actually produces: finite
/// cells, +infinity band fills, and exact ties (small-integer grid so
/// min() sees equal operands, exercising the minpd operand-order rule).
class ValueGen {
 public:
  explicit ValueGen(std::uint32_t seed) : rng_(seed) {}

  Value Finite() {
    return std::uniform_real_distribution<Value>(-50.0, 50.0)(rng_);
  }

  /// ~1/8 +infinity, ~1/4 small integer (tie-prone), else uniform.
  Value Cell() {
    const int kind = std::uniform_int_distribution<int>(0, 7)(rng_);
    if (kind == 0) return kInfinity;
    if (kind <= 2) {
      return static_cast<Value>(std::uniform_int_distribution<int>(-3, 3)(rng_));
    }
    return Finite();
  }

  std::vector<Value> Row(std::size_t n, bool allow_inf) {
    std::vector<Value> out(n);
    for (Value& v : out) v = allow_inf ? Cell() : Finite();
    return out;
  }

  std::mt19937& rng() { return rng_; }

 private:
  std::mt19937 rng_;
};

/// Runs `fn` once per non-scalar available backend with that backend
/// active, handing it the scalar result of `scalar_fn` for comparison.
/// Restores the previously active backend afterwards.
class SimdTest : public testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveBackend(); }
  void TearDown() override { ASSERT_TRUE(SetBackend(saved_)); }

  template <typename Fn>
  void ForEachBackend(Fn fn) {
    for (const std::string& name : AvailableBackends()) {
      ASSERT_TRUE(SetBackend(name));
      ASSERT_STREQ(Kernels().name, name.c_str());
      fn(name);
    }
  }

  std::string saved_;
};

TEST_F(SimdTest, AvailableBackendsEndsWithScalar) {
  const std::vector<std::string> backends = AvailableBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back(), "scalar");
}

TEST_F(SimdTest, SetBackendRejectsUnknownNamesAndKeepsActive) {
  const std::string before = ActiveBackend();
  EXPECT_FALSE(SetBackend("bogus"));
  EXPECT_FALSE(SetBackend(""));
  EXPECT_STREQ(ActiveBackend(), before.c_str());
  EXPECT_TRUE(SetBackend("auto"));
  EXPECT_TRUE(SetBackend("scalar"));
  EXPECT_STREQ(ActiveBackend(), "scalar");
}

TEST_F(SimdTest, RowStepKernelsMatchScalarBitwise) {
  ASSERT_TRUE(SetBackend("scalar"));
  const KernelTable scalar = Kernels();
  ValueGen gen(20260806);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<Value> q = gen.Row(n, /*allow_inf=*/false);
      // prev has one extra leading cell: kernels read prev[-1].
      const std::vector<Value> prev = gen.Row(n + 1, /*allow_inf=*/true);
      const std::vector<Value> base = gen.Row(n, /*allow_inf=*/false);
      const Value v = gen.Finite();
      Value lb = gen.Finite(), ub = gen.Finite();
      if (lb > ub) std::swap(lb, ub);
      const Value left = rep % 3 == 0 ? kInfinity : gen.Cell();

      std::vector<Value> want_row(n), got_row(n);
      const Value want_value = scalar.row_step_value(
          q.data(), v, prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_value_row = want_row;
      const Value want_interval = scalar.row_step_interval(
          q.data(), lb, ub, prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_interval_row = want_row;
      const Value want_base = scalar.row_step_base(
          base.data(), prev.data() + 1, want_row.data(), n, left);
      const std::vector<Value> want_base_row = want_row;

      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " n=" + std::to_string(n));
        const KernelTable& k = Kernels();
        EXPECT_TRUE(BitEqual(want_value,
                             k.row_step_value(q.data(), v, prev.data() + 1,
                                              got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_value_row, got_row));
        EXPECT_TRUE(BitEqual(
            want_interval,
            k.row_step_interval(q.data(), lb, ub, prev.data() + 1,
                                got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_interval_row, got_row));
        EXPECT_TRUE(BitEqual(want_base,
                             k.row_step_base(base.data(), prev.data() + 1,
                                             got_row.data(), n, left)));
        EXPECT_TRUE(BitEqualRows(want_base_row, got_row));
      });
    }
  }
}

TEST_F(SimdTest, BandedExtremaMatchesNaiveWindowAndScalarBitwise) {
  ASSERT_TRUE(SetBackend("scalar"));
  const KernelTable scalar = Kernels();
  ValueGen gen(6174);
  for (const std::size_t band :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{9}}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      const std::vector<Value> seq = gen.Row(n, /*allow_inf=*/true);
      const std::size_t reach = n + band;
      std::vector<Value> want_lo(reach), want_up(reach);
      std::vector<Value> got_lo(reach), got_up(reach);
      std::vector<Value> work(2 * (n + 3 * band));
      scalar.banded_extrema(seq.data(), n, band, want_lo.data(),
                            want_up.data(), work.data());
      // The outputs are selections of input values, so the naive window
      // scan must agree exactly, ties included (the fuzz never produces
      // distinct tied bit patterns such as +0 vs -0).
      for (std::size_t j = 0; j < reach; ++j) {
        const std::size_t lo = j > band ? j - band : 0;
        const std::size_t hi = std::min(j + band, n - 1);
        Value mn = kInfinity, mx = -kInfinity;
        for (std::size_t i = lo; i <= hi; ++i) {
          mn = seq[i] < mn ? seq[i] : mn;
          mx = seq[i] > mx ? seq[i] : mx;
        }
        SCOPED_TRACE("band=" + std::to_string(band) +
                     " n=" + std::to_string(n) + " j=" + std::to_string(j));
        EXPECT_TRUE(BitEqual(mn, want_lo[j]));
        EXPECT_TRUE(BitEqual(mx, want_up[j]));
      }
      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " band=" + std::to_string(band) +
                     " n=" + std::to_string(n));
        Kernels().banded_extrema(seq.data(), n, band, got_lo.data(),
                                 got_up.data(), work.data());
        EXPECT_TRUE(BitEqualRows(want_lo, got_lo));
        EXPECT_TRUE(BitEqualRows(want_up, got_up));
      });
    }
  }
}

TEST_F(SimdTest, LowerBoundKernelsMatchScalarBitwise) {
  // ScanStart's running bound reads QueryEnvelope terms, and the envelope
  // is built by the dispatched banded_extrema kernel: every term, and
  // every running sum compared against epsilon, must carry the same bits
  // on every backend, out-of-reach infinities included.
  ASSERT_TRUE(SetBackend("scalar"));
  ValueGen gen(4242);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{17}, std::size_t{64},
                              std::size_t{65}}) {
    for (const Pos band : {0u, 1u, 3u, 9u}) {
      const std::vector<Value> query = gen.Row(n, /*allow_inf=*/false);
      const std::vector<Value> data = gen.Row(n + band + 2, false);
      const auto terms = [&] {
        const QueryEnvelope env(query, band);
        std::vector<Value> out;
        Value sum = 0.0;
        for (std::size_t j = 0; j < data.size(); ++j) {
          const Value t = env.ElementLb(j, data[j]);
          sum += t;
          out.push_back(t);
          out.push_back(sum);
        }
        return out;
      };
      const std::vector<Value> want = terms();
      ForEachBackend([&](const std::string& name) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     " band=" + std::to_string(band));
        EXPECT_TRUE(BitEqualRows(want, terms()));
      });
    }
  }
}

}  // namespace
}  // namespace tswarp::dtw::simd
