// Unit tests for the util layer: rng, intmath, stats, csv, serial,
// assertions.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "util/assertions.hpp"
#include "util/csv.hpp"
#include "util/intmath.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "util/stats.hpp"

namespace dlb {
namespace {

// ---------------------------------------------------------------- rng --

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformU64StaysBelowBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformIntCoversClosedRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) heads += rng.bernoulli(0.5);
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(23);
  Rng child = a.split();
  // Child stream should not replicate the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == child.next());
  EXPECT_LT(equal, 4);
}

// ------------------------------------------------------------ intmath --

TEST(IntMath, FloorDivMatchesMathematicalFloor) {
  EXPECT_EQ(floor_div(7, 3), 2);
  EXPECT_EQ(floor_div(6, 3), 2);
  EXPECT_EQ(floor_div(-7, 3), -3);
  EXPECT_EQ(floor_div(-6, 3), -2);
  EXPECT_EQ(floor_div(0, 5), 0);
}

TEST(IntMath, CeilDivMatchesMathematicalCeil) {
  EXPECT_EQ(ceil_div(7, 3), 3);
  EXPECT_EQ(ceil_div(6, 3), 2);
  EXPECT_EQ(ceil_div(-7, 3), -2);
  EXPECT_EQ(ceil_div(-6, 3), -2);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(IntMath, FloorModAlwaysNonNegative) {
  for (std::int64_t a = -20; a <= 20; ++a) {
    for (std::int64_t b : {1, 2, 3, 7}) {
      const auto m = floor_mod(a, b);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, b);
      EXPECT_EQ(floor_div(a, b) * b + m, a);
    }
  }
}

TEST(IntMath, RoundNearestTiesUp) {
  EXPECT_EQ(round_nearest_div(5, 2), 3);   // 2.5 -> 3
  EXPECT_EQ(round_nearest_div(4, 2), 2);
  EXPECT_EQ(round_nearest_div(7, 4), 2);   // 1.75 -> 2
  EXPECT_EQ(round_nearest_div(5, 4), 1);   // 1.25 -> 1
  EXPECT_EQ(round_nearest_div(-5, 2), -2); // -2.5 -> -2 (ties up)
  EXPECT_EQ(round_nearest_div(-7, 4), -2); // -1.75 -> -2
}

TEST(IntMath, NonNegDivMatchesHardwareDivision) {
  // Power-of-two divisors take the shift/mask fast path, the others the
  // hardware division path; both must agree with plain '/' and '%' for
  // every non-negative dividend.
  for (std::int64_t d : {1, 2, 4, 8, 16, 1024, 3, 5, 7, 12, 100}) {
    const NonNegDiv div(d);
    EXPECT_EQ(div.divisor(), d);
    for (std::int64_t x :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{6}, std::int64_t{7},
          std::int64_t{8}, std::int64_t{1000}, std::int64_t{12345678},
          std::int64_t{1} << 62}) {
      EXPECT_EQ(div.quot(x), x / d) << "x=" << x << " d=" << d;
      EXPECT_EQ(div.rem(x), x % d) << "x=" << x << " d=" << d;
      EXPECT_EQ(div.quot(x) * d + div.rem(x), x) << "x=" << x << " d=" << d;
    }
  }
}

TEST(IntMath, NonNegDivRejectsNonPositiveDivisor) {
  EXPECT_THROW(NonNegDiv(0), invariant_error);
  EXPECT_THROW(NonNegDiv(-4), invariant_error);
}

class IntMathPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(IntMathPropertyTest, FloorCeilRelation) {
  const std::int64_t b = GetParam();
  for (std::int64_t a = -50; a <= 50; ++a) {
    EXPECT_LE(floor_div(a, b), ceil_div(a, b));
    EXPECT_LE(ceil_div(a, b) - floor_div(a, b), 1);
    EXPECT_EQ(floor_div(a, b) == ceil_div(a, b), a % b == 0);
    const auto nearest = round_nearest_div(a, b);
    EXPECT_GE(nearest, floor_div(a, b));
    EXPECT_LE(nearest, ceil_div(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Divisors, IntMathPropertyTest,
                         ::testing::Values<std::int64_t>(1, 2, 3, 4, 5, 7, 8,
                                                         12, 16, 31));

// -------------------------------------------------------------- stats --

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MeanAndMedian) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, OlsSlopeRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  EXPECT_NEAR(ols_slope(x, y), 3.0, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4}, y{2, 4, 6, 8}, z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, EmptyInputsThrow) {
  EXPECT_THROW(mean({}), invariant_error);
  EXPECT_THROW(median({}), invariant_error);
}

// ---------------------------------------------------------------- csv --

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  w.row({"1", "2"});
  w.row({"x", "y"});
  EXPECT_EQ(out.str(), "a,b\n1,2\nx,y\n");
  EXPECT_EQ(w.rows_written(), 3u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, EscapeHandlesCarriageReturnAndMixedSpecials) {
  EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
  // Custom ShapeCase/WorkloadCase names can carry both commas and quotes
  // (e.g. poisson(in=0.5,out=0.5) or a "quoted" label): the field must be
  // wrapped and every inner quote doubled, per RFC 4180.
  EXPECT_EQ(CsvWriter::escape("poisson(in=0.5,out=0.5)"),
            "\"poisson(in=0.5,out=0.5)\"");
  EXPECT_EQ(CsvWriter::escape("say \"a,b\""), "\"say \"\"a,b\"\"\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, RowsQuoteFieldsEndToEnd) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"name", "value"});
  w.row({"counter(in=1/4,out=1/4)", "7"});
  EXPECT_EQ(out.str(), "name,value\n\"counter(in=1/4,out=1/4)\",7\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  std::ostringstream out;
  CsvWriter w(out);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), invariant_error);
}

TEST(Csv, RowBeforeHeaderThrows) {
  std::ostringstream out;
  CsvWriter w(out);
  EXPECT_THROW(w.row({"x"}), invariant_error);
}

// ------------------------------------------------------------- serial --

/// The wire format spelled out: a u64 length, then each element's bits
/// (`width` bytes) least significant byte first.
std::vector<std::uint8_t> byte_loop(const std::vector<std::uint64_t>& bits,
                                    int width) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits.size() >> (8 * i)));
  }
  for (const std::uint64_t x : bits) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
  }
  return out;
}

TEST(Serial, BulkSequencesMatchTheByteLoopAndRoundTrip) {
  Rng rng(2026);
  for (const std::size_t len : {0, 1, 3, 7, 64, 1001}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<std::int64_t> i64s(len);
    std::vector<std::int32_t> i32s(len);
    std::vector<int> ints(len);
    std::vector<double> f64s(len);
    std::vector<std::uint64_t> bits64(len), bits32(len), bitsf(len);
    for (std::size_t i = 0; i < len; ++i) {
      i64s[i] = static_cast<std::int64_t>(rng.next());
      i32s[i] = static_cast<std::int32_t>(rng.next());
      ints[i] = static_cast<int>(rng.next());
      f64s[i] = std::bit_cast<double>(rng.next());
      bits64[i] = static_cast<std::uint64_t>(i64s[i]);
      bits32[i] = static_cast<std::uint32_t>(i32s[i]);
      bitsf[i] = std::bit_cast<std::uint64_t>(f64s[i]);
    }
    std::vector<std::uint64_t> bits_int(len);
    for (std::size_t i = 0; i < len; ++i) {
      bits_int[i] = static_cast<std::uint32_t>(ints[i]);
    }
    StateWriter w;
    w.u8(0xA5);  // odd offset: the spans start unaligned
    w.vec_i64(i64s);
    w.vec_i32(i32s);
    w.vec_int(ints);
    w.vec_f64(f64s);
    std::vector<std::uint8_t> expected{0xA5};
    for (const auto& part :
         {byte_loop(bits64, 8), byte_loop(bits32, 4), byte_loop(bits_int, 4),
          byte_loop(bitsf, 8)}) {
      expected.insert(expected.end(), part.begin(), part.end());
    }
    ASSERT_EQ(w.data(), expected);

    StateReader r(w.data());
    EXPECT_EQ(r.u8(), 0xA5);
    EXPECT_EQ(r.vec_i64(), i64s);
    EXPECT_EQ(r.vec_i32(), i32s);
    EXPECT_EQ(r.vec_int(), ints);
    const std::vector<double> back = r.vec_f64();
    ASSERT_EQ(back.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), bitsf[i]);
    }
    EXPECT_TRUE(r.done());
  }
}

TEST(Serial, ForgedSequenceLengthThrowsBeforeAllocating) {
  // A length that allocated first would throw bad_alloc / length_error
  // (or exhaust memory) instead of serial_error.
  for (const std::uint64_t forged :
       {std::numeric_limits<std::uint64_t>::max(), std::uint64_t{1} << 61,
        std::uint64_t{6}}) {
    SCOPED_TRACE("forged length " + std::to_string(forged));
    StateWriter w;
    w.u64(forged);
    for (int i = 0; i < 23; ++i) w.u8(0);  // 2 whole i64s, 5 whole i32s
    const std::vector<std::uint8_t> bytes = w.take();
    EXPECT_THROW(StateReader(bytes).vec_i64(), serial_error);
    EXPECT_THROW(StateReader(bytes).vec_i32(), serial_error);
    EXPECT_THROW(StateReader(bytes).vec_int(), serial_error);
    EXPECT_THROW(StateReader(bytes).vec_f64(), serial_error);
  }
}

// --------------------------------------------------------- assertions --

TEST(Assertions, RequireThrowsWithMessage) {
  try {
    DLB_REQUIRE(1 == 2, "custom context");
    FAIL() << "expected invariant_error";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Assertions, RequirePassesSilently) {
  EXPECT_NO_THROW(DLB_REQUIRE(2 + 2 == 4, "math works"));
}

}  // namespace
}  // namespace dlb
