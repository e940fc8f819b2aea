#include "common/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/rng.h"

namespace targad {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, SingleFieldWithoutDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, StripsWhitespaceBothSides) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nz\r "), "z");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"x"}, ","), "x");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble(" 42 ", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("nan", &v));  // Non-finite rejected.
  EXPECT_FALSE(ParseDouble("inf", &v));
}

// The accept set and values of the original strtod-only ParseDouble: the
// reference every input below is checked against.
bool StrtodReference(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ParseDoubleTest, EdgeInputContract) {
  struct Case {
    const char* input;
    bool ok;
    double value;
  };
  const Case cases[] = {
      {"+1", true, 1.0},         // strtod-only syntax: leading plus.
      {"0x10", true, 16.0},      // strtod-only syntax: hex.
      {"1e-310", false, 0.0},    // Subnormal: strtod reports ERANGE.
      {"4.9e-324", false, 0.0},  // Smallest subnormal, same.
      {"1e-400", false, 0.0},    // Underflow to zero.
      {"1e400", false, 0.0},     // Overflow.
      {"-0", true, -0.0},
      {".5", true, 0.5},
      {"5.", true, 5.0},
      {"1e", false, 0.0},
      {"e5", false, 0.0},
      {" 1.5 ", true, 1.5},
      {"1,5", false, 0.0},
      {"inf", false, 0.0},
      {"nan", false, 0.0},
      {"", false, 0.0},
      {"-", false, 0.0},
      {"2.2250738585072014e-308", true, 2.2250738585072014e-308},  // DBL_MIN.
      {"1.7976931348623157e308", true, 1.7976931348623157e308},    // DBL_MAX.
      {"0e-999", true, 0.0},
      // The plain-decimal fast path at its edges. 19 and 20 significant
      // digits exceed its 2^53 significand bound and take the old path.
      {"1234567890123456789", true, 1234567890123456789.0},
      {"12345678901234567890", true, 12345678901234567890.0},
      {"0.1234567890123456789", true, 0.1234567890123456789},
      {"9007199254740992", true, 9007199254740992.0},  // 2^53: fast.
      {"9007199254740993", true, 9007199254740992.0},  // 2^53+1: rounds.
      {"-9007199254740993", true, -9007199254740992.0},
      {"9007199254740992.5", true, 9007199254740992.0},
      {"900719925474099.3", true, 900719925474099.3},
      {"0.0000000000000000000001", true, 1e-22},   // 22 fraction digits.
      {"0.00000000000000000000001", true, 1e-23},  // 23: old path.
      {"1.0000000000000000000001", true, 1.0},
      {"-0.000000", true, -0.0},  // The sign bit survives.
      {"-0", true, -0.0},
      {"007.50", true, 7.5},  // Leading zeros.
      {"-000", true, -0.0},
      {"0000000000000000000000000000001.5", true, 1.5},
      {"-.5", true, -0.5},
      {"-5.", true, -5.0},
      {".", false, 0.0},
      {"-.", false, 0.0},
      {"1.2.3", false, 0.0},
      {"1-2", false, 0.0},
      {"--1", false, 0.0},
      {" 0.565434", true, 0.565434},  // Padded: the old path trims.
      {"0.565434\t", true, 0.565434},
      {"\r-0.25\r", true, -0.25},
      {"0.565434", true, 0.565434},
      {"+0.5", true, 0.5},
      {"0.1", true, 0.1},
      {"123456.789", true, 123456.789},
  };
  for (const Case& c : cases) {
    double v = 12345.0;
    EXPECT_EQ(ParseDouble(c.input, &v), c.ok) << "'" << c.input << "'";
    if (c.ok) {
      EXPECT_EQ(Bits(v), Bits(c.value)) << "'" << c.input << "'";
    } else {
      EXPECT_EQ(v, 12345.0) << "'" << c.input << "' wrote on failure";
    }
    double ref = 0.0;
    EXPECT_EQ(StrtodReference(c.input, &ref), c.ok) << "'" << c.input << "'";
    if (c.ok) {
      EXPECT_EQ(Bits(v), Bits(ref)) << "'" << c.input << "'";
    }
  }
}

// Seeded sweep: random doubles (uniform bit patterns, so NaN, infinities
// and subnormals included, plus log-uniform magnitudes) in three printf
// formats must parse to exactly the bits and verdict of the reference.
TEST(ParseDoubleTest, MatchesStrtodOnRandomDoubles) {
  Rng rng(20240412);
  const char* const formats[] = {"%.17g", "%f", "%e"};
  char buf[512];
  size_t accepted = 0;
  for (int i = 0; i < 33334; ++i) {
    double x = 0.0;
    if (i % 2 == 0) {
      const uint64_t bits = rng.Next();
      std::memcpy(&x, &bits, sizeof(x));
    } else {
      x = std::pow(10.0, rng.Uniform(-320.0, 308.0)) *
          (rng.Bernoulli(0.5) ? -1.0 : 1.0);
    }
    for (const char* format : formats) {
      std::snprintf(buf, sizeof(buf), format, x);
      double expected = 0.0, actual = 0.0;
      const bool expected_ok = StrtodReference(buf, &expected);
      ASSERT_EQ(ParseDouble(buf, &actual), expected_ok) << buf;
      if (expected_ok) {
        ASSERT_EQ(Bits(actual), Bits(expected)) << buf;
        ++accepted;
      }
    }
  }
  EXPECT_GT(accepted, 80000u);  // Most of the sweep exercises the fast path.
}

// Seeded sweep over the fast path's domain: fixed-point printouts with
// N = 0..22 fraction digits of random doubles across magnitudes, plus
// short random digit strings. Every one must match the reference bits and
// verdict.
TEST(ParseDoubleTest, MatchesStrtodOnFixedPointFormats) {
  Rng rng(20241017);
  char buf[512];
  size_t accepted = 0;
  auto check = [&](const char* text) {
    double expected = 0.0, actual = 0.0;
    const bool expected_ok = StrtodReference(text, &expected);
    EXPECT_EQ(ParseDouble(text, &actual), expected_ok) << text;
    if (expected_ok) {
      EXPECT_EQ(Bits(actual), Bits(expected)) << text;
      ++accepted;
    }
  };
  for (int i = 0; i < 8000; ++i) {
    const double x = std::pow(10.0, rng.Uniform(-12.0, 17.0)) *
                     (rng.Bernoulli(0.5) ? -1.0 : 1.0);
    for (int n = 0; n <= 22; ++n) {
      std::snprintf(buf, sizeof(buf), "%.*f", n, x);
      check(buf);
    }
    // 1 to 17 random digits with the point anywhere (or nowhere).
    const int digits = 1 + static_cast<int>(rng.Uniform(0.0, 17.0));
    const int point = static_cast<int>(rng.Uniform(0.0, digits + 1.0));
    std::string text = rng.Bernoulli(0.5) ? "-" : "";
    for (int d = 0; d < digits; ++d) {
      if (d == point && d > 0) text += '.';
      text += static_cast<char>('0' + static_cast<int>(rng.Uniform(0.0, 10.0)));
    }
    check(text.c_str());
  }
  EXPECT_EQ(accepted, 8000u * 24u);
}

TEST(ParseIntTest, ParsesValidIntegers) {
  long v = 0;  // NOLINT(runtime/int)
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseIntTest, RejectsNonIntegers) {
  long v = 0;  // NOLINT(runtime/int)
  EXPECT_FALSE(ParseInt("3.5", &v));
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("12abc", &v));
}

TEST(FormatDoubleTest, RespectsPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatDouble(-1.0, 0), "-1");
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(EnvTest, FallsBackWhenUnset) {
  unsetenv("TARGAD_TEST_ENV_VAR");
  EXPECT_DOUBLE_EQ(GetEnvDouble("TARGAD_TEST_ENV_VAR", 2.5), 2.5);
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 3), 3);
  EXPECT_EQ(GetEnvString("TARGAD_TEST_ENV_VAR", "d"), "d");
}

TEST(EnvTest, ReadsSetValues) {
  setenv("TARGAD_TEST_ENV_VAR", "1.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("TARGAD_TEST_ENV_VAR", 0.0), 1.5);
  setenv("TARGAD_TEST_ENV_VAR", "7", 1);
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 0), 7);
  setenv("TARGAD_TEST_ENV_VAR", "hello", 1);
  EXPECT_EQ(GetEnvString("TARGAD_TEST_ENV_VAR", ""), "hello");
  // Unparsable values fall back.
  EXPECT_EQ(GetEnvInt("TARGAD_TEST_ENV_VAR", 9), 9);
  unsetenv("TARGAD_TEST_ENV_VAR");
}

}  // namespace
}  // namespace targad
