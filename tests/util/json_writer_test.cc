#include "util/json_writer.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tsc {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// The text one Value(double) call emits.
std::string Emit(double value) {
  JsonWriter json;
  json.Value(value);
  return json.str();
}

/// Emits `value`, parses the text back with strtod and requires the same
/// bit pattern (so -0.0 must stay -0.0).
void ExpectRoundTrip(double value) {
  const std::string text = Emit(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  EXPECT_EQ(*end, '\0') << text;
  EXPECT_EQ(Bits(parsed), Bits(value)) << text;
}

TEST(JsonWriterTest, DoublesRoundTripBitForBit) {
  const std::vector<double> edges = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 3.0,  // subnormal
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      1e300,
      -1e300,
      1e-300,
      -1e-300,
      0.1,
      1.0 / 3.0,
      9007199254740992.0,  // 2^53
      -9007199254740991.0,
  };
  for (const double value : edges) ExpectRoundTrip(value);
}

TEST(JsonWriterTest, IntegralDoublesUpTo2To53PrintAsIntegers) {
  EXPECT_EQ(Emit(0.0), "0");
  EXPECT_EQ(Emit(-0.0), "-0");
  EXPECT_EQ(Emit(100.0), "100");
  EXPECT_EQ(Emit(9007199254740992.0), "9007199254740992");
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto n = static_cast<std::int64_t>(rng() >> 11);  // < 2^53
    const double value = static_cast<double>(i % 2 == 0 ? n : -n);
    EXPECT_EQ(Emit(value), std::to_string(i % 2 == 0 ? n : -n));
    ExpectRoundTrip(value);
  }
}

TEST(JsonWriterTest, RandomDoublesRoundTripBitForBit) {
  std::mt19937_64 rng(42);
  std::normal_distribution<double> normal(0.0, 1e3);
  for (int i = 0; i < 5000; ++i) ExpectRoundTrip(normal(rng));
  // Random bit patterns cover every exponent; skip inf and NaN.
  int tested = 0;
  while (tested < 5000) {
    const std::uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    ExpectRoundTrip(value);
    ++tested;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Value(std::numeric_limits<double>::infinity());
  json.Value(-std::numeric_limits<double>::infinity());
  json.Value(std::numeric_limits<double>::quiet_NaN());
  json.Value(-std::numeric_limits<double>::quiet_NaN());
  json.EndArray();
  EXPECT_EQ(json.str(), "[null,null,null,null]");
}

TEST(JsonWriterTest, IntegersUseTheirFullRange) {
  JsonWriter json;
  json.BeginArray();
  json.Value(std::uint64_t{0});
  json.Value(std::numeric_limits<std::uint64_t>::max());
  json.Value(std::numeric_limits<std::int64_t>::min());
  json.Value(std::int64_t{-7});
  json.Value(true).Value(false).Null();
  json.EndArray();
  EXPECT_EQ(json.str(),
            "[0,18446744073709551615,-9223372036854775808,-7,true,false,"
            "null]");
}

TEST(JsonWriterTest, StringsAndKeysAreEscaped) {
  const std::string raw = std::string("q\"b\\n\nr\rt\tz") + '\x01' + '\x1f' +
                          '\0' + "\x7f" + "\xc3\xa9";
  const std::string escaped =
      "q\\\"b\\\\n\\nr\\rt\\tz\\u0001\\u001f\\u0000\x7f\xc3\xa9";
  EXPECT_EQ(JsonWriter::Escape(raw), escaped);
  EXPECT_EQ(JsonWriter::Escape(""), "");
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");

  JsonWriter json;
  json.BeginObject();
  json.KV(raw, raw);
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
}

TEST(JsonWriterTest, CommasSeparateNestedElements) {
  JsonWriter json;
  json.BeginObject();
  json.Key("empty_array").BeginArray().EndArray();
  json.Key("empty_object").BeginObject().EndObject();
  json.Key("rows").BeginArray();
  for (int r = 0; r < 2; ++r) {
    json.BeginArray();
    json.Value(std::uint64_t(r)).Value(0.5);
    json.EndArray();
  }
  json.BeginObject().KV("k", 1.5).KV("s", "x").EndObject();
  json.EndArray();
  json.Key("raw").RawValue("[1,2]");
  json.KV("last", std::int64_t{-1});
  json.EndObject();
  EXPECT_EQ(json.str(),
            "{\"empty_array\":[],\"empty_object\":{},"
            "\"rows\":[[0,0.5],[1,0.5],{\"k\":1.5,\"s\":\"x\"}],"
            "\"raw\":[1,2],\"last\":-1}");
}

TEST(JsonWriterTest, ReleaseMovesTheTextOut) {
  JsonWriter json;
  json.BeginArray().Value(2.5).EndArray();
  EXPECT_EQ(json.Release(), "[2.5]");
}

}  // namespace
}  // namespace tsc
