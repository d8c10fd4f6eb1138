#include "src/util/serde.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/util/rng.h"

namespace p2pdb {
namespace {

TEST(SerdeTest, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutVarint(0);
  w.PutVarint(127);
  w.PutVarint(128);
  w.PutVarint(~0ULL);
  w.PutI64(-1);
  w.PutI64(1LL << 62);
  w.PutString("hello");
  w.PutString("");

  Reader r(w.bytes());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.GetVarint(), 0u);
  EXPECT_EQ(*r.GetVarint(), 127u);
  EXPECT_EQ(*r.GetVarint(), 128u);
  EXPECT_EQ(*r.GetVarint(), ~0ULL);
  EXPECT_EQ(*r.GetI64(), -1);
  EXPECT_EQ(*r.GetI64(), 1LL << 62);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ReadsPastEndFail) {
  Writer w;
  w.PutU8(1);
  Reader r(w.bytes());
  EXPECT_TRUE(r.GetU8().ok());
  EXPECT_FALSE(r.GetU8().ok());
  EXPECT_FALSE(r.GetU32().ok());
  EXPECT_FALSE(r.GetU64().ok());
  EXPECT_FALSE(r.GetVarint().ok());
  EXPECT_FALSE(r.GetString().ok());
}

TEST(SerdeTest, TruncatedStringFails) {
  Writer w;
  w.PutVarint(100);  // Length prefix without the bytes.
  Reader r(w.bytes());
  EXPECT_FALSE(r.GetString().ok());
}

// Lengths near 2^64 must not wrap the bounds check: each read returns an
// error instead of throwing or moving the position backwards.
TEST(SerdeTest, HostileLengthsFailWithoutWrapping) {
  Writer w;
  w.PutVarint(UINT64_MAX - 1);  // String length prefix.
  w.PutString("abc");
  Reader strings(w.bytes());
  EXPECT_NO_THROW(EXPECT_FALSE(strings.GetString().ok()));

  std::vector<uint8_t> bytes{1, 2, 3, 4, 5, 6};
  Reader raw(bytes.data(), bytes.size());
  ASSERT_TRUE(raw.GetU32().ok());
  ASSERT_TRUE(raw.GetU8().ok());
  // At position 5, position + (SIZE_MAX - 3) wraps around to 1.
  EXPECT_NO_THROW(EXPECT_FALSE(raw.GetRaw(SIZE_MAX - 3).ok()));
  EXPECT_EQ(raw.remaining(), 1u);
  EXPECT_FALSE(raw.GetRaw(2).ok());
  auto last = raw.GetRaw(1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(**last, 6);
  EXPECT_TRUE(raw.AtEnd());
}

TEST(SerdeTest, MalformedVarintFails) {
  std::vector<uint8_t> bytes(11, 0x80);  // Never terminates within 64 bits.
  Reader r(bytes.data(), bytes.size());
  EXPECT_FALSE(r.GetVarint().ok());
}

class SerdeVarintSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeVarintSweep, VarintRoundTrips) {
  Writer w;
  w.PutVarint(GetParam());
  Reader r(w.bytes());
  EXPECT_EQ(*r.GetVarint(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, SerdeVarintSweep,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, (1ULL << 32),
                                           (1ULL << 63), ~0ULL));

TEST(SerdeTest, RandomSignedRoundTrip) {
  Rng rng(99);
  Writer w;
  std::vector<int64_t> values;
  for (int i = 0; i < 200; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next());
    values.push_back(v);
    w.PutI64(v);
  }
  Reader r(w.bytes());
  for (int64_t expected : values) {
    auto got = r.GetI64();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace p2pdb
