#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/file_util.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace p2pdb {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

// The CRC-32 definition, one bit at a time: reflected IEEE polynomial,
// initial state and final xor all ones.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t state = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state ^ 0xffffffffu;
}

// Every length 0-300 at every start offset 0-7 covers the eight-byte body
// and the byte tail at every alignment; the frame encoder checksums header
// and payload as two ranges, so every split point must agree too.
TEST(Crc32Test, MatchesBitwiseDefinitionAtEveryLengthOffsetAndSplit) {
  Rng rng(32);
  std::vector<uint8_t> buffer(8 + 300);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextBelow(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      const uint8_t* data = buffer.data() + offset;
      const uint32_t want = BitwiseCrc32(data, size);
      ASSERT_EQ(Crc32(data, size), want) << "offset " << offset << " size "
                                         << size;
      for (size_t split = 0; split <= size; ++split) {
        const uint32_t state = Crc32Update(kCrc32Init, data, split);
        ASSERT_EQ(Crc32Finish(Crc32Update(state, data + split, size - split)),
                  want)
            << "offset " << offset << " size " << size << " split " << split;
      }
    }
  }
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ", "), "x, y, z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimString("  a b \n"), "a b");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString(" \t\r\n"), "");
  EXPECT_EQ(TrimString("x"), "x");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix-rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(FileUtilTest, ReadFileReplacesTheBufferWithTheWholeFile) {
  // Larger than one read, with a zero byte inside, read as text and bytes.
  const std::string path = ::testing::TempDir() + "/p2pdb_read_file.bin";
  std::string written(200'000, 'x');
  written[7] = '\0';
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(written.data(), 1, written.size(), f), written.size());
  ASSERT_EQ(std::fclose(f), 0);

  std::string text = "stale";
  ASSERT_TRUE(ReadFile(path, &text).ok());
  EXPECT_EQ(text, written);
  std::vector<uint8_t> bytes = {1, 2, 3};
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), written);
  std::remove(path.c_str());

  Status missing = ReadFile(path, &text);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound) << missing.ToString();
  Status directory = ReadFile(::testing::TempDir(), &text);
  EXPECT_EQ(directory.code(), StatusCode::kInternal) << directory.ToString();
}

}  // namespace
}  // namespace p2pdb
