// TupleLog: parity with a std::set reference, watermark isolation across
// chunk and table growth, rows and tuples as one entry, and one writer
// appending under concurrent readers of its inline rows (a TSan target).
#include "src/relational/tuple_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/rng.h"

namespace p2pdb::rel {
namespace {

/// Entries of `view` whose value at `column` is `key`, via the column index.
std::vector<Tuple> Lookup(const LogView& view, size_t column,
                          const Value& key) {
  std::vector<Tuple> out;
  for (size_t e = view.First(column, key); e != TupleLog::kNone;
       e = view.Next(column, e)) {
    out.emplace_back(view.at(e));
  }
  return out;
}

/// A random 3-ary tuple: a low-cardinality int column (long chains), a
/// high-cardinality string column (many column-table growths) and a column
/// mixing ints and nulls.
Tuple RandomTuple(Rng* rng) {
  const uint64_t third = rng->NextBelow(50);
  return Tuple({Value::Int(static_cast<int64_t>(rng->NextBelow(13))),
                Value::Str("s" + std::to_string(rng->NextBelow(4000))),
                third % 2 == 0 ? Value::Int(static_cast<int64_t>(third))
                               : Value::Null(third)});
}

/// Fills `log` (arity 3) with random draws and checks it against a std::set
/// reference: scan order, membership, and lookups on every column it
/// indexes. The other columns must report no index.
void ExpectSetParity(TupleLog* log, const std::vector<size_t>& indexed) {
  Rng rng(7);
  std::set<Tuple> reference;
  std::vector<Tuple> order;  // Reference insertion order.
  // 6000 draws cross ten chunk boundaries (8, 24, 56, ...) and grow every
  // table several times; the draws repeat tuples, so Append must dedup.
  for (int i = 0; i < 6000; ++i) {
    Tuple t = RandomTuple(&rng);
    const bool added = reference.insert(t).second;
    EXPECT_EQ(log->Append(t), added);
    if (added) order.push_back(t);
  }
  ASSERT_EQ(log->size(), reference.size());
  const LogView view(log, log->size());

  // Scan: exactly the reference, in insertion order.
  for (size_t e = 0; e < view.size(); ++e) EXPECT_EQ(view.at(e), order[e]);

  // Membership: every member hits; near misses do not.
  for (const Tuple& t : reference) EXPECT_TRUE(view.Contains(t));
  for (int i = 0; i < 500; ++i) {
    Tuple probe = RandomTuple(&rng);
    EXPECT_EQ(view.Contains(probe), reference.count(probe) > 0);
  }
  EXPECT_FALSE(view.Contains(Tuple({Value::Int(0), Value::Str("s0")})));

  // Per-column lookup: each key's chain is the reference's tuples with that
  // value, oldest first.
  for (size_t column = 0; column < 3; ++column) {
    const bool want = std::count(indexed.begin(), indexed.end(), column) > 0;
    ASSERT_EQ(log->indexed(column), want) << "column " << column;
    if (!want) continue;
    std::map<Value, std::vector<Tuple>> expected;
    for (const Tuple& t : order) expected[t.at(column)].push_back(t);
    for (const auto& [key, tuples] : expected) {
      EXPECT_EQ(Lookup(view, column, key), tuples) << "column " << column;
    }
    EXPECT_TRUE(Lookup(view, column, Value::Str("absent")).empty());
  }
}

TEST(TupleLogTest, MatchesSetReference) {
  TupleLog log(3);
  ExpectSetParity(&log, {0, 1, 2});
}

// A log given a subset of its columns keeps the same entries and membership
// and answers lookups on those columns alike; repeats in the subset count
// once.
TEST(TupleLogTest, ColumnSubsetMatchesSetReference) {
  for (const std::vector<size_t>& columns :
       std::vector<std::vector<size_t>>{{}, {2}, {1}, {2, 0, 2}}) {
    SCOPED_TRACE(::testing::PrintToString(columns));
    TupleLog log(3, columns);
    ExpectSetParity(&log, columns);
  }
}

TEST(TupleLogTest, ViewNeverSeesLaterAppends) {
  TupleLog log(2);
  auto row = [](int i) { return Tuple({Value::Int(i % 5), Value::Int(i)}); };
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(log.Append(row(i)));
  const LogView early(&log, log.size());
  // Grow past several chunks and every table's first capacity.
  for (int i = 20; i < 5000; ++i) ASSERT_TRUE(log.Append(row(i)));
  const LogView late(&log, log.size());

  EXPECT_EQ(early.size(), 20u);
  EXPECT_TRUE(early.Contains(row(19)));
  EXPECT_FALSE(early.Contains(row(20)));
  EXPECT_FALSE(early.Contains(row(4999)));
  EXPECT_TRUE(late.Contains(row(4999)));
  EXPECT_EQ(Lookup(early, 0, Value::Int(3)).size(), 4u);    // 3, 8, 13, 18.
  EXPECT_EQ(Lookup(late, 0, Value::Int(3)).size(), 1000u);
  EXPECT_TRUE(Lookup(early, 1, Value::Int(20)).empty());
  EXPECT_EQ(Lookup(late, 1, Value::Int(20)).size(), 1u);

  // An empty view and a missing relation answer nothing.
  const LogView none(&log, 0);
  EXPECT_FALSE(none.Contains(row(0)));
  EXPECT_EQ(none.First(0, Value::Int(0)), TupleLog::kNone);
  EXPECT_FALSE(LogView());
}

// Entries live inline: a row appended from a scratch buffer is copied, so
// overwriting the buffer afterwards changes nothing in the log.
TEST(TupleLogTest, RowFromScratchKeepsItsValuesAfterTheBufferChanges) {
  TupleLog log(2, {0});
  std::vector<Value> scratch = {Value::Int(1), Value::Str("a")};
  ASSERT_TRUE(log.Append(Row(scratch.data(), scratch.size())));
  scratch = {Value::Int(2), Value::Str("b")};
  ASSERT_TRUE(log.Append(Row(scratch.data(), scratch.size())));
  scratch.assign({Value::Int(9), Value::Str("z")});
  const LogView view(&log, log.size());
  EXPECT_EQ(view.at(0), Tuple({Value::Int(1), Value::Str("a")}));
  EXPECT_EQ(view.at(1), Tuple({Value::Int(2), Value::Str("b")}));
  EXPECT_EQ(Lookup(view, 0, Value::Int(1)),
            std::vector<Tuple>{Tuple({Value::Int(1), Value::Str("a")})});
  EXPECT_FALSE(view.Contains(Row(scratch.data(), scratch.size())));
}

// A row and a tuple with the same values are one entry, whichever form
// appended it or asks for it.
TEST(TupleLogTest, RowsAndTuplesAreTheSameEntries) {
  TupleLog log(2, {});
  const Tuple as_tuple({Value::Str("t"), Value::Null(3)});
  const std::vector<Value> values = {Value::Str("r"), Value::Int(-4)};
  const Row as_row(values.data(), values.size());
  ASSERT_TRUE(log.Append(as_row));
  ASSERT_TRUE(log.Append(as_tuple));
  const LogView view(&log, log.size());
  EXPECT_TRUE(view.Contains(Tuple(as_row)));
  EXPECT_TRUE(view.Contains(Row(as_tuple)));
  EXPECT_FALSE(log.Append(Tuple(as_row)));
  EXPECT_FALSE(log.Append(Row(as_tuple)));
  EXPECT_EQ(log.size(), 2u);
}

TEST(TupleLogTest, RowAndTupleWithEqualValuesHashAndCompareEqual) {
  const Tuple tuple({Value::Int(7), Value::Str("x"), Value::Null(1)});
  const std::vector<Value> values = tuple.values();
  const Row row(values.data(), values.size());
  EXPECT_EQ(row, tuple);
  EXPECT_EQ(tuple, row);
  EXPECT_EQ(row.Hash(), tuple.Hash());
  EXPECT_EQ(Tuple(row), tuple);
  EXPECT_EQ(row.ToString(), tuple.ToString());
  EXPECT_FALSE(row < tuple || tuple < row);
  // A proper prefix orders first and differs.
  const Row prefix(values.data(), 2);
  EXPECT_NE(prefix, tuple);
  EXPECT_TRUE(prefix < tuple);
  EXPECT_FALSE(tuple < prefix);
}

TEST(TupleLogTest, ReadersSeeConsistentPrefixesWhileWriterAppends) {
  constexpr int kKeys = 7;
  constexpr int kEntries = 20000;
  auto row = [](int i) {
    return Tuple({Value::Int(i % kKeys), Value::Str("v" + std::to_string(i))});
  };
  TupleLog log(2);
  // Stands in for SnapshotStore: the writer release-stores a watermark after
  // appending below it; readers acquire it.
  std::atomic<size_t> published{0};
  std::atomic<bool> done{false};

  auto reader = [&](int id) {
    Rng rng(static_cast<uint64_t>(id) + 1);
    size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const size_t w = published.load(std::memory_order_acquire);
      ASSERT_GE(w, last);  // Monotone size.
      last = w;
      ASSERT_LE(w, log.size());
      const LogView view(&log, w);
      if (w > 0) {
        const int below = static_cast<int>(rng.NextBelow(w));
        ASSERT_TRUE(view.Contains(row(below)));
        ASSERT_EQ(view.at(static_cast<size_t>(below)), row(below));
      }
      ASSERT_FALSE(view.Contains(row(static_cast<int>(w))));
      // Exact per-key count: entries i < w with i % kKeys == key.
      const int key = static_cast<int>(rng.NextBelow(kKeys));
      const size_t expected =
          w / kKeys + (static_cast<size_t>(key) < w % kKeys ? 1 : 0);
      size_t count = 0;
      for (size_t e = view.First(0, Value::Int(key)); e != TupleLog::kNone;
           e = view.Next(0, e)) {
        ASSERT_EQ(view.at(e).at(0), Value::Int(key));
        ++count;
      }
      ASSERT_EQ(count, expected);
    }
  };

  std::thread r1(reader, 1), r2(reader, 2);
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_TRUE(log.Append(row(i)));
    if (i % 16 == 15) published.store(log.size(), std::memory_order_release);
  }
  published.store(log.size(), std::memory_order_release);
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_EQ(log.size(), static_cast<size_t>(kEntries));
}

}  // namespace
}  // namespace p2pdb::rel
