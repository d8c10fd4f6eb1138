#include "src/relational/relation.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/relational/database.h"

namespace p2pdb::rel {
namespace {

RelationSchema PairSchema() { return RelationSchema("r", {"x", "y"}); }

TEST(SchemaTest, AttributeLookup) {
  RelationSchema s("r", {"a", "b", "c"});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(*s.AttributeIndex("b"), 1u);
  EXPECT_FALSE(s.AttributeIndex("z").ok());
  EXPECT_EQ(s.ToString(), "r(a, b, c)");
}

TEST(TupleTest, OrderingAndHash) {
  Tuple a({Value::Int(1), Value::Int(2)});
  Tuple b({Value::Int(1), Value::Int(3)});
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(a.Hash(), Tuple({Value::Int(1), Value::Int(2)}).Hash());
  Tuple shorter({Value::Int(1)});
  EXPECT_LT(shorter, a);
}

TEST(TupleTest, HasNull) {
  EXPECT_FALSE(Tuple({Value::Int(1)}).HasNull());
  EXPECT_TRUE(Tuple({Value::Int(1), Value::Null(9)}).HasNull());
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(PairSchema());
  EXPECT_TRUE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(*r.Insert(Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertChecksArity) {
  Relation r(PairSchema());
  EXPECT_FALSE(r.Insert(Tuple({Value::Int(1)})).ok());
}

TEST(RelationTest, Contains) {
  Relation r(PairSchema());
  Tuple t({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(r.Contains(t));
  (void)r.Insert(t);
  EXPECT_TRUE(r.Contains(t));
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(2), Value::Int(1)})));
}

TEST(RelationTest, SortedTuplesIgnoreInsertionOrder) {
  Relation r(PairSchema());
  for (int64_t x : {3, 1, 2, 1}) {
    (void)r.Insert(Tuple({Value::Int(x), Value::Int(-x)}));
  }
  EXPECT_EQ(r.size(), 3u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.Contains(Tuple({Value::Int(2), Value::Int(-2)})));
  EXPECT_FALSE(r.Contains(Tuple({Value::Int(2), Value::Int(2)})));
  // The log keeps arrival order; the sorted copy does not depend on it.
  EXPECT_EQ(r.View().at(0), Tuple({Value::Int(3), Value::Int(-3)}));
  EXPECT_EQ(r.SortedTuples(),
            (std::vector<Tuple>{Tuple({Value::Int(1), Value::Int(-1)}),
                                Tuple({Value::Int(2), Value::Int(-2)}),
                                Tuple({Value::Int(3), Value::Int(-3)})}));
  EXPECT_TRUE(Relation(PairSchema()).SortedTuples().empty());
}

TEST(RelationTest, CertainTuplesExcludeNulls) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Null(5)}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.CertainTuples().size(), 1u);
}

// Entries of `view` whose value at `column` is `key`, via the column index.
std::vector<Tuple> Lookup(const LogView& view, size_t column,
                          const Value& key) {
  std::vector<Tuple> out;
  for (size_t e = view.First(column, key); e != TupleLog::kNone;
       e = view.Next(column, e)) {
    out.emplace_back(view.at(e));
  }
  return out;
}

TEST(RelationTest, IndexFindsMatches) {
  Relation r(PairSchema());
  for (int i = 0; i < 10; ++i) {
    (void)r.Insert(Tuple({Value::Int(i % 3), Value::Int(i)}));
  }
  // i = 1, 4, 7, in insertion order.
  EXPECT_EQ(Lookup(r.View(), 0, Value::Int(1)),
            (std::vector<Tuple>{Tuple({Value::Int(1), Value::Int(1)}),
                                Tuple({Value::Int(1), Value::Int(4)}),
                                Tuple({Value::Int(1), Value::Int(7)})}));
  EXPECT_EQ(Lookup(r.View(), 1, Value::Int(9)).size(), 1u);
  EXPECT_TRUE(Lookup(r.View(), 0, Value::Int(5)).empty());
}

TEST(RelationTest, LogIndexesEveryColumn) {
  Relation r(RelationSchema("t", {"a", "b", "c"}));
  for (size_t column = 0; column < 3; ++column) {
    EXPECT_TRUE(r.log().indexed(column)) << "column " << column;
  }
  EXPECT_TRUE(Relation(r).log().indexed(2));
}

TEST(RelationTest, IndexFollowsInserts) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(1)}));
  const LogView before = r.View();
  EXPECT_EQ(Lookup(before, 0, Value::Int(1)).size(), 1u);
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(2)}));  // Duplicate.
  EXPECT_EQ(Lookup(r.View(), 0, Value::Int(1)).size(), 2u);
  // A view taken earlier keeps its watermark.
  EXPECT_EQ(Lookup(before, 0, Value::Int(1)).size(), 1u);
}

TEST(RelationTest, CopyGetsItsOwnLog) {
  Relation r(PairSchema());
  (void)r.Insert(Tuple({Value::Int(2), Value::Int(0)}));
  (void)r.Insert(Tuple({Value::Int(1), Value::Int(0)}));
  Relation copy = r;
  EXPECT_NE(&copy.log(), &r.log());
  (void)copy.Insert(Tuple({Value::Int(3), Value::Int(0)}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.View().size(), 2u);
  EXPECT_EQ(copy.View().size(), 3u);
  // The copy's log keeps the source's insertion order.
  EXPECT_EQ(copy.View().at(0), r.View().at(0));
  EXPECT_EQ(copy.View().at(1), r.View().at(1));
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_EQ(db.Find("r"), 0u);
  EXPECT_EQ(db.Find("q"), kNoRelation);
  EXPECT_EQ(db.relation(db.Find("r")).name(), "r");
  EXPECT_FALSE(db.CreateRelation(PairSchema()).ok());  // Duplicate.
}

TEST(DatabaseTest, InsertThroughCatalog) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(PairSchema()).ok());
  EXPECT_TRUE(*db.Insert("r", Tuple({Value::Int(1), Value::Int(2)})));
  EXPECT_FALSE(db.Insert("missing", Tuple({Value::Int(1)})).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, DeepEquality) {
  Database a, b;
  (void)a.CreateRelation(PairSchema());
  (void)b.CreateRelation(PairSchema());
  EXPECT_TRUE(a == b);
  (void)a.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(a == b);
  (void)b.Insert("r", Tuple({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(a == b);
}

TEST(DatabaseTest, EqualityIgnoresInsertionOrder) {
  Database a, b;
  (void)a.CreateRelation(PairSchema());
  (void)b.CreateRelation(PairSchema());
  for (int64_t x = 0; x < 20; ++x) {
    (void)a.Insert("r", Tuple({Value::Int(x), Value::Int(x % 3)}));
    (void)b.Insert("r", Tuple({Value::Int(19 - x), Value::Int((19 - x) % 3)}));
  }
  EXPECT_NE(a.relation("r").View().at(0), b.relation("r").View().at(0));
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  // Same size, one tuple different: not equal either way.
  (void)a.Insert("r", Tuple({Value::Int(100), Value::Int(0)}));
  (void)b.Insert("r", Tuple({Value::Int(101), Value::Int(0)}));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);
}

}  // namespace
}  // namespace p2pdb::rel
