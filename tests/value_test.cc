#include "src/relational/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/relational/database.h"
#include "src/relational/eval.h"
#include "src/relational/tuple_log.h"

namespace p2pdb::rel {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  Value i = Value::Int(-5);
  Value s = Value::Str("x");
  Value n = Value::Null(42);
  EXPECT_EQ(i.kind(), ValueKind::kInt);
  EXPECT_EQ(s.kind(), ValueKind::kString);
  EXPECT_EQ(n.kind(), ValueKind::kNull);
  EXPECT_EQ(i.AsInt(), -5);
  EXPECT_EQ(s.AsStr(), "x");
  EXPECT_EQ(n.null_id(), 42u);
  EXPECT_TRUE(n.is_null());
  EXPECT_FALSE(i.is_null());
}

TEST(ValueTest, EqualityWithinKind) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
  EXPECT_EQ(Value::Null(1), Value::Null(1));
  EXPECT_NE(Value::Null(1), Value::Null(2));
}

TEST(ValueTest, CrossKindNeverEqual) {
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_NE(Value::Int(1), Value::Null(1));
  EXPECT_NE(Value::Str("x"), Value::Null(1));
}

TEST(ValueTest, TotalOrderIsStrictWeak) {
  std::vector<Value> values{Value::Int(2),    Value::Int(-1),
                            Value::Str("b"),  Value::Str("a"),
                            Value::Null(7),   Value::Null(3)};
  std::set<Value> sorted(values.begin(), values.end());
  EXPECT_EQ(sorted.size(), values.size());
  // Ints before strings before nulls (kind ordering).
  auto it = sorted.begin();
  EXPECT_EQ(it->kind(), ValueKind::kInt);
  it = std::prev(sorted.end());
  EXPECT_EQ(it->kind(), ValueKind::kNull);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("q").Hash(), Value::Str("q").Hash());
  EXPECT_EQ(Value::Int(12).Hash(), Value::Int(12).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::Str("t").ToString(), "\"t\"");
  NullFactory f(3);
  Value n = *f.Fresh();
  EXPECT_EQ(n.ToString().substr(0, 4), "_:3.");
}

TEST(NullFactoryTest, FreshNullsAreDistinct) {
  NullFactory f(1);
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.insert(f.Fresh()->null_id());
  EXPECT_EQ(ids.size(), 100u);
}

TEST(NullFactoryTest, NodesNeverCollide) {
  NullFactory a(1), b(2);
  EXPECT_NE(a.Fresh()->null_id(), b.Fresh()->null_id());
  EXPECT_EQ(NullFactory::NodeOf(a.Fresh()->null_id()), 1u);
  EXPECT_EQ(NullFactory::NodeOf(b.Fresh()->null_id()), 2u);
}

TEST(NullFactoryTest, DepthTracking) {
  NullFactory f(5);
  Value d1 = *f.Fresh(0);
  EXPECT_EQ(NullFactory::DepthBitsOf(d1.null_id()), 1u);
  Value d4 = *f.Fresh(3);
  EXPECT_EQ(NullFactory::DepthBitsOf(d4.null_id()), 4u);
  // Depth saturates at 255.
  Value deep = *f.Fresh(400);
  EXPECT_EQ(NullFactory::DepthBitsOf(deep.null_id()), 255u);
}

// Sequence numbers are 24 bits. The last one is minted once; after it the
// factory reports exhaustion instead of wrapping to an id it already used.
TEST(NullFactoryTest, ExhaustionIsAnErrorNotAWrap) {
  NullFactory f(7);
  f.ReserveThrough(0xfffffe);
  auto last = f.Fresh(0);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(NullFactory::SeqOf(last->null_id()) & 0xffffffu, 0xffffffu);
  EXPECT_EQ(NullFactory::NodeOf(last->null_id()), 7u);
  for (int i = 0; i < 2; ++i) {
    auto wrapped = f.Fresh(0);
    ASSERT_FALSE(wrapped.ok()) << wrapped->ToString();
    EXPECT_EQ(wrapped.status().code(), StatusCode::kResourceExhausted);
  }
}

// Strings interned in reverse content order get ids in the opposite order to
// their content; comparisons, sorting and built-ins must follow the content.
// The strings are new to this process (no other test uses the prefix).
TEST(ValueTest, OrderIsByContentNotInternOrder) {
  const std::string texts[] = {"order-d", "order-c", "order-b", "order-a"};
  std::vector<Value> interned;
  for (const std::string& t : texts) interned.push_back(Value::Str(t));
  const Value& d = interned[0];
  const Value& c = interned[1];
  const Value& b = interned[2];
  const Value& a = interned[3];
  EXPECT_TRUE(a < b && b < c && c < d);
  EXPECT_FALSE(d < c || c < b || b < a);
  EXPECT_FALSE(c < c);
  EXPECT_EQ(Value::Str("order-c"), c);
  EXPECT_EQ(Value::Str("order-c").Hash(), c.Hash());

  std::vector<Value> sorted = interned;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Value>{a, b, c, d}));

  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("name", {"v", "w"})).ok());
  for (const Value& v : interned) {
    ASSERT_TRUE(db.Insert("name", Tuple({v, Value::Int(1)})).ok());
  }
  std::vector<Tuple> rows = db.relation("name").SortedTuples();
  ASSERT_EQ(rows.size(), 4u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i].at(0), sorted[i]);

  // name(V, _), V op "order-c": by id order the answers would differ.
  const std::vector<std::pair<BuiltinOp, std::set<Tuple>>> cases = {
      {BuiltinOp::kLt, {Tuple({a}), Tuple({b})}},
      {BuiltinOp::kLe, {Tuple({a}), Tuple({b}), Tuple({c})}},
      {BuiltinOp::kGt, {Tuple({d})}},
      {BuiltinOp::kGe, {Tuple({c}), Tuple({d})}},
  };
  for (const auto& [op, expected] : cases) {
    ConjunctiveQuery q;
    q.head_vars = {"V"};
    Atom atom;
    atom.relation = "name";
    atom.terms = {Term::Var("V"), Term::Var("W")};
    q.atoms = {atom};
    Builtin cmp;
    cmp.op = op;
    cmp.lhs = Term::Var("V");
    cmp.rhs = Term::Const(Value::Str("order-c"));
    q.builtins = {cmp};
    auto answers = EvaluateQuery(db, q);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(*answers, expected) << BuiltinOpName(op);
  }
}

// Interning threads race on overlapping sets of new strings while readers
// resolve the values they hand over through TupleLogs (a TSan target). Each
// distinct string must get exactly one id, and every AsStr() must return the
// string the value was made from.
TEST(ValueTest, ConcurrentInterningGivesOneIdPerString) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kShared = 2000;  // Per writer, as many of its own.
  // Each writer's sequence: the shared strings, in the same order for every
  // writer so that they race to intern each one, interleaved with strings
  // only it interns.
  std::vector<std::vector<std::string>> texts(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kShared; ++i) {
      texts[w].push_back("concurrent-shared-" + std::to_string(i));
      texts[w].push_back("concurrent-own-" + std::to_string(w * kShared + i));
    }
  }
  std::vector<std::unique_ptr<TupleLog>> logs;
  for (int w = 0; w < kWriters; ++w) {
    logs.push_back(std::make_unique<TupleLog>(1));
  }
  std::atomic<size_t> published[kWriters] = {};
  std::atomic<int> writers_done{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = 0; i < texts[w].size(); ++i) {
        // A repeat would mean two strings got one id.
        if (!logs[w]->Append(Tuple({Value::Str(texts[w][i])}))) {
          failures.fetch_add(1);
          break;
        }
        published[w].store(i + 1, std::memory_order_release);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      std::vector<size_t> seen(kWriters, 0);
      for (bool last = false; !last;) {
        last = writers_done.load(std::memory_order_acquire) == kWriters;
        for (int w = 0; w < kWriters; ++w) {
          const size_t upto = published[w].load(std::memory_order_acquire);
          for (; seen[w] < upto; ++seen[w]) {
            const Value v = logs[w]->at(seen[w]).at(0);
            if (v.AsStr() != texts[w][seen[w]] || Value::Str(v.AsStr()) != v) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::map<std::string, Value> by_text;
  std::unordered_set<Value> distinct;
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(logs[w]->size(), texts[w].size());
    for (size_t i = 0; i < texts[w].size(); ++i) {
      const Value v = logs[w]->at(i).at(0);
      EXPECT_EQ(v.AsStr(), texts[w][i]);
      auto [it, inserted] = by_text.emplace(texts[w][i], v);
      EXPECT_EQ(it->second, v) << texts[w][i];
      if (inserted) distinct.insert(v);
    }
  }
  EXPECT_EQ(by_text.size(), size_t{kShared * (1 + kWriters)});
  EXPECT_EQ(distinct.size(), by_text.size());
}

}  // namespace
}  // namespace p2pdb::rel
