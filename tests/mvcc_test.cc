// The snapshot store's version-row ring (src/relational/mvcc.h): memory stays
// bounded however many rows are published while a reader keeps acquiring,
// and a reader never sees part of a publish.
#include "src/relational/mvcc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/relational/eval.h"

namespace p2pdb::rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

/// This process's resident set size in KiB, from /proc/self/status.
size_t RssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

Database TenRelations() {
  Database db;
  for (int r = 0; r < 10; ++r) {
    const std::string name = "r" + std::to_string(r);
    EXPECT_TRUE(db.CreateRelation(RelationSchema(name, {"k", "v"})).ok());
    EXPECT_TRUE(db.Insert(name, Tuple({I(0), I(r)})).ok());
  }
  return db;
}

// 200,000 publishes of a 10-relation database beside a reader that acquires
// and reads without pause: the store keeps a fixed ring of rows, not every
// snapshot it published, so RSS grows by far less than 10 MB. The database
// grows by one row every 100 publishes, so rows change as they would under
// an update.
TEST(SnapshotStoreTest, MemoryStaysBoundedUnderManyPublishes) {
  constexpr int kPublishes = 200'000;
  Database db = TenRelations();
  SnapshotStore store;
  store.Publish(db);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> violations{0};
  std::thread reader([&] {
    const Tuple seed({I(0), I(3)});
    uint64_t last_batch = 0;
    for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      // Every row holds the seed entry; a point lookup allocates nothing.
      if (!store.QueryPoint("r3", seed)) violations.fetch_add(1);
      if (i % 1024 == 0) {
        // Batches never go backwards.
        const DbSnapshot snap = store.Acquire();
        if (snap.row().size() != 10 || snap.batch() < last_batch) {
          violations.fetch_add(1);
        }
        last_batch = snap.batch();
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const size_t before_kib = RssKib();
  for (int i = 1; i <= kPublishes; ++i) {
    if (i % 100 == 0) {
      const std::string name = "r" + std::to_string((i / 100) % 10);
      ASSERT_TRUE(db.Insert(name, Tuple({I(i), I(i)})).ok());
    }
    store.Commit(db);
  }
  const size_t after_kib = RssKib();
  stop.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.Acquire().batch(), static_cast<uint64_t>(kPublishes));
  EXPECT_LT(after_kib, before_kib + 10 * 1024)
      << "RSS grew from " << before_kib << " KiB to " << after_kib << " KiB";
}

// One application appends to two relations and then publishes: a reader
// sees both relations' growth or neither, whichever slot of the ring it
// copies, and can read every entry below the row it got.
TEST(SnapshotStoreTest, ReaderNeverSeesHalfAPublish) {
  constexpr int kApplications = 20'000;
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("left", {"x"})).ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("right", {"x"})).ok());
  const RelationId left = db.Find("left");
  const RelationId right = db.Find("right");
  SnapshotStore store;
  store.Publish(db);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const DbSnapshot snap = store.Acquire();
      const Version& row = snap.row();
      if (row.size() != 2 || row[left] != row[right] ||
          row[left] != snap.batch()) {
        torn.fetch_add(1);
      } else if (row[left] > 0) {
        const int64_t last = static_cast<int64_t>(row[left]) - 1;
        if (!snap.View(left).Contains(Tuple({I(last)})) ||
            !snap.View(right).Contains(Tuple({I(last)}))) {
          torn.fetch_add(1);
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (int i = 0; i < kApplications; ++i) {
    ASSERT_TRUE(db.relation(left).Insert(Tuple({I(i)})).ok());
    ASSERT_TRUE(db.relation(right).Insert(Tuple({I(i)})).ok());
    store.Commit(db);
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
}

// A database built anew (a restarted peer's recovered one) is a new table:
// its first publish switches readers over, and a snapshot of the old table
// keeps answering as of its row after the old database is gone.
TEST(SnapshotStoreTest, NewTableReplacesTheOldInOneStep) {
  SnapshotStore store;
  EXPECT_EQ(store.Acquire().row().size(), 0u);  // An empty database.
  DbSnapshot old_snap;
  {
    Database old_db;
    ASSERT_TRUE(old_db.CreateRelation(RelationSchema("a", {"x"})).ok());
    ASSERT_TRUE(old_db.Insert("a", Tuple({I(1)})).ok());
    for (int i = 0; i < 4; ++i) store.Commit(old_db);
    old_snap = store.Acquire();
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateRelation(RelationSchema("a", {"x"})).ok());
  ASSERT_TRUE(recovered.CreateRelation(RelationSchema("b", {"x"})).ok());
  ASSERT_TRUE(recovered.Insert("b", Tuple({I(2)})).ok());
  store.Commit(recovered);

  const DbSnapshot now = store.Acquire();
  EXPECT_EQ(now.batch(), 5u);
  EXPECT_EQ(now.row(), (Version{0, 1}));
  EXPECT_TRUE(store.QueryPoint("b", Tuple({I(2)})));
  EXPECT_FALSE(store.QueryPoint("c", Tuple({I(2)})));

  EXPECT_EQ(old_snap.batch(), 4u);
  auto old_rows = EvaluateQuery(old_snap, [] {
    ConjunctiveQuery q;
    Atom a;
    a.relation = "a";
    a.terms = {Term::Var("X")};
    q.atoms = {a};
    q.head_vars = {"X"};
    return q;
  }());
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(*old_rows, (std::set<Tuple>{Tuple({I(1)})}));
}

}  // namespace
}  // namespace p2pdb::rel
