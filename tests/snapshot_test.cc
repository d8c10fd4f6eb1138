#include "src/relational/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "src/core/session.h"
#include "src/net/sim_runtime.h"
#include "src/relational/codec.h"
#include "src/workload/scenario.h"
#include "tests/codec_testing.h"

namespace p2pdb::rel {
namespace {

Database SampleDb() {
  Database db;
  (void)db.CreateRelation(RelationSchema("r", {"x", "y"}));
  (void)db.CreateRelation(RelationSchema("empty", {"a"}));
  (void)db.Insert("r", Tuple({Value::Int(1), Value::Str("one")}));
  (void)db.Insert("r", Tuple({Value::Null(0x700000001ULL), Value::Int(-2)}));
  return db;
}

TEST(SnapshotTest, BytesRoundTrip) {
  Database db = SampleDb();
  auto back = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == db);
}

// Snapshot bytes are canonical: the same tuples inserted in another order
// encode identically, so relations write in sorted order, not log order.
TEST(SnapshotTest, BytesDoNotDependOnInsertionOrder) {
  Database reversed;
  (void)reversed.CreateRelation(RelationSchema("r", {"x", "y"}));
  (void)reversed.CreateRelation(RelationSchema("empty", {"a"}));
  (void)reversed.Insert("r",
                        Tuple({Value::Null(0x700000001ULL), Value::Int(-2)}));
  (void)reversed.Insert("r", Tuple({Value::Int(1), Value::Str("one")}));
  const std::vector<uint8_t> bytes = SerializeDatabase(SampleDb());
  EXPECT_EQ(SerializeDatabase(reversed), bytes);
  auto back = DeserializeDatabase(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(SerializeDatabase(*back), bytes);
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database db;
  auto back = DeserializeDatabase(SerializeDatabase(db));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->relations().empty());
}

TEST(SnapshotTest, BytesAreGolden) {
  Database db = SampleDb();
  (void)db.Insert("r", Tuple({Value::Int(20000), Value::Str("b")}));
  const std::vector<uint8_t> golden = testing_codec::HexBytes(
      "50324442 01000000"              // magic "P2DB", version 1
      " 02"                            // two relations, by name:
      " 05656d707479 01 0161 00"       // empty(a), no tuples
      " 0172 02 0178 0179"             // r(x, y),
      " 03 02 0002 01036f6e65"         //   (1, "one")
      " 02 00c0b802 010162"            //   (20000, "b")
      " 02 020100000007000000 0003");  //   (_N, -2)
  EXPECT_EQ(testing_codec::Hex(SerializeDatabase(db)),
            testing_codec::Hex(golden));
  auto back = DeserializeDatabase(golden);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == db);
}

TEST(SnapshotTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(DeserializeDatabase({1, 2, 3}).ok());
  std::vector<uint8_t> bytes = SerializeDatabase(SampleDb());
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeDatabase(bytes).ok());
  // Wrong magic.
  std::vector<uint8_t> wrong = SerializeDatabase(SampleDb());
  wrong[0] ^= 0xff;
  EXPECT_FALSE(DeserializeDatabase(wrong).ok());

  // Seeded mutants: each is rejected, or decodes to a database whose
  // snapshot decodes again to the same bytes.
  testing_codec::ExpectMutantsDecodeWholeOrNotAtAll(
      SerializeDatabase(SampleDb()),
      [](const std::vector<uint8_t>& mutant)
          -> std::optional<std::vector<uint8_t>> {
        auto db = DeserializeDatabase(mutant);
        if (!db.ok()) return std::nullopt;
        return SerializeDatabase(*db);
      },
      400, 11);
}

TEST(SnapshotTest, TrailingBytesRejected) {
  std::vector<uint8_t> bytes = SerializeDatabase(SampleDb());
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeDatabase(bytes).ok());
}

// SerializeDatabase writes each relation as a strictly increasing tuple
// list; a list that repeats a tuple or is out of order is not one it wrote.
TEST(SnapshotTest, RejectsRepeatedAndUnsortedTuples) {
  const Tuple low({Value::Int(1), Value::Str("a")});
  const Tuple high({Value::Int(2), Value::Str("a")});
  auto snapshot_of = [](const std::vector<Tuple>& tuples) {
    Writer w;
    w.PutU32(0x42443250);  // "P2DB"
    w.PutU32(1);           // format version
    w.PutVarint(1);        // one relation
    w.PutString("r");
    w.PutVarint(2);
    w.PutString("x");
    w.PutString("y");
    EncodeTupleList(tuples, &w);
    return w.bytes();
  };
  auto sorted = DeserializeDatabase(snapshot_of({low, high}));
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(sorted->relation("r").size(), 2u);
  EXPECT_EQ(SerializeDatabase(*sorted), snapshot_of({low, high}));

  auto repeated = DeserializeDatabase(snapshot_of({low, low}));
  EXPECT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kParseError);
  auto swapped = DeserializeDatabase(snapshot_of({high, low}));
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/p2pdb_snapshot_test.bin";
  Database db = SampleDb();
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  auto back = LoadDatabase(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == db);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  auto result = LoadDatabase("/nonexistent/p2pdb.bin");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, ReadErrorIsAnError) {
  // A directory opens but cannot be read; the error says so instead of
  // decoding an empty buffer.
  auto result = LoadDatabase(::testing::TempDir());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("cannot read"), std::string::npos)
      << result.status().ToString();
}

TEST(SnapshotTest, MaterializedUpdateStateSurvivesPersistence) {
  // The point of the update algorithm: materialize once, query locally later —
  // including after a restart from a snapshot.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  core::Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());

  const Database& materialized = session.peer(1).db();
  auto restored = DeserializeDatabase(SerializeDatabase(materialized));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(*restored == materialized);
  EXPECT_GE(restored->relation("b").size(), 3u);
}

}  // namespace
}  // namespace p2pdb::rel
