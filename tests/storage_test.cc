// StorageManager: the per-peer log as the whole durable state — base
// establishment, delta and rule-change logging, recovery in log order
// (including isomorphism on instances with labeled nulls, against the
// relational/snapshot round trip), fsyncs per sync mode, and rejection of
// malformed record sequences.
#include "src/storage/storage_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "src/core/wire.h"
#include "src/relational/null_iso.h"
#include "src/relational/snapshot.h"
#include "src/util/serde.h"
#include "tests/codec_testing.h"

namespace p2pdb::storage {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string WalPath(const StorageOptions& options) {
  return options.dir + "/wal.log";
}

rel::Database BaseDb() {
  rel::Database db;
  (void)db.CreateRelation(rel::RelationSchema("pub", {"id", "title"}));
  (void)db.CreateRelation(rel::RelationSchema("wrote", {"author", "id"}));
  (void)db.Insert("pub", rel::Tuple({rel::Value::Int(1),
                                     rel::Value::Str("seed paper")}));
  return db;
}

rel::Tuple Pub(int64_t id, const std::string& title) {
  return rel::Tuple({rel::Value::Int(id), rel::Value::Str(title)});
}

/// Inserts one pub tuple into `db` and logs it as one applied delta.
Status InsertAndLog(StorageManager* manager, rel::Database* db, int64_t id,
                    const std::string& title) {
  const rel::Version since = db->version();
  (void)db->Insert("pub", Pub(id, title));
  return manager->LogDelta(*db, since);
}

/// Every relation's entries in log order.
std::map<std::string, std::vector<rel::Tuple>> Logs(const rel::Database& db) {
  std::map<std::string, std::vector<rel::Tuple>> out;
  for (const rel::Relation& relation : db.relations()) {
    const rel::LogView log = relation.View();
    std::vector<rel::Tuple>& entries = out[relation.name()];
    for (size_t i = 0; i < log.size(); ++i) entries.emplace_back(log.at(i));
  }
  return out;
}

TEST(StorageManagerTest, DeltaCodecRoundTrip) {
  // One delta over two relations, appended out of sorted order: replay
  // rebuilds both logs entry for entry.
  StorageOptions options;
  options.dir = FreshDir("delta_codec");
  options.sync = SyncMode::kNoSync;
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());

  const rel::Version since = db.version();  // pub: 1 entry, wrote: none.
  const rel::Tuple bob({rel::Value::Str("bob"), rel::Value::Int(7)});
  const rel::Tuple ada({rel::Value::Str("ada"), rel::Value::Null(0x3000005)});
  ASSERT_TRUE(db.Insert("pub", Pub(9, "z")).ok());
  ASSERT_TRUE(db.Insert("pub", Pub(7, "x")).ok());
  ASSERT_TRUE(db.Insert("wrote", bob).ok());
  ASSERT_TRUE(db.Insert("wrote", ada).ok());
  ASSERT_TRUE((*manager)->LogDelta(db, since).ok());

  auto back = (*manager)->Recover(nullptr);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Logs(*back), Logs(db));
  std::filesystem::remove_all(options.dir);
}

TEST(StorageManagerTest, LogBytesAreGolden) {
  // A base, a delta over both relations, then an add and a delete rule
  // change: the whole file, header and record framing included.
  StorageOptions options;
  options.dir = FreshDir("golden");
  options.sync = SyncMode::kNoSync;
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  ASSERT_TRUE(db.Insert("pub", Pub(-7, "z")).ok());
  ASSERT_TRUE(db.Insert("wrote", rel::Tuple({rel::Value::Str("ada"),
                                             rel::Value::Null(0x3000005)}))
                  .ok());
  ASSERT_TRUE(db.Insert("wrote", rel::Tuple({rel::Value::Str("bob"),
                                             rel::Value::Int(20000)}))
                  .ok());
  ASSERT_TRUE((*manager)->LogDelta(db, rel::Version{1, 0}).ok());
  ASSERT_TRUE((*manager)
                  ->LogRuleChange(core::wire::RuleChangeRecord::Add(
                                      testing_codec::RichRule())
                                      .Encode())
                  .ok());
  ASSERT_TRUE(
      (*manager)
          ->LogRuleChange(core::wire::RuleChangeRecord::Delete("r7").Encode())
          .ok());
  manager->reset();

  std::FILE* f = std::fopen(WalPath(options).c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    bytes.push_back(static_cast<uint8_t>(c));
  }
  std::fclose(f);
  const std::string golden =
      "5032574c 02000000"                          // magic "P2WL", version 2
      " 32000000 545d1fe4"                         // base: length, CRC,
      " 03 02"                                     //   kind, two relations,
      " 03707562 02 026964 057469746c65"           //   pub(id, title),
      " 01 02 0002 010a73656564207061706572"       //   (1, "seed paper")
      " 0577726f7465 02 06617574686f72 026964 00"  //   wrote(author, id)
      " 2d000000 d3d71f6a"                         // delta: length, CRC,
      " 01 02 03707562 01 02 000d 01017a"          //   pub: (-7, "z")
      " 0577726f7465 02"                           //   wrote:
      " 02 0103616461 020500000300000000"          //   ("ada", _N)
      " 02 0103626f62 00c0b802"                    //   ("bob", 20000)
      " 59000000 7ae1e757 02 01" +                 // add rule r1
      std::string(testing_codec::kRichRuleGolden) +
      " 05000000 e306dbb0 02 02 027237";  // delete rule r7
  EXPECT_EQ(testing_codec::Hex(bytes),
            testing_codec::Hex(testing_codec::HexBytes(golden)));
  std::filesystem::remove_all(options.dir);
}

TEST(StorageManagerTest, RuleChangeRecordsKeepOrderAcrossReopen) {
  StorageOptions options;
  options.dir = FreshDir("rule_records");
  options.sync = SyncMode::kNoSync;
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());

  std::vector<uint8_t> change_a = {0xaa, 1, 2, 3};
  std::vector<uint8_t> change_b = {0xbb};
  ASSERT_TRUE((*manager)->LogRuleChange(change_a).ok());
  ASSERT_TRUE(InsertAndLog(manager->get(), &db, 2, "mid").ok());
  ASSERT_TRUE((*manager)->LogRuleChange(change_b).ok());

  // A reopened manager (fresh process) sees the same history, in order.
  manager->reset();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  RecoveryInfo info;
  auto recovered = (*reopened)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(info.rule_changes.size(), 2u);
  EXPECT_EQ(info.rule_changes[0], change_a);
  EXPECT_EQ(info.rule_changes[1], change_b);
  EXPECT_TRUE(*recovered == db);
  std::filesystem::remove_all(options.dir);
}

TEST(StorageManagerTest, FsyncsFollowSyncMode) {
  // kNoSync never fsyncs, from Open through recovery. kSync fsyncs a created
  // log's header and directory, then each record. Recovery writes nothing.
  for (SyncMode mode : {SyncMode::kNoSync, SyncMode::kSync}) {
    const bool sync = mode == SyncMode::kSync;
    StorageOptions options;
    options.dir = FreshDir(sync ? "fsync_sync" : "fsync_nosync");
    options.sync = mode;
    auto manager = StorageManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_EQ((*manager)->wal_syncs(), sync ? 2u : 0u);
    rel::Database db = BaseDb();
    ASSERT_TRUE((*manager)->EnsureBase(db).ok());
    ASSERT_TRUE(InsertAndLog(manager->get(), &db, 2, "x").ok());
    ASSERT_TRUE((*manager)->LogRuleChange({0x01}).ok());
    EXPECT_EQ((*manager)->wal_syncs(), sync ? 5u : 0u);

    const uint64_t bytes = (*manager)->wal_bytes();
    auto recovered = (*manager)->Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(*recovered == db);
    EXPECT_EQ((*manager)->wal_syncs(), sync ? 5u : 0u);
    EXPECT_EQ((*manager)->wal_bytes(), bytes);
    EXPECT_EQ(std::filesystem::file_size(WalPath(options)), bytes);

    // A restarted process reopens the existing log: no fsync either way.
    manager->reset();
    auto reopened = StorageManager::Open(options);
    ASSERT_TRUE(reopened.ok());
    ASSERT_TRUE((*reopened)->EnsureBase(rel::Database()).ok());
    ASSERT_TRUE((*reopened)->Recover(nullptr).ok());
    EXPECT_EQ((*reopened)->wal_syncs(), 0u);
    EXPECT_EQ(std::filesystem::file_size(WalPath(options)), bytes);
    std::filesystem::remove_all(options.dir);
  }
}

TEST(StorageManagerTest, EnsureBaseWritesTheBaseOnce) {
  StorageOptions options;
  options.dir = FreshDir("ensure_base");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_FALSE((*manager)->HasBase());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  EXPECT_TRUE((*manager)->HasBase());
  const uint64_t bytes = (*manager)->wal_bytes();

  // A second EnsureBase with different contents must NOT add a base, in
  // this process or the next.
  rel::Database other;
  ASSERT_TRUE((*manager)->EnsureBase(other).ok());
  manager->reset();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->HasBase());
  ASSERT_TRUE((*reopened)->EnsureBase(other).ok());
  EXPECT_EQ((*reopened)->wal_bytes(), bytes);
  auto recovered = (*reopened)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, TornBaseReadsAsNoBase) {
  // A crash mid-way through the base record leaves no base: the daemon
  // re-seeds instead of recovering half of one.
  StorageOptions options;
  options.dir = FreshDir("torn_base");
  options.sync = SyncMode::kNoSync;
  rel::Database db = BaseDb();
  {
    auto manager = StorageManager::Open(options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  }
  const std::string wal = WalPath(options);
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 3);
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->HasBase());
  EXPECT_FALSE((*reopened)->Recover(nullptr).ok());

  ASSERT_TRUE((*reopened)->EnsureBase(db).ok());
  EXPECT_TRUE((*reopened)->HasBase());
  auto recovered = (*reopened)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Logs(*recovered), Logs(db));
}

TEST(StorageManagerTest, LogDeltaThenRecoverRebuildsState) {
  StorageOptions options;
  options.dir = FreshDir("log_recover");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  for (int64_t i = 2; i <= 5; ++i) {
    ASSERT_TRUE(
        InsertAndLog(manager->get(), &db, i, "t" + std::to_string(i)).ok());
  }
  // Steps that grew nothing write no record.
  const uint64_t bytes = (*manager)->wal_bytes();
  ASSERT_TRUE((*manager)->LogDelta(db, db.version()).ok());
  ASSERT_TRUE((*manager)->LogDelta(db, rel::Version{5, 0}).ok());
  EXPECT_EQ((*manager)->wal_bytes(), bytes);

  RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Logs(*recovered), Logs(db));
  EXPECT_EQ(info.wal_records_replayed, 5u);  // The base and four deltas.
  EXPECT_FALSE(info.wal_tail_truncated);
  EXPECT_EQ(info.tuples_recovered, db.TotalTuples());
}

TEST(StorageManagerTest, RecoveryIsIsomorphicToSnapshotRoundTrip) {
  // A database with labeled nulls, rebuilt two ways: log replay and the
  // direct snapshot round trip. Both must be isomorphic (here even equal:
  // both paths keep null identifiers verbatim).
  StorageOptions options;
  options.dir = FreshDir("iso");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  const rel::Value ada = rel::Value::Str("ada");
  const rel::Value bob = rel::Value::Str("bob");
  ASSERT_TRUE(db.Insert("wrote", rel::Tuple({ada, rel::Value::Null(1)})).ok());
  ASSERT_TRUE(db.Insert("wrote", rel::Tuple({bob, rel::Value::Null(2)})).ok());
  ASSERT_TRUE((*manager)->LogDelta(db, rel::Version{1, 0}).ok());

  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  auto snapshotted = rel::DeserializeDatabase(rel::SerializeDatabase(db));
  ASSERT_TRUE(snapshotted.ok());
  EXPECT_TRUE(rel::DatabasesIsomorphic(*recovered, *snapshotted));
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, NoSyncModeStillRecovers) {
  StorageOptions options;
  options.dir = FreshDir("nosync");
  options.sync = SyncMode::kNoSync;
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  ASSERT_TRUE(InsertAndLog(manager->get(), &db, 2, "nosync").ok());

  // A fresh manager over the same directory (a restarted process).
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto recovered = (*reopened)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, CorruptWalTailReplaysCleanPrefix) {
  StorageOptions options;
  options.dir = FreshDir("corrupt_tail");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  ASSERT_TRUE(InsertAndLog(manager->get(), &db, 2, "kept").ok());
  rel::Database expected = db;
  ASSERT_TRUE(InsertAndLog(manager->get(), &db, 3, "torn").ok());

  // Tear the last record (a crash mid-write): chop 3 bytes off the log.
  const std::string wal = WalPath(options);
  std::filesystem::resize_file(wal, std::filesystem::file_size(wal) - 3);

  RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(info.wal_tail_truncated);
  EXPECT_EQ(info.wal_records_replayed, 2u);  // The base and "kept".
  EXPECT_TRUE(*recovered == expected);
}

TEST(StorageManagerTest, RecoverWithoutBaseFails) {
  StorageOptions options;
  options.dir = FreshDir("no_base");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  EXPECT_FALSE((*manager)->HasBase());
  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(StorageManagerTest, DeltaForUnknownRelationIsAnError) {
  StorageOptions options;
  options.dir = FreshDir("unknown_rel");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->EnsureBase(BaseDb()).ok());
  rel::Database ghost;
  ASSERT_TRUE(ghost.CreateRelation(rel::RelationSchema("ghost", {"x"})).ok());
  ASSERT_TRUE(ghost.Insert("ghost", rel::Tuple({rel::Value::Int(1)})).ok());
  ASSERT_TRUE((*manager)->LogDelta(ghost, rel::Version{0}).ok());
  EXPECT_FALSE((*manager)->Recover(nullptr).ok());
}

TEST(StorageManagerTest, BaseMustComeFirstAndOnlyOnce) {
  // Record sequences the manager never writes: a second base, and a delta
  // ahead of the base. Both fail recovery instead of replaying partly.
  StorageOptions options;
  options.dir = FreshDir("record_order");
  options.sync = SyncMode::kNoSync;
  {
    auto manager = StorageManager::Open(options);
    ASSERT_TRUE(manager.ok());
    rel::Database db = BaseDb();
    ASSERT_TRUE((*manager)->EnsureBase(db).ok());
    ASSERT_TRUE(InsertAndLog(manager->get(), &db, 2, "delta").ok());
  }
  auto records = ReadWalFile(WalPath(options));
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->records.size(), 2u);
  const ByteView base = records->records[0];
  const ByteView delta = records->records[1];

  using Sequence = std::vector<ByteView>;
  std::vector<Sequence> sequences;
  sequences.push_back({base, base});
  sequences.push_back({base, delta, base});
  sequences.push_back({delta, base});
  for (const Sequence& sequence : sequences) {
    StorageOptions damaged = options;
    damaged.dir = FreshDir("record_order_damaged");
    {
      std::filesystem::create_directories(damaged.dir);
      auto wal = WalWriter::Open(WalPath(damaged), SyncMode::kNoSync);
      ASSERT_TRUE(wal.ok());
      for (ByteView payload : sequence) {
        ASSERT_TRUE((*wal)->Append(payload).ok());
      }
    }
    auto manager = StorageManager::Open(damaged);
    ASSERT_TRUE(manager.ok());
    EXPECT_EQ((*manager)->HasBase(), sequence[0] == base);
    EXPECT_FALSE((*manager)->Recover(nullptr).ok());
  }
}

TEST(StorageManagerTest, VersionOneLogIsUnsupported) {
  // A directory from before the log held the whole state (version 1, next to
  // a checkpoint file) must not read as an empty one.
  StorageOptions options;
  options.dir = FreshDir("version_one");
  std::filesystem::create_directories(options.dir);
  Writer header;
  header.PutU32(0x4c573250);  // "P2WL"
  header.PutU32(1);
  std::FILE* f = std::fopen(WalPath(options).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(header.bytes().data(), 1, header.size(), f);
  std::fclose(f);

  auto manager = StorageManager::Open(options);
  ASSERT_FALSE(manager.ok());
  EXPECT_EQ(manager.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace p2pdb::storage
