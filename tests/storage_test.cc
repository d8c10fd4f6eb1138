// StorageManager: checkpoint + WAL working together — base establishment,
// delta logging, threshold-driven checkpointing with WAL truncation, and
// recovery equivalence (including isomorphism on instances with labeled
// nulls, against the relational/snapshot round trip).
#include "src/storage/storage_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>

#include "src/relational/null_iso.h"
#include "src/relational/snapshot.h"
#include "src/storage/checkpoint.h"

namespace p2pdb::storage {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

rel::Database BaseDb() {
  rel::Database db;
  (void)db.CreateRelation(rel::RelationSchema("pub", {"id", "title"}));
  (void)db.CreateRelation(rel::RelationSchema("wrote", {"author", "id"}));
  (void)db.Insert("pub", rel::Tuple({rel::Value::Int(1),
                                     rel::Value::Str("seed paper")}));
  return db;
}

DeltaMap OneDelta(int64_t id, const std::string& title) {
  DeltaMap delta;
  delta["pub"].insert(rel::Tuple({rel::Value::Int(id),
                                  rel::Value::Str(title)}));
  return delta;
}

TEST(StorageManagerTest, DeltaCodecRoundTrip) {
  DeltaMap delta;
  delta["pub"].insert(rel::Tuple({rel::Value::Int(7),
                                  rel::Value::Str("x")}));
  delta["wrote"].insert(rel::Tuple({rel::Value::Str("ada"),
                                    rel::Value::Null(0x300000005ULL)}));
  auto back = DecodeDelta(EncodeDelta(delta));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, delta);

  EXPECT_FALSE(DecodeDelta({}).ok());
  EXPECT_FALSE(DecodeDelta({99}).ok());  // Unknown record kind.
}

TEST(StorageManagerTest, RuleChangeRecordsSurviveCheckpointTruncation) {
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
  ASSERT_TRUE((*manager)->LogDelta(OneDelta(2, "mid")).ok());
  ASSERT_TRUE((*manager)->LogRuleChange(change_b).ok());

  // Checkpointing folds deltas into the snapshot and truncates the WAL, but
  // must not lose the rule-change history (the snapshot stores no rules).
  ASSERT_TRUE((*manager)->Checkpoint(db).ok());

  RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(info.rule_changes.size(), 2u);
  EXPECT_EQ(info.rule_changes[0], change_a);
  EXPECT_EQ(info.rule_changes[1], change_b);

  // A reopened manager (fresh process) re-learns the retained records from
  // disk, so its next checkpoint keeps carrying them.
  manager->reset();
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->Checkpoint(db).ok());
  RecoveryInfo info2;
  ASSERT_TRUE((*reopened)->Recover(&info2).ok());
  ASSERT_EQ(info2.rule_changes.size(), 2u);
  EXPECT_EQ(info2.rule_changes[0], change_a);

  std::filesystem::remove_all(options.dir);
}

TEST(StorageManagerTest, GroupCommitOptionsReachTheWal) {
  StorageOptions options;
  options.dir = FreshDir("group_commit");
  options.sync = SyncMode::kSync;
  options.group_commit.window = std::chrono::seconds(60);
  options.group_commit.max_pending = 4;
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE((*manager)->EnsureBase(BaseDb()).ok());
  const uint64_t base_syncs = (*manager)->wal_syncs();  // The base's Reset.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*manager)->LogDelta(OneDelta(10 + i, "d")).ok());
  }
  EXPECT_EQ((*manager)->wal_syncs() - base_syncs, 2u);  // Two batches of 4.
  std::filesystem::remove_all(options.dir);
}

TEST(StorageManagerTest, CheckpointFsyncsOnlyUnderSyncMode) {
  for (SyncMode mode : {SyncMode::kNoSync, SyncMode::kSync}) {
    StorageOptions options;
    options.dir =
        FreshDir(mode == SyncMode::kSync ? "ckpt_sync" : "ckpt_nosync");
    options.sync = mode;
    auto manager = StorageManager::Open(options);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    rel::Database db = BaseDb();
    ASSERT_TRUE((*manager)->EnsureBase(db).ok());
    ASSERT_TRUE((*manager)->LogDelta(OneDelta(2, "x")).ok());
    const uint64_t before = (*manager)->wal_syncs();
    ASSERT_TRUE((*manager)->Checkpoint(db).ok());  // Forced.
    const uint64_t reset_syncs = (*manager)->wal_syncs() - before;
    if (mode == SyncMode::kSync) {
      EXPECT_GE(reset_syncs, 1u);
    } else {
      EXPECT_EQ((*manager)->wal_syncs(), 0u);
    }
    // Either way the checkpoint is published and recoverable.
    auto recovered = (*manager)->Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(*recovered == db);
    std::filesystem::remove_all(options.dir);
  }
}

TEST(StorageManagerTest, EnsureBaseCheckpointsOnlyOnce) {
  StorageOptions options;
  options.dir = FreshDir("ensure_base");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  EXPECT_TRUE(CheckpointExists(options.dir));

  // A second EnsureBase with different contents must NOT overwrite the base.
  rel::Database other;
  ASSERT_TRUE((*manager)->EnsureBase(other).ok());
  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, LogDeltaThenRecoverRebuildsState) {
  StorageOptions options;
  options.dir = FreshDir("log_recover");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  for (int64_t i = 2; i <= 5; ++i) {
    DeltaMap delta = OneDelta(i, "t" + std::to_string(i));
    for (const auto& [relation, tuples] : delta) {
      for (const rel::Tuple& t : tuples) {
        ASSERT_TRUE(db.Insert(relation, t).ok());
      }
    }
    ASSERT_TRUE((*manager)->LogDelta(delta).ok());
  }
  ASSERT_TRUE((*manager)->LogDelta({}).ok());  // Empty delta: no record.

  RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(*recovered == db);
  EXPECT_TRUE(info.had_checkpoint);
  EXPECT_EQ(info.wal_records_replayed, 4u);
  EXPECT_FALSE(info.wal_tail_truncated);
  EXPECT_EQ(info.tuples_recovered, db.TotalTuples());
}

TEST(StorageManagerTest, RecoveryIsIsomorphicToSnapshotRoundTrip) {
  // A database with labeled nulls, rebuilt two ways: checkpoint+WAL replay
  // and the direct snapshot round trip. Both must be isomorphic (here even
  // equal: both paths keep null identifiers verbatim).
  StorageOptions options;
  options.dir = FreshDir("iso");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  DeltaMap delta;
  delta["wrote"].insert(rel::Tuple({rel::Value::Str("ada"),
                                    rel::Value::Null(0x200000001ULL)}));
  delta["wrote"].insert(rel::Tuple({rel::Value::Str("bob"),
                                    rel::Value::Null(0x200000002ULL)}));
  for (const auto& [relation, tuples] : delta) {
    for (const rel::Tuple& t : tuples) {
      ASSERT_TRUE(db.Insert(relation, t).ok());
    }
  }
  ASSERT_TRUE((*manager)->LogDelta(delta).ok());

  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  auto snapshotted = rel::DeserializeDatabase(rel::SerializeDatabase(db));
  ASSERT_TRUE(snapshotted.ok());
  EXPECT_TRUE(rel::DatabasesIsomorphic(*recovered, *snapshotted));
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, WalGrowthTriggersCheckpointAndTruncation) {
  StorageOptions options;
  options.dir = FreshDir("threshold");
  options.checkpoint_wal_bytes = 128;  // Tiny: checkpoint after a few deltas.
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  for (int64_t i = 2; i <= 40; ++i) {
    DeltaMap delta = OneDelta(i, "title number " + std::to_string(i));
    for (const auto& [relation, tuples] : delta) {
      for (const rel::Tuple& t : tuples) {
        ASSERT_TRUE(db.Insert(relation, t).ok());
      }
    }
    ASSERT_TRUE((*manager)->LogDelta(delta).ok());
    ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  }
  EXPECT_GT((*manager)->checkpoints_taken(), 1u);
  // The log was truncated at the last checkpoint, so it holds at most a few
  // trailing deltas, not all 39.
  EXPECT_LT((*manager)->wal_bytes(), 10u * options.checkpoint_wal_bytes);

  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
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
  DeltaMap delta = OneDelta(2, "nosync");
  ASSERT_TRUE(db.Insert("pub", *delta["pub"].begin()).ok());
  ASSERT_TRUE((*manager)->LogDelta(delta).ok());

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

  rel::Database base = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(base).ok());
  ASSERT_TRUE((*manager)->LogDelta(OneDelta(2, "kept")).ok());
  ASSERT_TRUE((*manager)->LogDelta(OneDelta(3, "torn")).ok());

  // Tear the last record (a crash mid-write): chop 3 bytes off the log.
  std::string wal_path = options.dir + "/wal.log";
  auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 3);

  RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(info.wal_tail_truncated);
  EXPECT_EQ(info.wal_records_replayed, 1u);
  rel::Database expected = BaseDb();
  ASSERT_TRUE(
      expected.Insert("pub", *OneDelta(2, "kept")["pub"].begin()).ok());
  EXPECT_TRUE(*recovered == expected);
}

TEST(StorageManagerTest, RecoverWithoutCheckpointFails) {
  StorageOptions options;
  options.dir = FreshDir("no_checkpoint");
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());
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
  DeltaMap delta;
  delta["ghost"].insert(rel::Tuple({rel::Value::Int(1)}));
  ASSERT_TRUE((*manager)->LogDelta(delta).ok());
  EXPECT_FALSE((*manager)->Recover(nullptr).ok());
}

TEST(StorageManagerTest, WalAgeTriggersCheckpoint) {
  // Time-based trigger: a small WAL that would never hit the byte threshold
  // still gets checkpointed once its oldest uncheckpointed record ages past
  // checkpoint_interval. The clock is injected so the test is instant.
  uint64_t fake_now = 1'000'000;
  StorageOptions options;
  options.dir = FreshDir("time_trigger");
  options.sync = SyncMode::kNoSync;
  options.checkpoint_interval = std::chrono::seconds(5);
  options.now_micros = [&fake_now] { return fake_now; };
  auto manager = StorageManager::Open(options);
  ASSERT_TRUE(manager.ok());

  rel::Database db = BaseDb();
  ASSERT_TRUE((*manager)->EnsureBase(db).ok());
  uint64_t base = (*manager)->checkpoints_taken();

  DeltaMap delta = OneDelta(2, "young record");
  ASSERT_TRUE(db.Insert("pub", *delta["pub"].begin()).ok());
  ASSERT_TRUE((*manager)->LogDelta(delta).ok());
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base);  // Age 0: no trigger.

  fake_now += 4'999'999;
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base);  // One tick short.

  fake_now += 1;
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base + 1);

  // A checkpointed (clean) WAL never re-triggers, no matter how stale the
  // clock gets — the timer measures dirty records, not idle time.
  fake_now += 60'000'000;
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base + 1);

  // The next logged delta restarts the age clock from its own append time.
  DeltaMap next = OneDelta(3, "second epoch");
  ASSERT_TRUE(db.Insert("pub", *next["pub"].begin()).ok());
  ASSERT_TRUE((*manager)->LogDelta(next).ok());
  fake_now += 4'000'000;
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base + 1);
  fake_now += 1'000'000;
  ASSERT_TRUE((*manager)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*manager)->checkpoints_taken(), base + 2);

  auto recovered = (*manager)->Recover(nullptr);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*recovered == db);
}

TEST(StorageManagerTest, ReopenedDirtyWalAgesFromReopenTime) {
  // Records that survive a process restart restart their age clock at Open:
  // the reopened manager checkpoints within one interval of the reopen, not
  // immediately (wall-clock age across the restart is unknowable).
  uint64_t fake_now = 1'000'000;
  StorageOptions options;
  options.dir = FreshDir("reopen_age");
  options.sync = SyncMode::kNoSync;
  options.checkpoint_interval = std::chrono::seconds(5);
  options.now_micros = [&fake_now] { return fake_now; };

  rel::Database db = BaseDb();
  {
    auto manager = StorageManager::Open(options);
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE((*manager)->EnsureBase(db).ok());
    DeltaMap delta = OneDelta(2, "survives restart");
    ASSERT_TRUE(db.Insert("pub", *delta["pub"].begin()).ok());
    ASSERT_TRUE((*manager)->LogDelta(delta).ok());
  }

  fake_now += 100'000'000;  // Long downtime.
  auto reopened = StorageManager::Open(options);
  ASSERT_TRUE(reopened.ok());
  uint64_t base = (*reopened)->checkpoints_taken();
  ASSERT_TRUE((*reopened)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*reopened)->checkpoints_taken(), base);  // Clock restarted.
  fake_now += 5'000'000;
  ASSERT_TRUE((*reopened)->MaybeCheckpoint(db).ok());
  EXPECT_EQ((*reopened)->checkpoints_taken(), base + 1);
}

TEST(StorageManagerTest, NullStorageIsInert) {
  NullStorage storage;
  EXPECT_TRUE(storage.LogDelta(OneDelta(1, "x")).ok());
  EXPECT_TRUE(storage.EnsureBase(BaseDb()).ok());
  EXPECT_TRUE(storage.Checkpoint(BaseDb()).ok());
  EXPECT_FALSE(storage.Recover(nullptr).ok());
}

}  // namespace
}  // namespace p2pdb::storage
