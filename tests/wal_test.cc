// WAL framing: CRC-checked records, torn-write and corrupt-tail tolerance
// (replay stops at the first damaged record; Open truncates the damage away
// before appending, and a failed append takes back its own partial bytes).
#include "src/storage/wal.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include "src/util/crc32.h"

namespace p2pdb::storage {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/p2pdb_wal_" + name + ".log";
}

std::vector<uint8_t> Payload(std::initializer_list<int> bytes) {
  std::vector<uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<uint8_t>(b));
  return out;
}

/// Truncates a file to `size` bytes (simulating a crash mid-write).
void TruncateFile(const std::string& path, long size) {
  ASSERT_EQ(::truncate(path.c_str(), size), 0);
}

/// XORs one byte of the file at `offset` (simulating media corruption).
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(WalTest, Crc32MatchesIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(WalTest, FreshLogIsEmpty) {
  std::string path = TestPath("fresh");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, SyncMode::kNoSync);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_FALSE(contents->tail_corrupt);
  EXPECT_EQ(contents->valid_bytes, 8u);
  std::remove(path.c_str());
}

TEST(WalTest, AppendReadBackRoundTrip) {
  std::string path = TestPath("roundtrip");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, SyncMode::kSync);
  ASSERT_TRUE(writer.ok());
  std::vector<std::vector<uint8_t>> payloads = {
      Payload({1, 2, 3}), Payload({}), Payload({0xff, 0x00, 0x7f, 42})};
  for (const auto& p : payloads) {
    ASSERT_TRUE((*writer)->Append(p).ok());
  }
  EXPECT_EQ((*writer)->appended_records(), 3u);
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records,
            std::vector<ByteView>(payloads.begin(), payloads.end()));
  EXPECT_FALSE(contents->tail_corrupt);
  EXPECT_EQ(contents->valid_bytes,
            static_cast<uint64_t>(FileSize(path)));
  EXPECT_EQ((*writer)->size_bytes(), contents->valid_bytes);
  std::remove(path.c_str());
}

TEST(WalTest, ReopenAppendsAfterExistingRecords) {
  std::string path = TestPath("reopen");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({1})).ok());
  }
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({2})).ok());
  }
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0], Payload({1}));
  EXPECT_EQ(contents->records[1], Payload({2}));
  std::remove(path.c_str());
}

TEST(WalTest, TornRecordTailIsTolerated) {
  std::string path = TestPath("torn");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({1, 2, 3})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({4, 5, 6})).ok());
  }
  // Chop into the middle of the second record's payload.
  TruncateFile(path, FileSize(path) - 2);
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], Payload({1, 2, 3}));
  EXPECT_TRUE(contents->tail_corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, TornHeaderTailIsTolerated) {
  std::string path = TestPath("torn_header");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({9})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({8})).ok());
  }
  // Leave only 3 bytes of the second record's 8-byte header.
  TruncateFile(path, 8 + 8 + 1 + 3);
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_TRUE(contents->tail_corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, CorruptCrcStopsReplayAtDamage) {
  std::string path = TestPath("crc");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({1, 2, 3})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({4, 5, 6})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({7, 8, 9})).ok());
  }
  // Flip a byte inside the second record's stored CRC
  // (offset: file header 8, record 1 is 8+3 bytes, then 4 length bytes).
  FlipByte(path, 8 + 11 + 4);
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], Payload({1, 2, 3}));
  EXPECT_TRUE(contents->tail_corrupt);

  // Flipping payload bytes (not the CRC) is detected the same way.
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({1, 2, 3})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({4, 5, 6})).ok());
  }
  FlipByte(path, 8 + 11 + 8);  // First payload byte of record 2.
  contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_TRUE(contents->tail_corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, OpenTruncatesTornTailBeforeAppending) {
  std::string path = TestPath("open_truncates");
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({1})).ok());
    ASSERT_TRUE((*writer)->Append(Payload({2})).ok());
  }
  TruncateFile(path, FileSize(path) - 1);  // Tear record 2.
  {
    auto writer = WalWriter::Open(path, SyncMode::kNoSync);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(Payload({3})).ok());
  }
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0], Payload({1}));
  EXPECT_EQ(contents->records[1], Payload({3}));
  EXPECT_FALSE(contents->tail_corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, FailedAppendLeavesNoTornBytes) {
  // The file-size limit lets only part of the second record land. That
  // append fails, and the third must follow the first directly: replay
  // would stop at torn bytes and lose every record after them.
  std::string path = TestPath("failed_append");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, SyncMode::kNoSync);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(Payload({1, 2, 3})).ok());

  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit limited = saved;
  limited.rlim_cur = (*writer)->size_bytes() + 8 + 4;  // Room for record 3.
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  Status torn = (*writer)->Append(std::vector<uint8_t>(64, 0x5a));
  Status after = (*writer)->Append(Payload({7, 8, 9, 10}));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_FALSE(torn.ok());
  EXPECT_TRUE(after.ok()) << after.ToString();
  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0], Payload({1, 2, 3}));
  EXPECT_EQ(contents->records[1], Payload({7, 8, 9, 10}));
  EXPECT_FALSE(contents->tail_corrupt);
  EXPECT_EQ(contents->valid_bytes, (*writer)->size_bytes());
  std::remove(path.c_str());
}

TEST(WalTest, TornHeaderStartsFresh) {
  // A crash during WAL creation can leave fewer bytes than the header; that
  // must read as an empty log and Open must rewrite it, not brick the peer's
  // storage.
  std::string path = TestPath("torn_file_header");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputc('P', f);
  std::fputc('2', f);
  std::fclose(f);

  auto contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->records.empty());
  EXPECT_TRUE(contents->tail_corrupt);
  EXPECT_EQ(contents->valid_bytes, 0u);

  auto writer = WalWriter::Open(path, SyncMode::kNoSync);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(Payload({5})).ok());
  contents = ReadWalFile(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], Payload({5}));
  EXPECT_FALSE(contents->tail_corrupt);
  std::remove(path.c_str());
}

TEST(WalTest, SyncModeFsyncsEveryAppend) {
  std::string path = TestPath("sync_each");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, SyncMode::kSync);
  ASSERT_TRUE(writer.ok());
  // Creating the log syncs its header and its directory entry.
  EXPECT_EQ((*writer)->syncs_performed(), 2u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*writer)->Append(Payload({i})).ok());
  }
  EXPECT_EQ((*writer)->syncs_performed(), 2u + 5u);
  std::remove(path.c_str());
}

TEST(WalTest, NoSyncModeNeverFsyncs) {
  std::string path = TestPath("nosync");
  std::remove(path.c_str());
  auto writer = WalWriter::Open(path, SyncMode::kNoSync);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*writer)->Append(Payload({i})).ok());
  }
  EXPECT_EQ((*writer)->syncs_performed(), 0u);
  std::remove(path.c_str());
}

TEST(WalTest, MissingFileIsNotFound) {
  auto contents = ReadWalFile(::testing::TempDir() + "/p2pdb_wal_nope.log");
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, ReadErrorIsAnError) {
  // A directory opens but cannot be read: that is an error, not an empty
  // log, and Open must not truncate or append to it.
  const std::string dir = ::testing::TempDir() + "/p2pdb_wal_dir";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  auto contents = ReadWalFile(dir);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInternal);
  EXPECT_NE(contents.status().message().find("cannot read"),
            std::string::npos)
      << contents.status().ToString();
  EXPECT_FALSE(WalWriter::Open(dir, SyncMode::kNoSync).ok());
  std::filesystem::remove_all(dir);
}

TEST(WalTest, ForeignFileIsRejected) {
  std::string path = TestPath("foreign");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a WAL at all", f);
  std::fclose(f);
  EXPECT_FALSE(ReadWalFile(path).ok());
  // Open must refuse too instead of appending to a foreign file.
  EXPECT_FALSE(WalWriter::Open(path, SyncMode::kNoSync).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2pdb::storage
