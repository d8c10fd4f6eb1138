#include "src/util/status.h"

#include <gtest/gtest.h>

namespace p2pdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("relation r");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "relation r");
  EXPECT_EQ(s.ToString(), "NotFound: relation r");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kParseError, StatusCode::kProtocolError,
        StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string moved = r.MoveValue();
  EXPECT_EQ(moved, "payload");
}

Status FailingHelper() { return Status::Internal("boom"); }

Status UsesReturnIfError() {
  P2PDB_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInternal);
}

Result<int> GiveInt() { return 7; }

Status UsesAssignOrReturn(int* out) {
  P2PDB_ASSIGN_OR_RETURN(*out, GiveInt());
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int v = 0;
  ASSERT_TRUE(UsesAssignOrReturn(&v).ok());
  EXPECT_EQ(v, 7);
}

}  // namespace
}  // namespace p2pdb
