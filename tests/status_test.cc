#include "common/status.h"

#include <gtest/gtest.h>

namespace tswarp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IOError("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kCorruption, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

Status ReturnIfErrorHelper(bool fail) {
  TSW_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfError) {
  EXPECT_TRUE(ReturnIfErrorHelper(false).ok());
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
}

StatusOr<int> AssignHelper(bool fail) {
  if (fail) return Status::OutOfRange("too big");
  return 5;
}

Status AssignOrReturnHelper(bool fail, int* out) {
  TSW_ASSIGN_OR_RETURN(const int v, AssignHelper(fail));
  *out = v + 1;
  return Status::OK();
}

TEST(StatusMacrosTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(AssignOrReturnHelper(false, &out).ok());
  EXPECT_EQ(out, 6);
  EXPECT_EQ(AssignOrReturnHelper(true, &out).code(), StatusCode::kOutOfRange);
}

TEST(CheckedU32Test, AcceptsValuesBelowTheNilSentinel) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 31),
        (std::uint64_t{1} << 32) - 3, (std::uint64_t{1} << 32) - 2}) {
    const StatusOr<std::uint32_t> narrowed = CheckedU32(v, "node count");
    ASSERT_TRUE(narrowed.ok()) << v;
    EXPECT_EQ(*narrowed, v);
  }
}

TEST(CheckedU32Test, RejectsTheSentinelAndEverythingAbove) {
  for (const std::uint64_t v :
       {(std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 32) + 1, ~std::uint64_t{0}}) {
    const StatusOr<std::uint32_t> narrowed = CheckedU32(v, "text length");
    ASSERT_FALSE(narrowed.ok()) << v;
    EXPECT_EQ(narrowed.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(narrowed.status().message().find("text length"),
              std::string::npos);
    EXPECT_NE(narrowed.status().message().find(std::to_string(v)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tswarp
