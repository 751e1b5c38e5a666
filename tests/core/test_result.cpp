/**
 * @file
 * Tests for the Result<T> error type of the planning API.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/result.hpp"

namespace ftsim {
namespace {

TEST(Result, SuccessHoldsValue)
{
    Result<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(-1), 42);
    EXPECT_EQ(r.valueOrThrow(), 42);
}

TEST(Result, FailureHoldsError)
{
    Result<int> r = Error{ErrorCode::UnknownGpu, "no price for TPUv5"};
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::UnknownGpu);
    EXPECT_EQ(r.error().message, "no price for TPUv5");
    EXPECT_EQ(r.valueOr(-1), -1);
}

TEST(Result, FailureFactory)
{
    auto r = Result<std::string>::failure(ErrorCode::DoesNotFit,
                                          "too big");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::DoesNotFit);
}

TEST(Result, ValueOrThrowRaisesFatalError)
{
    Result<int> r = Error{ErrorCode::EmptySweep, "empty sweep"};
    EXPECT_THROW(r.valueOrThrow(), FatalError);
    try {
        r.valueOrThrow();
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        // The thrown message carries code name and original text.
        EXPECT_NE(std::string(e.what()).find("EmptySweep"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("empty sweep"),
                  std::string::npos);
    }
}

TEST(Result, DescribePrefixesCodeName)
{
    Error e{ErrorCode::NoViablePlan, "nothing fits"};
    EXPECT_EQ(e.describe(), "NoViablePlan: nothing fits");
}

TEST(Result, EveryCodeHasAName)
{
    for (ErrorCode code :
         {ErrorCode::UnknownGpu, ErrorCode::DoesNotFit,
          ErrorCode::EmptySweep, ErrorCode::InvalidArgument,
          ErrorCode::NoViablePlan}) {
        EXPECT_STRNE(errorCodeName(code), "");
        EXPECT_STRNE(errorCodeName(code), "UnknownError");
    }
}

}  // namespace
}  // namespace ftsim
