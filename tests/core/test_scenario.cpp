/**
 * @file
 * Tests for the Scenario value type: canonical defaults, presets,
 * fluent construction, and validation.
 */

#include <gtest/gtest.h>

#include "core/scenario.hpp"

namespace ftsim {
namespace {

TEST(Scenario, DefaultsAreTheCanonicalConstants)
{
    Scenario s;
    EXPECT_EQ(s.medianSeqLen, Scenario::kDefaultMedianSeqLen);
    EXPECT_DOUBLE_EQ(s.lengthSigma, Scenario::kDefaultLengthSigma);
    EXPECT_DOUBLE_EQ(s.numQueries, Scenario::kDefaultNumQueries);
    EXPECT_DOUBLE_EQ(s.epochs, Scenario::kDefaultEpochs);
    EXPECT_TRUE(s.sparse);
    EXPECT_EQ(s.model.name, ModelSpec::mixtral8x7b().name);
}

TEST(Scenario, GsMathPresetEqualsDefaults)
{
    Scenario s = Scenario::gsMath();
    EXPECT_EQ(s.medianSeqLen, Scenario::kDefaultMedianSeqLen);
    EXPECT_DOUBLE_EQ(s.lengthSigma, Scenario::kDefaultLengthSigma);
    EXPECT_DOUBLE_EQ(s.numQueries, 14000.0);
    EXPECT_DOUBLE_EQ(s.epochs, 10.0);
}

TEST(Scenario, CommonsensePresetMatchesPaperTableII)
{
    Scenario s = Scenario::commonsense15k();
    EXPECT_EQ(s.medianSeqLen, 79u);
    EXPECT_DOUBLE_EQ(s.numQueries, 15000.0);
}

TEST(Scenario, FluentSettersCompose)
{
    Scenario s = Scenario{}
                     .withModel(ModelSpec::blackMamba2p8b())
                     .withMedianSeqLen(79)
                     .withLengthSigma(0.45)
                     .withNumQueries(15000.0)
                     .withEpochs(3.0)
                     .withSparse(false);
    EXPECT_EQ(s.model.name, ModelSpec::blackMamba2p8b().name);
    EXPECT_EQ(s.medianSeqLen, 79u);
    EXPECT_DOUBLE_EQ(s.lengthSigma, 0.45);
    EXPECT_DOUBLE_EQ(s.numQueries, 15000.0);
    EXPECT_DOUBLE_EQ(s.epochs, 3.0);
    EXPECT_FALSE(s.sparse);
}

TEST(Scenario, ValidationAcceptsDefaults)
{
    EXPECT_TRUE(Scenario{}.validated().ok());
    EXPECT_TRUE(Scenario::commonsense15k().validated().ok());
    EXPECT_TRUE(Scenario::openOrca().validated().ok());
}

TEST(Scenario, ValidationRejectsBadDomains)
{
    EXPECT_EQ(Scenario{}.withMedianSeqLen(0).validated().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(Scenario{}.withLengthSigma(-0.1).validated().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(Scenario{}.withNumQueries(0.0).validated().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(Scenario{}.withEpochs(-1.0).validated().code(),
              ErrorCode::InvalidArgument);
}

TEST(Scenario, DescribeNamesModelAndWorkload)
{
    std::string text = Scenario::gsMath().describe();
    EXPECT_NE(text.find("Mixtral"), std::string::npos);
    EXPECT_NE(text.find("148"), std::string::npos);
    EXPECT_NE(text.find("sparse"), std::string::npos);
}

TEST(Scenario, CanonicalKeyCoversEveryFieldLosslessly)
{
    const Scenario base = Scenario::gsMath();
    EXPECT_EQ(base.canonicalKey(), Scenario::gsMath().canonicalKey());

    // Doubles must distinguish past 6 significant digits: two tenants
    // with nearly identical datasets are still different tenants.
    EXPECT_NE(Scenario::gsMath().withNumQueries(1234567.0).canonicalKey(),
              Scenario::gsMath().withNumQueries(1234568.0).canonicalKey());
    EXPECT_NE(Scenario::gsMath().withLengthSigma(0.4000001).canonicalKey(),
              base.canonicalKey());

    // Every field class participates.
    EXPECT_NE(Scenario::gsMath().withSparse(false).canonicalKey(),
              base.canonicalKey());
    EXPECT_NE(Scenario::gsMath().withMedianSeqLen(149).canonicalKey(),
              base.canonicalKey());
    EXPECT_NE(Scenario::gsMath()
                  .withModel(ModelSpec::blackMamba2p8b())
                  .canonicalKey(),
              base.canonicalKey());
    Scenario calibrated = Scenario::gsMath();
    calibrated.calibration.matmulEfficiency = 0.2000001;
    EXPECT_NE(calibrated.canonicalKey(), base.canonicalKey());
}

}  // namespace
}  // namespace ftsim
