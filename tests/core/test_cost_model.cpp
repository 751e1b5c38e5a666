/**
 * @file
 * Unit tests for the cloud cost estimator (§V-C).
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "core/cost_model.hpp"

namespace ftsim {
namespace {

TEST(CloudCatalogTest, CudoRatesMatchPaper)
{
    CloudCatalog catalog = CloudCatalog::cudoCompute();
    EXPECT_DOUBLE_EQ(catalog.rate("A40").value(), 0.79);
    EXPECT_DOUBLE_EQ(catalog.rate("A100-80GB").value(), 1.67);
    EXPECT_DOUBLE_EQ(catalog.rate("H100").value(), 2.10);
}

TEST(CloudCatalogTest, UnknownGpuIsAnError)
{
    CloudCatalog catalog = CloudCatalog::cudoCompute();
    EXPECT_FALSE(catalog.has("TPUv5"));
    EXPECT_EQ(catalog.rate("TPUv5").code(), ErrorCode::UnknownGpu);
}

TEST(CloudCatalogTest, CheapestProviderWins)
{
    CloudCatalog catalog;
    catalog.add({"ProviderA", "A40", 1.00});
    catalog.add({"ProviderB", "A40", 0.60});
    EXPECT_DOUBLE_EQ(catalog.rate("A40").value(), 0.60);
}

TEST(CloudCatalogTest, InvalidOfferingIsFatal)
{
    CloudCatalog catalog;
    EXPECT_THROW(catalog.add({"X", "A40", 0.0}), FatalError);
    EXPECT_THROW(catalog.add({"X", "", 1.0}), FatalError);
}

TEST(CostEstimatorTest, ClosedFormCost)
{
    CostEstimator est(CloudCatalog::cudoCompute());
    // 1 qps, 3600 queries, 1 epoch -> exactly 1 GPU-hour on the A40.
    CostEstimate c = est.tryEstimate("A40", 1.0, 3600.0, 1.0).value();
    EXPECT_NEAR(c.gpuHours, 1.0, 1e-12);
    EXPECT_NEAR(c.totalDollars, 0.79, 1e-12);
}

TEST(CostEstimatorTest, PaperTableIvMagnitudes)
{
    // Plugging the paper's own throughputs into the cost formula must
    // reproduce Table IV's dollar figures (14k queries, 10 epochs).
    CostEstimator est(CloudCatalog::cudoCompute());
    auto dollars = [&est](const char* gpu, double qps) {
        return est.tryEstimate(gpu, qps, 14000.0, 10.0)
            .value()
            .totalDollars;
    };
    EXPECT_NEAR(dollars("A40", 1.01), 32.7, 2.5);
    EXPECT_NEAR(dollars("A100-80GB", 2.74), 25.4, 2.0);
    EXPECT_NEAR(dollars("H100", 4.90), 17.9, 2.0);
}

TEST(CostEstimatorTest, HigherThroughputIsCheaper)
{
    CostEstimator est(CloudCatalog::cudoCompute());
    double slow =
        est.tryEstimate("A40", 1.0, 1e5, 10.0).value().totalDollars;
    double fast =
        est.tryEstimate("A40", 2.0, 1e5, 10.0).value().totalDollars;
    EXPECT_NEAR(fast, slow / 2.0, 1e-9);
}

TEST(CostEstimatorTest, CheapestSelectsByTotalNotRate)
{
    // The paper's headline: H100 is the *cheapest* end-to-end despite
    // the highest hourly rate, because it is proportionally faster.
    CostEstimator est(CloudCatalog::cudoCompute());
    Result<CostEstimate> best = est.tryCheapest(
        {{"A40", 1.01}, {"A100-80GB", 2.74}, {"H100", 4.90}}, 14000.0,
        10.0);
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(best.value().gpuName, "H100");
}

TEST(CostEstimatorTest, InvalidInputsAreErrors)
{
    CostEstimator est(CloudCatalog::cudoCompute());
    EXPECT_EQ(est.tryEstimate("A40", 0.0, 1.0, 1.0).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(est.tryEstimate("A40", 1.0, 0.0, 1.0).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(est.tryCheapest({}, 1.0, 1.0).code(),
              ErrorCode::NoViablePlan);
}

TEST(CloudCatalogTest, WithRatePricesMissingGpus)
{
    // The serve extension point: price a GPU the CUDO list lacks
    // instead of failing the whole request with UnknownGpu.
    CloudCatalog catalog = CloudCatalog::cudoCompute()
                               .withRate("L40S", 1.05)
                               .withRate("A100-40GB", 1.20);
    ASSERT_TRUE(catalog.has("L40S"));
    Result<double> rate = catalog.rate("L40S");
    ASSERT_TRUE(rate.ok());
    EXPECT_DOUBLE_EQ(rate.value(), 1.05);
    // Built-in offerings are untouched.
    EXPECT_DOUBLE_EQ(catalog.rate("A40").value(), 0.79);
    // A second offering for a priced GPU: rate() keeps the cheapest.
    catalog.withRate("A40", 0.50);
    EXPECT_DOUBLE_EQ(catalog.rate("A40").value(), 0.50);
    // Estimators see the extension like any other offering.
    Result<CostEstimate> est = CostEstimator(catalog).tryEstimate(
        "L40S", 2.0, 14000.0, 10.0);
    ASSERT_TRUE(est.ok());
    EXPECT_DOUBLE_EQ(est.value().dollarsPerHour, 1.05);
}

TEST(CloudCatalogTest, WithRateRejectsBadInput)
{
    CloudCatalog catalog;
    EXPECT_THROW(catalog.withRate("L40S", 0.0), FatalError);
    EXPECT_THROW(catalog.withRate("", 1.0), FatalError);
}

TEST(CloudCatalogTest, FingerprintTracksOfferings)
{
    CloudCatalog a = CloudCatalog::cudoCompute();
    CloudCatalog b = CloudCatalog::cudoCompute();
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.withRate("L40S", 1.05);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace ftsim
