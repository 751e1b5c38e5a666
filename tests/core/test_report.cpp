/**
 * @file
 * Tests for the one-call characterization report (Planner::report).
 */

#include <gtest/gtest.h>

#include "core/planner.hpp"

namespace ftsim {
namespace {

/** The report for @p scenario on @p gpu; fails the test on an error. */
std::string
reportFor(const Scenario& scenario, const GpuSpec& gpu = GpuSpec::a40())
{
    Result<std::string> report = Planner(scenario).report(gpu);
    EXPECT_TRUE(report.ok()) << report.error().message;
    return report.valueOr("");
}

TEST(Report, ContainsEverySection)
{
    // Mixtral on A40, GS-like dataset.
    std::string report = reportFor(Scenario::gsMath());
    for (const char* expected :
         {"# Fine-tuning characterization", "## Memory",
          "maximum batch size: 4", "## Step breakdown", "matmul",
          "## Throughput (Eq. 2)", "## Cost", "GPU-hours"}) {
        EXPECT_NE(report.find(expected), std::string::npos) << expected;
    }
}

TEST(Report, BlackMambaVariant)
{
    std::string report =
        reportFor(Scenario{}
                      .withModel(ModelSpec::blackMamba2p8b())
                      .withMedianSeqLen(79)
                      .withLengthSigma(0.45));
    EXPECT_NE(report.find("BlackMamba-2.8B"), std::string::npos);
    EXPECT_NE(report.find("maximum batch size: 20"), std::string::npos);
}

TEST(Report, UnpricedGpuStillReports)
{
    std::string report =
        reportFor(Scenario{}
                      .withModel(ModelSpec::blackMamba2p8b())
                      .withMedianSeqLen(79),
                  GpuSpec::a100_40());  // Not in the CUDO catalog.
    EXPECT_NE(report.find("no price listed"), std::string::npos);
}

TEST(Report, DenseModeReportsSmallerBatch)
{
    std::string sparse_report = reportFor(Scenario::gsMath());
    std::string dense_report =
        reportFor(Scenario::gsMath().withSparse(false));
    EXPECT_NE(sparse_report.find("maximum batch size: 4"),
              std::string::npos);
    EXPECT_NE(dense_report.find("maximum batch size: 1"),
              std::string::npos);
}

}  // namespace
}  // namespace ftsim
