/**
 * @file
 * Paper-fidelity tests of the Planner: the Fig. 13 batch-size model,
 * the Figs. 14-15 throughput fits and the Table IV cost ranking, each
 * reproduced from simulator ground truth.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/planner.hpp"

namespace ftsim {
namespace {

/** A price-free planner for @p model's sweeps at @p seq / @p sigma. */
Planner
sweepPlanner(const ModelSpec& model,
             std::size_t seq = Scenario::kDefaultMedianSeqLen,
             double sigma = Scenario::kDefaultLengthSigma)
{
    return Planner(Scenario{}
                       .withModel(model)
                       .withMedianSeqLen(seq)
                       .withLengthSigma(sigma),
                   CloudCatalog());
}

TEST(PlannerFidelity, BatchSizeDataCoversSweep)
{
    auto data = sweepPlanner(ModelSpec::mixtral8x7b())
                    .batchSizeSweep(GpuSpec::paperGpus(), {79, 174});
    ASSERT_TRUE(data.ok()) << data.error().message;
    // 4 GPUs x 2 seqs x {dense, sparse}.
    EXPECT_EQ(data.value().size(), 16u);
    for (const auto& obs : data.value()) {
        EXPECT_GT(obs.gpuMemGB, 0.0);
        EXPECT_GE(obs.maxBatch, 0);
    }
}

TEST(PlannerFidelity, BatchSizeFitIsAccurate)
{
    // Fig. 13: Eq. 1 fitted on the simulator's ground truth tracks it.
    auto fit = sweepPlanner(ModelSpec::mixtral8x7b())
                   .fitBatchSize(GpuSpec::paperGpus(), {79, 128, 148, 174});
    ASSERT_TRUE(fit.ok()) << fit.error().message;
    EXPECT_LT(fit.value().rmse, 1.5);
    EXPECT_GT(fit.value().model.c0(), 0.0);
    EXPECT_GE(fit.value().model.c1(), 0.0);
    EXPECT_LE(fit.value().model.c1(), 1.0);
}

TEST(PlannerFidelity, BatchSizeProjectionGrowsWithCapacity)
{
    // The Fig. 13 projection to hypothetical 100 / 120 GB GPUs.
    auto fit = sweepPlanner(ModelSpec::mixtral8x7b())
                   .fitBatchSize(GpuSpec::paperGpus(), {148});
    ASSERT_TRUE(fit.ok()) << fit.error().message;
    const MaxBatchModel& model = fit.value().model;
    const double model_mem =
        ModelSpec::mixtral8x7b().weightMemoryBytes() / 1e9;
    int at100 = model.predict(100.0, model_mem, 148.0, 0.25);
    int at120 = model.predict(120.0, model_mem, 148.0, 0.25);
    int at48 = model.predict(48.0, model_mem, 148.0, 0.25);
    EXPECT_GT(at100, at48);
    EXPECT_GT(at120, at100);
}

TEST(PlannerFidelity, ThroughputDataHasDenseAndSparse)
{
    auto data = sweepPlanner(ModelSpec::blackMamba2p8b(), 79)
                    .throughputObservations(GpuSpec::a40());
    ASSERT_TRUE(data.ok()) << data.error().message;
    bool dense = false, sparse = false;
    for (const auto& obs : data.value()) {
        dense |= obs.sparsity == 1.0;
        sparse |= obs.sparsity == 0.25;
        EXPECT_GT(obs.qps, 0.0);
    }
    EXPECT_TRUE(dense);
    EXPECT_TRUE(sparse);
}

TEST(PlannerFidelity, ThroughputFitMeetsPaperRmseBudget)
{
    // Fig. 14: the paper reports RMSE 0.02-0.79 across the four A40
    // combos, i.e. always below ~6% of the peak throughput. Hold this
    // reproduction to the same *relative* bar (its absolute qps scale
    // differs from the authors' testbed).
    for (bool mixtral : {true, false}) {
        ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                 : ModelSpec::blackMamba2p8b();
        for (std::size_t seq : {79u, 174u}) {
            const double sigma = seq == 79 ? 0.45 : 0.40;
            auto fit = sweepPlanner(spec, seq, sigma)
                           .fitThroughput(GpuSpec::a40());
            ASSERT_TRUE(fit.ok()) << fit.error().message;
            double max_qps = 0.0;
            for (const auto& obs : fit.value().observations)
                max_qps = std::max(max_qps, obs.qps);
            EXPECT_LT(fit.value().rmse, std::max(0.8, 0.08 * max_qps))
                << spec.name << " seq " << seq;
        }
    }
}

TEST(PlannerFidelity, ThroughputFitAcrossGpus)
{
    // Fig. 15: Mixtral on the CS dataset (median 79), validated on
    // A100-40GB, A100-80GB, and H100 — paper RMSE <= 0.55.
    const Planner planner =
        sweepPlanner(ModelSpec::mixtral8x7b(), 79, 0.45);
    for (const GpuSpec& gpu :
         {GpuSpec::a100_40(), GpuSpec::a100_80(), GpuSpec::h100_80()}) {
        auto fit = planner.fitThroughput(gpu);
        ASSERT_TRUE(fit.ok()) << fit.error().message;
        double max_qps = 0.0;
        for (const auto& obs : fit.value().observations)
            max_qps = std::max(max_qps, obs.qps);
        EXPECT_LT(fit.value().rmse, std::max(0.6, 0.08 * max_qps))
            << gpu.name;
    }
}

TEST(PlannerFidelity, CostTableRanksH100Cheapest)
{
    // Table IV: H100 wins end-to-end cost despite the highest rate.
    Planner planner(Scenario::gsMath());
    auto rows = planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    ASSERT_GE(rows.value().size(), 3u);
    const CostRow* h100 = nullptr;
    for (const auto& row : rows.value())
        if (row.gpuName == "H100")
            h100 = &row;
    ASSERT_NE(h100, nullptr);
    for (const auto& row : rows.value())
        EXPECT_LE(h100->totalDollars, row.totalDollars) << row.gpuName;
}

TEST(PlannerFidelity, CostTableSkipsUnpricedGpus)
{
    // A100-40GB is not in the CUDO list; it must be absent.
    Planner planner(Scenario::gsMath());
    auto rows = planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok()) << rows.error().message;
    for (const auto& row : rows.value())
        EXPECT_NE(row.gpuName, "A100-40GB");
}

}  // namespace
}  // namespace ftsim
