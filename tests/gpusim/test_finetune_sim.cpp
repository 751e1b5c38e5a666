/**
 * @file
 * Tests for the end-to-end step simulator: these encode the paper's
 * qualitative findings (Takeaways 3-5 and the Fig. 4-10 shapes).
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/memory_model.hpp"

namespace ftsim {
namespace {

RunConfig
config(std::size_t batch, bool sparse = true, std::size_t seq = 128)
{
    RunConfig c;
    c.batchSize = batch;
    c.seqLen = seq;
    c.sparse = sparse;
    return c;
}

TEST(FineTuneSim, MoEDominatesExecutionTime)
{
    // Fig. 5 / Takeaway 3: the MoE layer is the costliest component
    // (~85% on average in the paper).
    for (bool mixtral : {true, false}) {
        ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                 : ModelSpec::blackMamba2p8b();
        FineTuneSim sim(spec, GpuSpec::a40());
        StepProfile p = sim.profileStep(config(4));
        EXPECT_GT(p.moeFractionOfStep(), 0.5) << spec.name;
        // Largest *layer* class must be the MoE (optimizer is a stage,
        // not a layer — Fig. 5 has no optimizer row).
        for (const auto& layer : p.byLayer) {
            if (layer.layer == LayerClass::OptimizerState)
                continue;
            EXPECT_EQ(layer.layer, LayerClass::MoE) << spec.name;
            break;
        }
    }
}

TEST(FineTuneSim, MatmulIsTheLargestMoeKernel)
{
    // Fig. 6: matrix multiplication dominates inside the MoE layer.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    StepProfile p = sim.profileStep(config(8));
    ASSERT_FALSE(p.moeKernels.empty());
    EXPECT_EQ(p.moeKernels.front().name.rfind("matmul", 0), 0u)
        << p.moeKernels.front().name;
}

TEST(FineTuneSim, OptimizerShareLargeForFullFtSmallForLora)
{
    // Fig. 4: optimizer stage is a large share for BlackMamba (up to
    // ~53% at bsz 1) and negligible for Mixtral LoRA.
    FineTuneSim mamba(ModelSpec::blackMamba2p8b(), GpuSpec::a40());
    StepProfile mp = mamba.profileStep(config(1));
    const double mamba_share =
        mp.optimizerSeconds /
        (mp.forwardSeconds + mp.backwardSeconds + mp.optimizerSeconds);
    EXPECT_GT(mamba_share, 0.25);

    FineTuneSim mixtral(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    StepProfile xp = mixtral.profileStep(config(1));
    const double mixtral_share =
        xp.optimizerSeconds /
        (xp.forwardSeconds + xp.backwardSeconds + xp.optimizerSeconds);
    EXPECT_LT(mixtral_share, 0.05);
}

TEST(FineTuneSim, BackwardCostsMoreThanForward)
{
    // Fig. 4: the backward stage typically exceeds the forward stage.
    for (bool mixtral : {true, false}) {
        ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                 : ModelSpec::blackMamba2p8b();
        FineTuneSim sim(spec, GpuSpec::a40());
        StepProfile p = sim.profileStep(config(4));
        EXPECT_GT(p.backwardSeconds, p.forwardSeconds) << spec.name;
    }
}

TEST(FineTuneSim, SparseBeatsDenseAtEqualBatch)
{
    // Fig. 8: same batch size, sparse routing is faster.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    EXPECT_GT(sim.throughput(2, 79, true), sim.throughput(2, 79, false));
}

TEST(FineTuneSim, ThroughputGrowsSublinearly)
{
    // Fig. 8: 1->2 nearly doubles; 1->8 is well below 8x.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    double q1 = sim.throughput(1, 79, true);
    double q2 = sim.throughput(2, 79, true);
    double q8 = sim.throughput(8, 79, true);
    EXPECT_GT(q2 / q1, 1.4);
    EXPECT_LT(q2 / q1, 2.0);
    EXPECT_GT(q8 / q1, 2.0);
    EXPECT_LT(q8 / q1, 8.0);
}

TEST(FineTuneSim, ThroughputMonotonicInBatch)
{
    FineTuneSim sim(ModelSpec::blackMamba2p8b(), GpuSpec::a40());
    auto sweep_result = sim.throughputSweep(79, true, 20);
    ASSERT_TRUE(sweep_result.ok());
    const auto& sweep = sweep_result.value();
    ASSERT_EQ(sweep.size(), 20u);
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GE(sweep[i].qps, sweep[i - 1].qps * 0.999);
}

TEST(FineTuneSim, SmUtilRisesWithBatch)
{
    // Fig. 9: time-weighted SM utilization increases with batch size.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    double sm1 = sim.profileStep(config(1)).moeTimeWeightedSmPct;
    double sm32 = sim.profileStep(config(32)).moeTimeWeightedSmPct;
    EXPECT_GT(sm32, sm1);
}

TEST(FineTuneSim, DramUtilFallsWithBatch)
{
    // Fig. 10 / Takeaway 5: time-weighted DRAM utilization decreases as
    // batch grows (weights amortize; compute-bound regime).
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    double d1 = sim.profileStep(config(1)).moeTimeWeightedDramPct;
    double d32 = sim.profileStep(config(32)).moeTimeWeightedDramPct;
    EXPECT_LT(d32, d1);
}

TEST(FineTuneSim, DequantSmUtilIsBatchIndependent)
{
    // Fig. 9: the dequant kernels hold high SM% regardless of batch.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    auto dequant_sm = [&](std::size_t batch) {
        for (const auto& k : sim.profileStep(config(batch)).moeKernels)
            if (k.name == "w1_dequant")
                return k.smUtilPct;
        return -1.0;
    };
    double sm1 = dequant_sm(1);
    double sm32 = dequant_sm(32);
    EXPECT_NEAR(sm1, sm32, 1.0);
    EXPECT_GT(sm1, 50.0);
}

TEST(FineTuneSim, FasterGpusGiveMoreThroughput)
{
    ModelSpec spec = ModelSpec::mixtral8x7b();
    double a40 =
        FineTuneSim(spec, GpuSpec::a40()).throughput(4, 148, true);
    double a100 =
        FineTuneSim(spec, GpuSpec::a100_80()).throughput(4, 148, true);
    double h100 =
        FineTuneSim(spec, GpuSpec::h100_80()).throughput(4, 148, true);
    EXPECT_GT(a100, a40);
    EXPECT_GT(h100, a100);
}

TEST(FineTuneSim, StepProfileIsSelfConsistent)
{
    FineTuneSim sim(ModelSpec::blackMamba2p8b(), GpuSpec::a40());
    StepProfile p = sim.profileStep(config(4));
    EXPECT_NEAR(p.stepSeconds,
                p.forwardSeconds + p.backwardSeconds +
                    p.optimizerSeconds + p.overheadSeconds,
                1e-12);
    EXPECT_NEAR(p.throughputQps, 4.0 / p.stepSeconds, 1e-9);
    double layer_total = 0.0;
    for (const auto& l : p.byLayer)
        layer_total += l.seconds;
    EXPECT_NEAR(layer_total,
                p.forwardSeconds + p.backwardSeconds + p.optimizerSeconds,
                1e-9);
    EXPECT_GT(p.kernelLaunches, 100.0);
}

TEST(FineTuneSim, StepSecondsAgreesWithProfile)
{
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    RunConfig c = config(2);
    EXPECT_NEAR(sim.stepSeconds(c), sim.profileStep(c).stepSeconds,
                1e-12);
}

TEST(NormalizeKernelNameTest, FoldsBackwardAndRecompute)
{
    EXPECT_EQ(normalizeKernelName("matmul(w1_bwd)"), "matmul(w1)");
    EXPECT_EQ(normalizeKernelName("softmax_bwd"), "softmax");
    EXPECT_EQ(normalizeKernelName("matmul(w1) (recompute)"),
              "matmul(w1)");
    EXPECT_EQ(normalizeKernelName("topk"), "topk");
}

TEST(NormalizeKernelNameTest, ErasesEveryBackwardMarker)
{
    // The historical bug: only the first find() hit was erased.
    EXPECT_EQ(normalizeKernelName("matmul(w1_bwd)_bwd"), "matmul(w1)");
    EXPECT_EQ(normalizeKernelName("a_bwd_b_bwd_c"), "a_b_c");
    EXPECT_EQ(normalizeKernelName("_bwd"), "");
    // Markers formed by the join of two fragments are caught too.
    EXPECT_EQ(normalizeKernelName("x_b_bwdwd"), "x");
}

TEST(NormalizeKernelNameTest, RecomputeSuffixCombinesWithBackward)
{
    // Recompute kernels are re-emitted forward kernels, but aggregation
    // must fold a hypothetical combined spelling all the same.
    EXPECT_EQ(normalizeKernelName("matmul(w1_bwd) (recompute)"),
              "matmul(w1)");
    EXPECT_EQ(normalizeKernelName("silu_bwd (recompute)"), "silu");
    // The suffix is only stripped at the very end of the name.
    EXPECT_EQ(normalizeKernelName("a (recompute) b"), "a (recompute) b");
}

TEST(FineTuneSim, SweepRejectsZeroMax)
{
    // Migrated from fatal() to the Result/InvalidArgument error path:
    // a zero sweep is a domain failure callers branch on, not an abort.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    auto sweep = sim.throughputSweep(128, true, 0);
    ASSERT_FALSE(sweep.ok());
    EXPECT_EQ(sweep.code(), ErrorCode::InvalidArgument);
}

}  // namespace
}  // namespace ftsim
