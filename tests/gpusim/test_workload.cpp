/**
 * @file
 * Unit tests for the workload builder: kernel inventories and FLOP/byte
 * accounting for both model families.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/logging.hpp"
#include "gpusim/workload.hpp"
#include "oracle/reference.hpp"

namespace ftsim {
namespace {

RunConfig
config(std::size_t batch = 1, std::size_t seq = 128, bool sparse = true)
{
    RunConfig c;
    c.batchSize = batch;
    c.seqLen = seq;
    c.sparse = sparse;
    return c;
}

std::set<std::string>
kernelNames(const std::vector<KernelDesc>& kernels)
{
    std::set<std::string> names;
    for (const auto& k : kernels)
        names.insert(k.name);
    return names;
}

TEST(Workload, MixtralForwardContainsPaperKernels)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    auto names = kernelNames(oracle::buildForward(builder, config()));
    // Fig. 6 (Mixtral): matmuls, dequants, softmax, topk, router.
    for (const char* expected :
         {"matmul(w1)", "matmul(w2)", "matmul(w3)", "w1_dequant",
          "w2_dequant", "w3_dequant", "softmax", "topk",
          "matmul(router)", "router_dequant", "matmul(lora)",
          "attention(flash)", "input_norm", "post_attn_norm"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
}

TEST(Workload, BlackMambaForwardContainsPaperKernels)
{
    WorkloadBuilder builder(ModelSpec::blackMamba2p8b());
    auto names = kernelNames(oracle::buildForward(builder, config()));
    // Fig. 6 (Mamba): matmul(w1), gelu, matmul(w2), elementwise_mult,
    // top_k, sigmoid, matmul(router) — plus the mamba-layer kernels.
    for (const char* expected :
         {"matmul(w1)", "gelu", "matmul(w2)", "elementwise_mult", "top_k",
          "sigmoid", "matmul(router)", "selective_scan", "conv1d",
          "rms_norm"}) {
        EXPECT_TRUE(names.count(expected)) << expected;
    }
    // No quantization kernels for fp16 full fine-tuning.
    EXPECT_FALSE(names.count("w1_dequant"));
    EXPECT_FALSE(names.count("matmul(w3)"));
}

TEST(Workload, CheckpointingDefaultsFollowStrategy)
{
    WorkloadBuilder mixtral(ModelSpec::mixtral8x7b());
    WorkloadBuilder mamba(ModelSpec::blackMamba2p8b());
    EXPECT_TRUE(mixtral.checkpointing(config()));
    EXPECT_FALSE(mamba.checkpointing(config()));
    RunConfig forced = config();
    forced.gradientCheckpointing = 0;
    EXPECT_FALSE(mixtral.checkpointing(forced));
}

TEST(Workload, CheckpointingAddsRecomputeKernels)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    RunConfig with = config();
    RunConfig without = config();
    without.gradientCheckpointing = 0;
    auto names = kernelNames(oracle::buildStep(builder, with));
    EXPECT_TRUE(names.count("matmul(w1) (recompute)"));
    auto names2 = kernelNames(oracle::buildStep(builder, without));
    EXPECT_FALSE(names2.count("matmul(w1) (recompute)"));
}

TEST(Workload, StepHasAllThreeStages)
{
    WorkloadBuilder builder(ModelSpec::blackMamba2p8b());
    auto kernels = oracle::buildStep(builder, config());
    bool fwd = false, bwd = false, opt = false;
    for (const auto& k : kernels) {
        fwd |= k.stage == Stage::Forward;
        bwd |= k.stage == Stage::Backward;
        opt |= k.stage == Stage::Optimizer;
    }
    EXPECT_TRUE(fwd);
    EXPECT_TRUE(bwd);
    EXPECT_TRUE(opt);
}

TEST(Workload, ExpertFlopsScaleWithSparsity)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    auto find_flops = [&](bool sparse) {
        for (const auto& k :
             oracle::buildForward(builder, config(1, 128, sparse)))
            if (k.name == "matmul(w1)")
                return k.flops * k.count;
        return 0.0;
    };
    // Dense activates 8 experts, sparse 2: 4x the expert FLOPs.
    EXPECT_NEAR(find_flops(false) / find_flops(true), 4.0, 1e-9);
}

TEST(Workload, DequantTrafficIsBatchIndependent)
{
    // The paper's observation that dequant cost does not scale with
    // batch: it processes weights, not activations.
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    auto dequant_bytes = [&](std::size_t batch) {
        double total = 0.0;
        for (const auto& k : oracle::buildForward(builder, config(batch)))
            if (k.kind == KernelKind::Dequant)
                total += k.bytes * k.count;
        return total;
    };
    EXPECT_DOUBLE_EQ(dequant_bytes(1), dequant_bytes(16));
}

TEST(Workload, MatmulFlopsScaleLinearlyWithBatch)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    auto total_matmul_flops = [&](std::size_t batch) {
        double total = 0.0;
        for (const auto& k : oracle::buildForward(builder, config(batch)))
            if (k.kind == KernelKind::MatMul)
                total += k.flops * k.count;
        return total;
    };
    EXPECT_NEAR(total_matmul_flops(8) / total_matmul_flops(1), 8.0, 1e-6);
}

TEST(Workload, AttentionFlopsScaleQuadraticallyWithSeq)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    auto attn_flops = [&](std::size_t seq) {
        for (const auto& k : oracle::buildForward(builder, config(1, seq)))
            if (k.name == "attention(flash)")
                return k.flops;
        return 0.0;
    };
    // flops ~ N * T * d = B*T^2*d: doubling T quadruples.
    EXPECT_NEAR(attn_flops(256) / attn_flops(128), 4.0, 1e-9);
}

TEST(Workload, OptimizerWorkTracksTrainableParams)
{
    WorkloadBuilder mixtral(ModelSpec::mixtral8x7b());
    WorkloadBuilder mamba(ModelSpec::blackMamba2p8b());
    auto optimizer_bytes = [](const WorkloadBuilder& b) {
        double total = 0.0;
        RunConfig c;
        for (const auto& k : oracle::buildStep(b, c))
            if (k.stage == Stage::Optimizer)
                total += k.bytes * k.count;
        return total;
    };
    // BlackMamba full FT moves ~2.8B params of state; Mixtral's LoRA
    // state is ~230M params. Ratio > 10.
    EXPECT_GT(optimizer_bytes(mamba) / optimizer_bytes(mixtral), 10.0);
}

TEST(Workload, FullFtBackwardDoublesGemmFlops)
{
    WorkloadBuilder builder(ModelSpec::blackMamba2p8b());
    double fwd = 0.0, bwd = 0.0;
    for (const auto& k : oracle::buildStep(builder, config())) {
        if (k.name == "matmul(w1)")
            fwd += k.flops * k.count;
        if (k.name == "matmul(w1_bwd)")
            bwd += k.flops * k.count;
    }
    EXPECT_NEAR(bwd / fwd, 2.0, 1e-9);  // dX + dW.
}

TEST(Workload, ScanTilesScaleWithBatchNotSeq)
{
    // The Mamba scan parallelizes across batch x channels; sequence is
    // serial. Tiles must grow with batch and stay flat with seq.
    WorkloadBuilder builder(ModelSpec::blackMamba2p8b());
    auto scan_tiles = [&](std::size_t batch, std::size_t seq) {
        for (const auto& k : oracle::buildForward(builder, config(batch, seq)))
            if (k.name == "selective_scan")
                return k.tiles;
        return 0.0;
    };
    EXPECT_NEAR(scan_tiles(8, 128) / scan_tiles(1, 128), 8.0, 1e-9);
    EXPECT_DOUBLE_EQ(scan_tiles(1, 128), scan_tiles(1, 1024));
}

TEST(Workload, ZeroConfigIsFatal)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    RunConfig bad;
    bad.batchSize = 0;
    EXPECT_THROW(oracle::buildForward(builder, bad), FatalError);
}

}  // namespace
}  // namespace ftsim
