#include "oracle/reference.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "gpusim/step_plan.hpp"

namespace ftsim::oracle {

namespace {

// kActBytes / ceilDivD / paddedRows come from step_plan.hpp, the same
// helpers the compiled plan evaluates with.

/** Emits a GEMM of shape [m, k] x [k, n] (+ optional weight read). */
KernelDesc
gemm(const char* name, Stage stage, LayerClass layer, double m, double k,
     double n, double weight_bytes, double count)
{
    KernelDesc kd;
    kd.name = name;
    kd.kind = KernelKind::MatMul;
    kd.layer = layer;
    kd.stage = stage;
    // Whole-tile accounting: the padded FLOPs are what the tensor cores
    // actually execute; the skinny-GEMM penalty at small batch falls out
    // of this (time is flat until a 32-row tile fills).
    kd.flops = 2.0 * paddedRows(m) * k * n;
    kd.bytes = kActBytes * (m * k + m * n) + weight_bytes;
    kd.tiles = ceilDivD(m, 32.0) * ceilDivD(n, 128.0);
    kd.count = count;
    return kd;
}

/** Emits a 4-bit dequant kernel over a [k, n] weight. */
KernelDesc
dequant(const char* name, Stage stage, LayerClass layer, double elements,
        double count)
{
    KernelDesc kd;
    kd.name = name;
    kd.kind = KernelKind::Dequant;
    kd.layer = layer;
    kd.stage = stage;
    // NF4-style unpack: nibble extraction, LUT, per-block scale multiply.
    kd.flops = WorkloadBuilder::kDequantOpsPerElement * elements;
    // Read packed codes (0.5 B/elem + scales), write fp16.
    kd.bytes = 0.5625 * elements + 2.0 * elements;
    kd.tiles = ceilDivD(elements, 4096.0);
    kd.count = count;
    return kd;
}

/** Emits a rowwise kernel (softmax/topk/norm/...). */
KernelDesc
rowwise(const char* name, KernelKind kind, Stage stage, LayerClass layer,
        double rows, double width, double ops_per_element, double count)
{
    KernelDesc kd;
    kd.name = name;
    kd.kind = kind;
    kd.layer = layer;
    kd.stage = stage;
    kd.flops = ops_per_element * rows * width;
    kd.bytes = 2.0 * kActBytes * rows * width;  // Read + write.
    kd.tiles = rows;
    kd.count = count;
    return kd;
}

/** Appends the forward kernels of one decoder layer. */
void
addLayerForward(std::vector<KernelDesc>& out, const ModelSpec& spec,
                const RunConfig& config, Stage stage)
{
    const double layers = static_cast<double>(spec.nLayers);
    const double n_tok = static_cast<double>(config.batchSize) *
                         static_cast<double>(config.seqLen);
    const double d = static_cast<double>(spec.dModel);
    const double dff = static_cast<double>(spec.dFf);
    const double experts = static_cast<double>(spec.nExperts);
    const double active = static_cast<double>(
        spec.activeExperts(config.sparse));
    const double tok_per_expert = n_tok * active / experts;
    const bool quantized = spec.strategy == FineTuneStrategy::QLoRA;
    const double wbytes = quantized ? 2.0 : spec.bytesPerParam;

    if (spec.backbone == BackboneKind::Attention) {
        const double t_seq = static_cast<double>(config.seqLen);
        const double d_kv = d * static_cast<double>(spec.nKvHeads) /
                            static_cast<double>(spec.nHeads);

        out.push_back(rowwise("input_norm", KernelKind::Norm, stage,
                              LayerClass::InputNorm, n_tok, d, 8.0,
                              layers));

        const double attn_w = 2.0 * d * d + 2.0 * d * d_kv;
        if (quantized)
            out.push_back(dequant("dequant(attn)", stage,
                                  LayerClass::Attention, attn_w, layers));
        out.push_back(gemm("matmul(qkv)", stage, LayerClass::Attention,
                           n_tok, d, d + 2.0 * d_kv,
                           wbytes * d * (d + 2.0 * d_kv), layers));
        // Fused flash-attention kernel: 2 GEMM-like passes over T.
        KernelDesc attn;
        attn.name = "attention(flash)";
        attn.kind = KernelKind::Attention;
        attn.layer = LayerClass::Attention;
        attn.stage = stage;
        attn.flops = 4.0 * n_tok * t_seq * d;
        attn.bytes = 4.0 * kActBytes * n_tok * d;
        attn.tiles = static_cast<double>(config.batchSize) *
                     static_cast<double>(spec.nHeads) *
                     ceilDivD(t_seq, 64.0);
        attn.count = layers;
        out.push_back(attn);
        out.push_back(gemm("matmul(attn_out)", stage,
                           LayerClass::Attention, n_tok, d, d,
                           wbytes * d * d, layers));

        out.push_back(rowwise("post_attn_norm", KernelKind::Norm, stage,
                              LayerClass::PostAttnNorm, n_tok, d, 8.0,
                              layers));
    } else {
        const double di = static_cast<double>(spec.dInner);
        const double ds = static_cast<double>(spec.dState);

        out.push_back(rowwise("rms_norm", KernelKind::Norm, stage,
                              LayerClass::RmsNorm, n_tok, d, 8.0,
                              2.0 * layers));
        out.push_back(gemm("matmul(in_proj)", stage, LayerClass::Mamba,
                           n_tok, d, 2.0 * di, wbytes * d * 2.0 * di,
                           layers));
        KernelDesc conv;
        conv.name = "conv1d";
        conv.kind = KernelKind::Conv;
        conv.layer = LayerClass::Mamba;
        conv.stage = stage;
        conv.flops = 2.0 * n_tok * di * static_cast<double>(spec.convK);
        conv.bytes = 2.0 * kActBytes * n_tok * di;
        conv.tiles = ceilDivD(n_tok * di, 4096.0);
        conv.count = layers;
        out.push_back(conv);
        out.push_back(rowwise("silu", KernelKind::Silu, stage,
                              LayerClass::Mamba, n_tok, di, 6.0, layers));
        out.push_back(gemm("matmul(bcdt)", stage, LayerClass::Mamba,
                           n_tok, di, 3.0 * ds, wbytes * di * 3.0 * ds,
                           layers));
        // Selective scan: parallel across batch x channels only — the
        // time dimension is sequential, so small batches expose few
        // blocks (the Mamba-specific occupancy cliff).
        KernelDesc scan;
        scan.name = "selective_scan";
        scan.kind = KernelKind::Scan;
        scan.layer = LayerClass::Mamba;
        scan.stage = stage;
        scan.flops = 6.0 * n_tok * di;
        scan.bytes = 3.0 * kActBytes * n_tok * di;
        scan.tiles = static_cast<double>(config.batchSize) *
                     ceilDivD(di, 32.0);
        scan.count = layers;
        out.push_back(scan);
        out.push_back(rowwise("elementwise_gate", KernelKind::Elementwise,
                              stage, LayerClass::Mamba, n_tok, di, 2.0,
                              layers));
        out.push_back(gemm("matmul(out_proj)", stage, LayerClass::Mamba,
                           n_tok, di, d, wbytes * di * d, layers));
    }

    // --- MoE layer: router then experts (Figs. 6 / 12). ---
    if (quantized)
        out.push_back(dequant("router_dequant", stage, LayerClass::MoE,
                              d * experts, layers));
    out.push_back(gemm("matmul(router)", stage, LayerClass::MoE, n_tok, d,
                       experts, wbytes * d * experts, layers));
    if (spec.backbone == BackboneKind::Attention) {
        out.push_back(rowwise("softmax", KernelKind::Softmax, stage,
                              LayerClass::MoE, n_tok, experts, 8.0,
                              layers));
        out.push_back(rowwise("topk", KernelKind::TopK, stage,
                              LayerClass::MoE, n_tok, experts, 4.0,
                              layers));
    } else {
        out.push_back(rowwise("sigmoid", KernelKind::Sigmoid, stage,
                              LayerClass::MoE, n_tok, experts, 4.0,
                              layers));
        out.push_back(rowwise("top_k", KernelKind::TopK, stage,
                              LayerClass::MoE, n_tok, experts, 4.0,
                              layers));
    }

    const double expert_count = layers * experts;
    if (quantized)
        out.push_back(dequant("w1_dequant", stage, LayerClass::MoE,
                              d * dff, expert_count));
    out.push_back(gemm("matmul(w1)", stage, LayerClass::MoE,
                       tok_per_expert, d, dff, wbytes * d * dff,
                       expert_count));
    if (spec.expertKind == ExpertKind::SwiGLU) {
        if (quantized)
            out.push_back(dequant("w3_dequant", stage, LayerClass::MoE,
                                  d * dff, expert_count));
        out.push_back(gemm("matmul(w3)", stage, LayerClass::MoE,
                           tok_per_expert, d, dff, wbytes * d * dff,
                           expert_count));
        out.push_back(rowwise("silu", KernelKind::Silu, stage,
                              LayerClass::MoE, tok_per_expert, dff, 6.0,
                              expert_count));
    } else {
        out.push_back(rowwise("gelu", KernelKind::Gelu, stage,
                              LayerClass::MoE, tok_per_expert, dff, 8.0,
                              expert_count));
    }
    out.push_back(rowwise("elementwise_mult", KernelKind::Elementwise,
                          stage, LayerClass::MoE, tok_per_expert,
                          spec.expertKind == ExpertKind::SwiGLU ? dff : d,
                          2.0, expert_count));
    if (quantized)
        out.push_back(dequant("w2_dequant", stage, LayerClass::MoE,
                              dff * d, expert_count));
    out.push_back(gemm("matmul(w2)", stage, LayerClass::MoE,
                       tok_per_expert, dff, d, wbytes * dff * d,
                       expert_count));

    if (quantized) {
        // LoRA adapter GEMMs (trainable path): one A/B pair per adapted
        // projection, three projections per SwiGLU expert.
        const double r = static_cast<double>(spec.loraRank);
        KernelDesc lora;
        lora.name = "matmul(lora)";
        lora.kind = KernelKind::MatMul;
        lora.layer = LayerClass::MoE;
        lora.stage = stage;
        lora.flops = paddedRows(tok_per_expert) * r * (d + dff);
        lora.bytes = kActBytes * tok_per_expert * (d + dff) / 2.0 +
                     kActBytes * r * (d + dff);
        lora.tiles = ceilDivD(tok_per_expert, 32.0);
        lora.count = expert_count * 6.0;
        out.push_back(lora);
    }
}

/** Appends backward-only kernels (dX/dW chains) of one layer. */
void
addLayerBackward(std::vector<KernelDesc>& out, const ModelSpec& spec,
                 const RunConfig& config)
{
    const Stage stage = Stage::Backward;
    const double layers = static_cast<double>(spec.nLayers);
    const double n_tok = static_cast<double>(config.batchSize) *
                         static_cast<double>(config.seqLen);
    const double d = static_cast<double>(spec.dModel);
    const double dff = static_cast<double>(spec.dFf);
    const double experts = static_cast<double>(spec.nExperts);
    const double active = static_cast<double>(
        spec.activeExperts(config.sparse));
    const double tok_per_expert = n_tok * active / experts;
    const bool quantized = spec.strategy == FineTuneStrategy::QLoRA;
    const bool full_ft = spec.strategy == FineTuneStrategy::FullFineTune;
    const double wbytes = quantized ? 2.0 : spec.bytesPerParam;
    // Full fine-tuning computes dX and dW for every GEMM (2x flops and
    // a gradient write); QLoRA only propagates dX through frozen bases.
    const double gemm_mult = full_ft ? 2.0 : 1.0;

    if (spec.backbone == BackboneKind::Attention) {
        const double t_seq = static_cast<double>(config.seqLen);
        const double d_kv = d * static_cast<double>(spec.nKvHeads) /
                            static_cast<double>(spec.nHeads);
        if (quantized)
            out.push_back(dequant("dequant(attn)", stage,
                                  LayerClass::Attention,
                                  2.0 * d * d + 2.0 * d * d_kv, layers));
        out.push_back(gemm("matmul(qkv_bwd)", stage, LayerClass::Attention,
                           n_tok, d + 2.0 * d_kv, d,
                           wbytes * d * (d + 2.0 * d_kv), layers));
        KernelDesc attn;
        attn.name = "attention(flash_bwd)";
        attn.kind = KernelKind::Attention;
        attn.layer = LayerClass::Attention;
        attn.stage = stage;
        attn.flops = 10.0 * n_tok * t_seq * d;  // ~2.5x forward.
        attn.bytes = 8.0 * kActBytes * n_tok * d;
        attn.tiles = static_cast<double>(config.batchSize) *
                     static_cast<double>(spec.nHeads) *
                     ceilDivD(t_seq, 64.0);
        attn.count = layers;
        out.push_back(attn);
        out.push_back(gemm("matmul(attn_out_bwd)", stage,
                           LayerClass::Attention, n_tok, d, d,
                           wbytes * d * d, layers));
        out.push_back(rowwise("norm_bwd", KernelKind::Norm, stage,
                              LayerClass::InputNorm, n_tok, d, 12.0,
                              2.0 * layers));
    } else {
        const double di = static_cast<double>(spec.dInner);
        out.push_back(rowwise("rms_norm_bwd", KernelKind::Norm, stage,
                              LayerClass::RmsNorm, n_tok, d, 12.0,
                              2.0 * layers));
        KernelDesc in_proj = gemm("matmul(in_proj_bwd)", stage,
                                  LayerClass::Mamba, n_tok, d, 2.0 * di,
                                  wbytes * d * 2.0 * di, layers);
        in_proj.flops *= gemm_mult;
        out.push_back(in_proj);
        KernelDesc scan;
        scan.name = "selective_scan_bwd";
        scan.kind = KernelKind::Scan;
        scan.layer = LayerClass::Mamba;
        scan.stage = stage;
        scan.flops = 9.0 * n_tok * di;  // Reverse-time scan, ~1.5x fwd.
        scan.bytes = 4.5 * kActBytes * n_tok * di;
        scan.tiles = static_cast<double>(config.batchSize) *
                     ceilDivD(di, 32.0);
        scan.count = layers;
        out.push_back(scan);
        KernelDesc conv;
        conv.name = "conv1d_bwd";
        conv.kind = KernelKind::Conv;
        conv.layer = LayerClass::Mamba;
        conv.stage = stage;
        conv.flops =
            4.0 * n_tok * di * static_cast<double>(spec.convK);
        conv.bytes = 4.0 * kActBytes * n_tok * di;
        conv.tiles = ceilDivD(n_tok * di, 4096.0);
        conv.count = layers;
        out.push_back(conv);
        out.push_back(rowwise("silu_bwd", KernelKind::Silu, stage,
                              LayerClass::Mamba, n_tok, di, 8.0, layers));
        KernelDesc out_proj = gemm("matmul(out_proj_bwd)", stage,
                                   LayerClass::Mamba, n_tok, di, d,
                                   wbytes * di * d, layers);
        out_proj.flops *= gemm_mult;
        out.push_back(out_proj);
    }

    // MoE backward.
    if (quantized)
        out.push_back(dequant("router_dequant", stage, LayerClass::MoE,
                              d * experts, layers));
    KernelDesc router = gemm("matmul(router_bwd)", stage, LayerClass::MoE,
                             n_tok, experts, d, wbytes * d * experts,
                             layers);
    router.flops *= gemm_mult;
    out.push_back(router);
    out.push_back(rowwise("softmax_bwd", KernelKind::Softmax, stage,
                          LayerClass::MoE, n_tok, experts, 10.0, layers));

    const double expert_count = layers * experts;
    struct Proj {
        const char* dequant_name;
        const char* matmul_name;
        double in;
        double out;
    };
    std::vector<Proj> projections = {
        {"w1_dequant", "matmul(w1_bwd)", d, dff},
        {"w2_dequant", "matmul(w2_bwd)", dff, d},
    };
    if (spec.expertKind == ExpertKind::SwiGLU)
        projections.push_back({"w3_dequant", "matmul(w3_bwd)", d, dff});
    for (const Proj& p : projections) {
        if (quantized)
            out.push_back(dequant(p.dequant_name, stage, LayerClass::MoE,
                                  p.in * p.out, expert_count));
        KernelDesc kd = gemm(p.matmul_name, stage, LayerClass::MoE,
                             tok_per_expert, p.out, p.in,
                             wbytes * p.in * p.out, expert_count);
        kd.flops *= gemm_mult;
        if (full_ft)
            kd.bytes += 2.0 * p.in * p.out;  // Gradient write.
        out.push_back(kd);
    }
    out.push_back(rowwise("activation_bwd",
                          spec.expertKind == ExpertKind::SwiGLU
                              ? KernelKind::Silu
                              : KernelKind::Gelu,
                          stage, LayerClass::MoE, tok_per_expert, dff, 8.0,
                          expert_count));
    out.push_back(rowwise("elementwise_mult_bwd", KernelKind::Elementwise,
                          stage, LayerClass::MoE, tok_per_expert,
                          spec.expertKind == ExpertKind::SwiGLU ? dff : d,
                          4.0, expert_count));

    if (quantized) {
        // LoRA gradient GEMMs: dX + dA + dB per adapted projection.
        const double r = static_cast<double>(spec.loraRank);
        KernelDesc lora;
        lora.name = "matmul(lora_bwd)";
        lora.kind = KernelKind::MatMul;
        lora.layer = LayerClass::MoE;
        lora.stage = stage;
        lora.flops = paddedRows(tok_per_expert) * r * (d + dff);
        lora.bytes = kActBytes * tok_per_expert * (d + dff) / 2.0 +
                     2.0 * kActBytes * r * (d + dff);
        lora.tiles = ceilDivD(tok_per_expert, 32.0);
        lora.count = expert_count * 12.0;
        out.push_back(lora);
    }
}

/** Appends embedding + LM-head kernels for a stage. */
void
addHead(std::vector<KernelDesc>& out, const ModelSpec& spec,
        const RunConfig& config, Stage stage)
{
    const double n_tok = static_cast<double>(config.batchSize) *
                         static_cast<double>(config.seqLen);
    const double d = static_cast<double>(spec.dModel);
    const double v = static_cast<double>(spec.vocab);
    const bool quantized = spec.strategy == FineTuneStrategy::QLoRA;
    const double wbytes = quantized ? 2.0 : spec.bytesPerParam;

    if (stage == Stage::Forward) {
        out.push_back(rowwise("embedding", KernelKind::Elementwise, stage,
                              LayerClass::Head, n_tok, d, 1.0, 1.0));
        out.push_back(rowwise("final_norm", KernelKind::Norm, stage,
                              LayerClass::Head, n_tok, d, 8.0, 1.0));
        if (quantized)
            out.push_back(dequant("dequant(head)", stage, LayerClass::Head,
                                  d * v, 1.0));
        out.push_back(gemm("matmul(lm_head)", stage, LayerClass::Head,
                           n_tok, d, v, wbytes * d * v, 1.0));
        out.push_back(rowwise("loss_softmax", KernelKind::Softmax, stage,
                              LayerClass::Head, n_tok, v, 8.0, 1.0));
    } else {
        if (quantized)
            out.push_back(dequant("dequant(head)", stage, LayerClass::Head,
                                  d * v, 1.0));
        KernelDesc kd = gemm("matmul(lm_head_bwd)", stage,
                             LayerClass::Head, n_tok, v, d, wbytes * d * v,
                             1.0);
        if (spec.strategy == FineTuneStrategy::FullFineTune) {
            kd.flops *= 2.0;           // dX + dW.
            kd.bytes += 2.0 * d * v;   // Gradient write.
        }
        out.push_back(kd);
        if (spec.strategy == FineTuneStrategy::FullFineTune) {
            out.push_back(rowwise("embedding_bwd", KernelKind::Elementwise,
                                  stage, LayerClass::Head, n_tok, d, 2.0,
                                  1.0));
        }
    }
}

/** Appends the optimizer-stage kernels. */
void
addOptimizer(std::vector<KernelDesc>& out, const ModelSpec& spec)
{
    // Unfused AdamW: several elementwise passes over the optimizer state
    // (read two fp32 arrays, write one, per pass). The stage's runtime is
    // therefore proportional to the trainable-parameter count — the
    // paper's Fig. 4 contrast between BlackMamba (full FT, up to 53%)
    // and Mixtral (LoRA-only, negligible).
    constexpr double kPasses = 4.0;
    const double p = static_cast<double>(spec.trainableParams());
    KernelDesc kd;
    kd.name = "adamw";
    kd.kind = KernelKind::Optimizer;
    kd.layer = LayerClass::OptimizerState;
    kd.stage = Stage::Optimizer;
    kd.flops = kPasses * 4.0 * p;
    kd.bytes = kPasses * 11.0 * p;
    kd.tiles = ceilDivD(p, 4096.0);
    kd.count = kPasses;
    // Split the lump across `count` launches for overhead accounting.
    kd.flops /= kPasses;
    kd.bytes /= kPasses;
    out.push_back(kd);
}

/** Per-kernel-name accumulator of the MoE aggregation. */
struct NamedAgg {
    double seconds = 0.0;
    double launches = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    double sm_weighted = 0.0;
    double dram_weighted = 0.0;
};

}  // namespace

std::vector<KernelDesc>
buildForward(const WorkloadBuilder& builder, const RunConfig& config)
{
    if (config.batchSize == 0 || config.seqLen == 0)
        fatal("WorkloadBuilder: zero batch or sequence length");
    std::vector<KernelDesc> out;
    addLayerForward(out, builder.spec(), config, Stage::Forward);
    addHead(out, builder.spec(), config, Stage::Forward);
    return out;
}

std::vector<KernelDesc>
buildStep(const WorkloadBuilder& builder, const RunConfig& config)
{
    const ModelSpec& spec = builder.spec();
    std::vector<KernelDesc> out = buildForward(builder, config);
    if (builder.checkpointing(config)) {
        // Gradient checkpointing re-runs each layer's forward inside the
        // backward pass (the paper's Mixtral setup, §IV-B2).
        std::vector<KernelDesc> recompute;
        addLayerForward(recompute, spec, config, Stage::Backward);
        for (auto& kd : recompute) {
            kd.name += " (recompute)";
            out.push_back(std::move(kd));
        }
    }
    addLayerBackward(out, spec, config);
    addHead(out, spec, config, Stage::Backward);
    addOptimizer(out, spec);
    return out;
}

StepProfile
profileStep(const FineTuneSim& sim, const RunConfig& config)
{
    const ExecutionModel& exec = sim.exec();
    StepProfile profile;
    profile.config = config;

    std::map<LayerClass, double> layer_seconds;
    std::map<std::string, NamedAgg> moe_aggs;

    for (const KernelDesc& kd : buildStep(sim.workload(), config)) {
        const KernelMetrics m = exec.simulate(kd);
        switch (kd.stage) {
          case Stage::Forward:
            profile.forwardSeconds += m.seconds;
            break;
          case Stage::Backward:
            profile.backwardSeconds += m.seconds;
            break;
          case Stage::Optimizer:
            profile.optimizerSeconds += m.seconds;
            break;
        }
        layer_seconds[kd.layer] += m.seconds;
        profile.kernelLaunches += kd.count;

        if (kd.layer == LayerClass::MoE) {
            NamedAgg& agg = moe_aggs[normalizeKernelName(kd.name)];
            agg.seconds += m.seconds;
            agg.launches += kd.count;
            agg.flops += kd.flops * kd.count;
            agg.bytes += kd.bytes * kd.count;
            agg.sm_weighted += m.smUtilPct * m.seconds;
            agg.dram_weighted += m.dramUtilPct * m.seconds;
        }
    }

    for (const auto& [layer, seconds] : layer_seconds)
        profile.byLayer.push_back({layer, seconds});
    std::sort(profile.byLayer.begin(), profile.byLayer.end(),
              [](const LayerAggregate& a, const LayerAggregate& b) {
                  return a.seconds > b.seconds;
              });

    double moe_total = 0.0;
    double moe_sm = 0.0;
    double moe_dram = 0.0;
    for (const auto& [name, agg] : moe_aggs) {
        KernelAggregate ka;
        ka.name = name;
        ka.seconds = agg.seconds;
        ka.launches = agg.launches;
        ka.flops = agg.flops;
        ka.bytes = agg.bytes;
        // Clamp: the time-weighted mean of values <= 100 can exceed 100
        // by floating-point round-off.
        ka.smUtilPct = agg.seconds > 0.0
                           ? std::min(agg.sm_weighted / agg.seconds, 100.0)
                           : 0.0;
        ka.dramUtilPct =
            agg.seconds > 0.0
                ? std::min(agg.dram_weighted / agg.seconds, 100.0)
                : 0.0;
        profile.moeKernels.push_back(std::move(ka));
        moe_total += agg.seconds;
        moe_sm += agg.sm_weighted;
        moe_dram += agg.dram_weighted;
    }
    std::sort(profile.moeKernels.begin(), profile.moeKernels.end(),
              [](const KernelAggregate& a, const KernelAggregate& b) {
                  return a.seconds > b.seconds;
              });
    if (moe_total > 0.0) {
        profile.moeTimeWeightedSmPct = moe_sm / moe_total;
        profile.moeTimeWeightedDramPct = moe_dram / moe_total;
    }

    profile.overheadSeconds = exec.calibration().stepOverheadMs * 1e-3;
    profile.stepSeconds = profile.forwardSeconds +
                          profile.backwardSeconds +
                          profile.optimizerSeconds +
                          profile.overheadSeconds;
    profile.throughputQps =
        static_cast<double>(config.batchSize) / profile.stepSeconds;
    return profile;
}

double
stepSeconds(const FineTuneSim& sim, const RunConfig& config)
{
    double total = sim.exec().calibration().stepOverheadMs * 1e-3;
    for (const KernelDesc& kd : buildStep(sim.workload(), config))
        total += sim.exec().simulate(kd).seconds;
    return total;
}

}  // namespace ftsim::oracle
