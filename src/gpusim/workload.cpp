#include "gpusim/workload.hpp"

#include "common/logging.hpp"

namespace ftsim {

WorkloadBuilder::WorkloadBuilder(const ModelSpec& spec,
                                 std::shared_ptr<PlanRegistry> registry)
    : spec_(spec), registry_(std::move(registry))
{
    if (spec_.nLayers == 0 || spec_.dModel == 0)
        fatal("WorkloadBuilder: incomplete model spec");
}

bool
WorkloadBuilder::checkpointing(const RunConfig& config) const
{
    if (config.gradientCheckpointing >= 0)
        return config.gradientCheckpointing > 0;
    return spec_.strategy == FineTuneStrategy::QLoRA;
}

// Each compile* function mirrors its add* counterpart in the reference
// emission (src/oracle/reference.cpp) kernel for kernel: same emission
// order, same names, same counts, and formulas whose apply() replicates
// the reference arithmetic term-for-term. The golden tests in
// tests/gpusim/test_step_plan.cpp enforce the mirror.

namespace {

/** The reference name, plus the recompute suffix the reference
 *  buildStep appends. */
std::string
planKernelName(const char* name, bool recompute)
{
    std::string out = name;
    if (recompute)
        out += " (recompute)";
    return out;
}

/** Batch-independent dequant terms; mirrors the reference dequant. */
KernelFormula
dequantFormula(double elements)
{
    return KernelFormula::fixed(
        WorkloadBuilder::kDequantOpsPerElement * elements,
        0.5625 * elements + 2.0 * elements,
        ceilDivD(elements, 4096.0));
}

}  // namespace

const StepPlan&
WorkloadBuilder::stepPlan(const RunConfig& config) const
{
    const bool ckpt = checkpointing(config);
    const std::size_t slot =
        (config.sparse ? 1u : 0u) | (ckpt ? 2u : 0u);
    PlanSlot& entry = plans_[slot];
    std::call_once(entry.once, [&] {
        if (registry_) {
            // Fleet-wide lookup: whichever builder on this model gets
            // here first compiles; everyone else shares its plan (name
            // ids resolve because all of them intern into the
            // registry's interner).
            entry.plan = registry_->plan(
                strCat(spec_.fingerprint(), "|sparse=", config.sparse,
                       "|ckpt=", ckpt),
                [&] {
                    plans_compiled_.fetch_add(1);
                    return compilePlan(config.sparse, ckpt);
                });
        } else {
            entry.plan = std::make_shared<const StepPlan>(
                compilePlan(config.sparse, ckpt));
            plans_compiled_.fetch_add(1);
        }
    });
    return *entry.plan;
}

StepPlan
WorkloadBuilder::compilePlan(bool sparse, bool checkpointing) const
{
    StepPlan plan;
    plan.activeExperts =
        static_cast<double>(spec_.activeExperts(sparse));
    plan.nExperts = static_cast<double>(spec_.nExperts);
    compileLayerForward(plan, Stage::Forward, false);
    compileHead(plan, Stage::Forward);
    if (checkpointing)
        compileLayerForward(plan, Stage::Backward, true);
    compileLayerBackward(plan);
    compileHead(plan, Stage::Backward);
    compileOptimizer(plan);
    plan.finalize(interner());
    return plan;
}

void
WorkloadBuilder::compileLayerForward(StepPlan& plan, Stage stage,
                                     bool recompute) const
{
    const double layers = static_cast<double>(spec_.nLayers);
    const double d = static_cast<double>(spec_.dModel);
    const double dff = static_cast<double>(spec_.dFf);
    const double experts = static_cast<double>(spec_.nExperts);
    const bool quantized = spec_.strategy == FineTuneStrategy::QLoRA;
    const double wbytes = quantized ? 2.0 : spec_.bytesPerParam;

    auto emit = [&](const char* name, KernelKind kind, LayerClass layer,
                    double count, const KernelFormula& f) {
        plan.push(interner().intern(planKernelName(name, recompute)), kind,
                  layer, stage, count, f);
    };

    if (spec_.backbone == BackboneKind::Attention) {
        const double d_kv = d * static_cast<double>(spec_.nKvHeads) /
                            static_cast<double>(spec_.nHeads);

        emit("input_norm", KernelKind::Norm, LayerClass::InputNorm,
             layers, KernelFormula::rowwise(RowsKind::Tokens, d, 8.0));

        const double attn_w = 2.0 * d * d + 2.0 * d * d_kv;
        if (quantized)
            emit("dequant(attn)", KernelKind::Dequant,
                 LayerClass::Attention, layers, dequantFormula(attn_w));
        emit("matmul(qkv)", KernelKind::MatMul, LayerClass::Attention,
             layers,
             KernelFormula::gemm(RowsKind::Tokens, d, d + 2.0 * d_kv,
                                 wbytes * d * (d + 2.0 * d_kv), 1.0,
                                 0.0));
        emit("attention(flash)", KernelKind::Attention,
             LayerClass::Attention, layers,
             KernelFormula::attention(
                 4.0, 4.0, d, static_cast<double>(spec_.nHeads)));
        emit("matmul(attn_out)", KernelKind::MatMul,
             LayerClass::Attention, layers,
             KernelFormula::gemm(RowsKind::Tokens, d, d, wbytes * d * d,
                                 1.0, 0.0));

        emit("post_attn_norm", KernelKind::Norm, LayerClass::PostAttnNorm,
             layers, KernelFormula::rowwise(RowsKind::Tokens, d, 8.0));
    } else {
        const double di = static_cast<double>(spec_.dInner);
        const double ds = static_cast<double>(spec_.dState);

        emit("rms_norm", KernelKind::Norm, LayerClass::RmsNorm,
             2.0 * layers,
             KernelFormula::rowwise(RowsKind::Tokens, d, 8.0));
        emit("matmul(in_proj)", KernelKind::MatMul, LayerClass::Mamba,
             layers,
             KernelFormula::gemm(RowsKind::Tokens, d, 2.0 * di,
                                 wbytes * d * 2.0 * di, 1.0, 0.0));
        emit("conv1d", KernelKind::Conv, LayerClass::Mamba, layers,
             KernelFormula::conv(2.0, 2.0, di,
                                 static_cast<double>(spec_.convK)));
        emit("silu", KernelKind::Silu, LayerClass::Mamba, layers,
             KernelFormula::rowwise(RowsKind::Tokens, di, 6.0));
        emit("matmul(bcdt)", KernelKind::MatMul, LayerClass::Mamba,
             layers,
             KernelFormula::gemm(RowsKind::Tokens, di, 3.0 * ds,
                                 wbytes * di * 3.0 * ds, 1.0, 0.0));
        emit("selective_scan", KernelKind::Scan, LayerClass::Mamba,
             layers,
             KernelFormula::scan(6.0, 3.0, di, ceilDivD(di, 32.0)));
        emit("elementwise_gate", KernelKind::Elementwise,
             LayerClass::Mamba, layers,
             KernelFormula::rowwise(RowsKind::Tokens, di, 2.0));
        emit("matmul(out_proj)", KernelKind::MatMul, LayerClass::Mamba,
             layers,
             KernelFormula::gemm(RowsKind::Tokens, di, d,
                                 wbytes * di * d, 1.0, 0.0));
    }

    // --- MoE layer: router then experts (Figs. 6 / 12). ---
    if (quantized)
        emit("router_dequant", KernelKind::Dequant, LayerClass::MoE,
             layers, dequantFormula(d * experts));
    emit("matmul(router)", KernelKind::MatMul, LayerClass::MoE, layers,
         KernelFormula::gemm(RowsKind::Tokens, d, experts,
                             wbytes * d * experts, 1.0, 0.0));
    if (spec_.backbone == BackboneKind::Attention) {
        emit("softmax", KernelKind::Softmax, LayerClass::MoE, layers,
             KernelFormula::rowwise(RowsKind::Tokens, experts, 8.0));
        emit("topk", KernelKind::TopK, LayerClass::MoE, layers,
             KernelFormula::rowwise(RowsKind::Tokens, experts, 4.0));
    } else {
        emit("sigmoid", KernelKind::Sigmoid, LayerClass::MoE, layers,
             KernelFormula::rowwise(RowsKind::Tokens, experts, 4.0));
        emit("top_k", KernelKind::TopK, LayerClass::MoE, layers,
             KernelFormula::rowwise(RowsKind::Tokens, experts, 4.0));
    }

    const double expert_count = layers * experts;
    if (quantized)
        emit("w1_dequant", KernelKind::Dequant, LayerClass::MoE,
             expert_count, dequantFormula(d * dff));
    emit("matmul(w1)", KernelKind::MatMul, LayerClass::MoE, expert_count,
         KernelFormula::gemm(RowsKind::TokensPerExpert, d, dff,
                             wbytes * d * dff, 1.0, 0.0));
    if (spec_.expertKind == ExpertKind::SwiGLU) {
        if (quantized)
            emit("w3_dequant", KernelKind::Dequant, LayerClass::MoE,
                 expert_count, dequantFormula(d * dff));
        emit("matmul(w3)", KernelKind::MatMul, LayerClass::MoE,
             expert_count,
             KernelFormula::gemm(RowsKind::TokensPerExpert, d, dff,
                                 wbytes * d * dff, 1.0, 0.0));
        emit("silu", KernelKind::Silu, LayerClass::MoE, expert_count,
             KernelFormula::rowwise(RowsKind::TokensPerExpert, dff,
                                    6.0));
    } else {
        emit("gelu", KernelKind::Gelu, LayerClass::MoE, expert_count,
             KernelFormula::rowwise(RowsKind::TokensPerExpert, dff,
                                    8.0));
    }
    emit("elementwise_mult", KernelKind::Elementwise, LayerClass::MoE,
         expert_count,
         KernelFormula::rowwise(
             RowsKind::TokensPerExpert,
             spec_.expertKind == ExpertKind::SwiGLU ? dff : d, 2.0));
    if (quantized)
        emit("w2_dequant", KernelKind::Dequant, LayerClass::MoE,
             expert_count, dequantFormula(dff * d));
    emit("matmul(w2)", KernelKind::MatMul, LayerClass::MoE, expert_count,
         KernelFormula::gemm(RowsKind::TokensPerExpert, dff, d,
                             wbytes * dff * d, 1.0, 0.0));

    if (quantized) {
        // LoRA adapter GEMMs (trainable path).
        const double r = static_cast<double>(spec_.loraRank);
        emit("matmul(lora)", KernelKind::MatMul, LayerClass::MoE,
             expert_count * 6.0,
             KernelFormula::lora(RowsKind::TokensPerExpert, r, d + dff,
                                 kActBytes * r * (d + dff)));
    }
}

void
WorkloadBuilder::compileLayerBackward(StepPlan& plan) const
{
    const Stage stage = Stage::Backward;
    const double layers = static_cast<double>(spec_.nLayers);
    const double d = static_cast<double>(spec_.dModel);
    const double dff = static_cast<double>(spec_.dFf);
    const double experts = static_cast<double>(spec_.nExperts);
    const bool quantized = spec_.strategy == FineTuneStrategy::QLoRA;
    const bool full_ft = spec_.strategy == FineTuneStrategy::FullFineTune;
    const double wbytes = quantized ? 2.0 : spec_.bytesPerParam;
    const double gemm_mult = full_ft ? 2.0 : 1.0;

    auto emit = [&](const char* name, KernelKind kind, LayerClass layer,
                    double count, const KernelFormula& f) {
        plan.push(interner().intern(name), kind, layer, stage, count, f);
    };

    if (spec_.backbone == BackboneKind::Attention) {
        const double d_kv = d * static_cast<double>(spec_.nKvHeads) /
                            static_cast<double>(spec_.nHeads);
        if (quantized)
            emit("dequant(attn)", KernelKind::Dequant,
                 LayerClass::Attention, layers,
                 dequantFormula(2.0 * d * d + 2.0 * d * d_kv));
        emit("matmul(qkv_bwd)", KernelKind::MatMul, LayerClass::Attention,
             layers,
             KernelFormula::gemm(RowsKind::Tokens, d + 2.0 * d_kv, d,
                                 wbytes * d * (d + 2.0 * d_kv), 1.0,
                                 0.0));
        emit("attention(flash_bwd)", KernelKind::Attention,
             LayerClass::Attention, layers,
             KernelFormula::attention(
                 10.0, 8.0, d, static_cast<double>(spec_.nHeads)));
        emit("matmul(attn_out_bwd)", KernelKind::MatMul,
             LayerClass::Attention, layers,
             KernelFormula::gemm(RowsKind::Tokens, d, d, wbytes * d * d,
                                 1.0, 0.0));
        emit("norm_bwd", KernelKind::Norm, LayerClass::InputNorm,
             2.0 * layers,
             KernelFormula::rowwise(RowsKind::Tokens, d, 12.0));
    } else {
        const double di = static_cast<double>(spec_.dInner);
        emit("rms_norm_bwd", KernelKind::Norm, LayerClass::RmsNorm,
             2.0 * layers,
             KernelFormula::rowwise(RowsKind::Tokens, d, 12.0));
        emit("matmul(in_proj_bwd)", KernelKind::MatMul,
             LayerClass::Mamba, layers,
             KernelFormula::gemm(RowsKind::Tokens, d, 2.0 * di,
                                 wbytes * d * 2.0 * di, gemm_mult, 0.0));
        emit("selective_scan_bwd", KernelKind::Scan, LayerClass::Mamba,
             layers,
             KernelFormula::scan(9.0, 4.5, di, ceilDivD(di, 32.0)));
        emit("conv1d_bwd", KernelKind::Conv, LayerClass::Mamba, layers,
             KernelFormula::conv(4.0, 4.0, di,
                                 static_cast<double>(spec_.convK)));
        emit("silu_bwd", KernelKind::Silu, LayerClass::Mamba, layers,
             KernelFormula::rowwise(RowsKind::Tokens, di, 8.0));
        emit("matmul(out_proj_bwd)", KernelKind::MatMul,
             LayerClass::Mamba, layers,
             KernelFormula::gemm(RowsKind::Tokens, di, d,
                                 wbytes * di * d, gemm_mult, 0.0));
    }

    // MoE backward.
    if (quantized)
        emit("router_dequant", KernelKind::Dequant, LayerClass::MoE,
             layers, dequantFormula(d * experts));
    emit("matmul(router_bwd)", KernelKind::MatMul, LayerClass::MoE,
         layers,
         KernelFormula::gemm(RowsKind::Tokens, experts, d,
                             wbytes * d * experts, gemm_mult, 0.0));
    emit("softmax_bwd", KernelKind::Softmax, LayerClass::MoE, layers,
         KernelFormula::rowwise(RowsKind::Tokens, experts, 10.0));

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
    if (spec_.expertKind == ExpertKind::SwiGLU)
        projections.push_back({"w3_dequant", "matmul(w3_bwd)", d, dff});
    for (const Proj& p : projections) {
        if (quantized)
            emit(p.dequant_name, KernelKind::Dequant, LayerClass::MoE,
                 expert_count, dequantFormula(p.in * p.out));
        emit(p.matmul_name, KernelKind::MatMul, LayerClass::MoE,
             expert_count,
             KernelFormula::gemm(
                 RowsKind::TokensPerExpert, p.out, p.in,
                 wbytes * p.in * p.out, gemm_mult,
                 full_ft ? 2.0 * p.in * p.out : 0.0));  // Grad write.
    }
    emit("activation_bwd",
         spec_.expertKind == ExpertKind::SwiGLU ? KernelKind::Silu
                                                : KernelKind::Gelu,
         LayerClass::MoE, expert_count,
         KernelFormula::rowwise(RowsKind::TokensPerExpert, dff, 8.0));
    emit("elementwise_mult_bwd", KernelKind::Elementwise, LayerClass::MoE,
         expert_count,
         KernelFormula::rowwise(
             RowsKind::TokensPerExpert,
             spec_.expertKind == ExpertKind::SwiGLU ? dff : d, 4.0));

    if (quantized) {
        // LoRA gradient GEMMs: dX + dA + dB per adapted projection.
        const double r = static_cast<double>(spec_.loraRank);
        emit("matmul(lora_bwd)", KernelKind::MatMul, LayerClass::MoE,
             expert_count * 12.0,
             KernelFormula::lora(RowsKind::TokensPerExpert, r, d + dff,
                                 2.0 * kActBytes * r * (d + dff)));
    }
}

void
WorkloadBuilder::compileHead(StepPlan& plan, Stage stage) const
{
    const double d = static_cast<double>(spec_.dModel);
    const double v = static_cast<double>(spec_.vocab);
    const bool quantized = spec_.strategy == FineTuneStrategy::QLoRA;
    const double wbytes = quantized ? 2.0 : spec_.bytesPerParam;

    auto emit = [&](const char* name, KernelKind kind, double count,
                    const KernelFormula& f) {
        plan.push(interner().intern(name), kind, LayerClass::Head, stage,
                  count, f);
    };

    if (stage == Stage::Forward) {
        emit("embedding", KernelKind::Elementwise, 1.0,
             KernelFormula::rowwise(RowsKind::Tokens, d, 1.0));
        emit("final_norm", KernelKind::Norm, 1.0,
             KernelFormula::rowwise(RowsKind::Tokens, d, 8.0));
        if (quantized)
            emit("dequant(head)", KernelKind::Dequant, 1.0,
                 dequantFormula(d * v));
        emit("matmul(lm_head)", KernelKind::MatMul, 1.0,
             KernelFormula::gemm(RowsKind::Tokens, d, v, wbytes * d * v,
                                 1.0, 0.0));
        emit("loss_softmax", KernelKind::Softmax, 1.0,
             KernelFormula::rowwise(RowsKind::Tokens, v, 8.0));
    } else {
        if (quantized)
            emit("dequant(head)", KernelKind::Dequant, 1.0,
                 dequantFormula(d * v));
        const bool full_ft =
            spec_.strategy == FineTuneStrategy::FullFineTune;
        emit("matmul(lm_head_bwd)", KernelKind::MatMul, 1.0,
             KernelFormula::gemm(RowsKind::Tokens, v, d, wbytes * d * v,
                                 full_ft ? 2.0 : 1.0,          // dX + dW.
                                 full_ft ? 2.0 * d * v : 0.0));
        if (full_ft)
            emit("embedding_bwd", KernelKind::Elementwise, 1.0,
                 KernelFormula::rowwise(RowsKind::Tokens, d, 2.0));
    }
}

void
WorkloadBuilder::compileOptimizer(StepPlan& plan) const
{
    // Mirrors addOptimizer: the kernel is fully batch-independent.
    constexpr double kPasses = 4.0;
    const double p = static_cast<double>(spec_.trainableParams());
    double flops = kPasses * 4.0 * p;
    double bytes = kPasses * 11.0 * p;
    const double tiles = ceilDivD(p, 4096.0);
    flops /= kPasses;
    bytes /= kPasses;
    plan.push(interner().intern("adamw"), KernelKind::Optimizer,
              LayerClass::OptimizerState, Stage::Optimizer, kPasses,
              KernelFormula::fixed(flops, bytes, tiles));
}

}  // namespace ftsim
