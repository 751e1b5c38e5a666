#include "models/spec.hpp"

#include "common/logging.hpp"

namespace ftsim {

std::size_t
ModelSpec::mixerParamsPerLayer() const
{
    if (backbone == BackboneKind::Attention) {
        // GQA attention: q and o are [d, d]; k and v are [d, d_kv].
        const std::size_t d_kv = dModel * nKvHeads / nHeads;
        return 2 * dModel * dModel + 2 * dModel * d_kv;
    }
    // Mamba: in_proj (d -> 2*di), out_proj (di -> d), depthwise conv,
    // selective projections (B, C, dt) against the SSM state, A and D.
    return 2 * dModel * dInner    // in_proj
           + dInner * dModel     // out_proj
           + convK * dInner      // conv1d
           + 3 * dInner * dState // B/C/dt selective projections
           + 2 * dInner;         // A diagonal + D skip
}

std::size_t
ModelSpec::expertParams() const
{
    if (expertKind == ExpertKind::SwiGLU)
        return 3 * dModel * dFf;  // w1, w2, w3 (Fig. 7 top).
    return 2 * dModel * dFf;      // w1, w2 (Fig. 7 bottom).
}

std::size_t
ModelSpec::routerParamsPerLayer() const
{
    return dModel * nExperts;
}

std::size_t
ModelSpec::moeParamsPerLayer() const
{
    return nExperts * expertParams() + routerParamsPerLayer();
}

std::size_t
ModelSpec::normParamsPerLayer() const
{
    return 2 * dModel;  // Input norm + post-mixer norm (RMSNorm gains).
}

std::size_t
ModelSpec::embeddingParams() const
{
    return 2 * vocab * dModel;  // Untied input embedding + LM head.
}

std::size_t
ModelSpec::totalParams() const
{
    return nLayers * (mixerParamsPerLayer() + moeParamsPerLayer() +
                      normParamsPerLayer()) +
           embeddingParams() + dModel;  // + final norm.
}

std::size_t
ModelSpec::loraParamsPerProjection(std::size_t in_dim,
                                   std::size_t out_dim) const
{
    // A is [r, in], B is [out, r].
    return loraRank * (in_dim + out_dim);
}

std::size_t
ModelSpec::trainableParams() const
{
    if (strategy == FineTuneStrategy::FullFineTune)
        return totalParams();
    // QLoRA on the MoE layers (experts + router), per the paper.
    std::size_t per_expert =
        loraParamsPerProjection(dModel, dFf) +   // w1
        loraParamsPerProjection(dFf, dModel);    // w2
    if (expertKind == ExpertKind::SwiGLU)
        per_expert += loraParamsPerProjection(dModel, dFf);  // w3
    std::size_t per_layer = nExperts * per_expert +
                            loraParamsPerProjection(dModel, nExperts);
    return nLayers * per_layer;
}

double
ModelSpec::weightMemoryBytes() const
{
    return static_cast<double>(totalParams()) * bytesPerParam;
}

double
ModelSpec::optimizerStateBytes() const
{
    // AdamW keeps two fp32 moments per trainable parameter; gradient
    // storage is accounted separately by the memory model.
    return static_cast<double>(trainableParams()) * 8.0;
}

std::size_t
ModelSpec::activeExperts(bool sparse) const
{
    return sparse ? topKSparse : nExperts;
}

double
ModelSpec::sparsity(bool sparse) const
{
    return static_cast<double>(activeExperts(sparse)) /
           static_cast<double>(nExperts);
}

std::string
ModelSpec::fingerprint() const
{
    std::string out;
    appendFingerprint(out);
    return out;
}

void
ModelSpec::appendFingerprint(std::string& out) const
{
    strAppend(out, name, '|', static_cast<int>(backbone), '|',
              static_cast<int>(expertKind), '|', nLayers, '|', dModel,
              '|', nHeads, '|', nKvHeads, '|', dFf, '|', nExperts, '|',
              topKSparse, '|', vocab, '|', dInner, '|', dState, '|',
              convK, '|', static_cast<int>(strategy), '|', loraRank,
              '|', Exact{bytesPerParam});
}

ModelSpec
ModelSpec::mixtral8x7b()
{
    ModelSpec spec;
    spec.name = "Mixtral-8x7B";
    spec.backbone = BackboneKind::Attention;
    spec.expertKind = ExpertKind::SwiGLU;
    spec.nLayers = 32;
    spec.dModel = 4096;
    spec.nHeads = 32;
    spec.nKvHeads = 8;
    spec.dFf = 14336;
    spec.nExperts = 8;
    spec.topKSparse = 2;
    spec.vocab = 32000;
    spec.strategy = FineTuneStrategy::QLoRA;
    spec.loraRank = 16;
    spec.bytesPerParam = 0.5;  // 4-bit NF4 base (QLoRA).
    return spec;
}

ModelSpec
ModelSpec::blackMamba2p8b()
{
    // Dimensions calibrated so the closed-form parameter count lands at
    // Table I's 2.8B (the BlackMamba release does not publish every
    // hyper-parameter; the layer structure is what matters here).
    ModelSpec spec;
    spec.name = "BlackMamba-2.8B";
    spec.backbone = BackboneKind::Mamba;
    spec.expertKind = ExpertKind::Gelu;
    spec.nLayers = 18;
    spec.dModel = 1600;
    spec.nHeads = 0;
    spec.nKvHeads = 0;
    spec.dInner = 3200;
    spec.dState = 16;
    spec.convK = 4;
    spec.dFf = 5120;
    spec.nExperts = 8;
    spec.topKSparse = 2;
    spec.vocab = 50304;
    spec.strategy = FineTuneStrategy::FullFineTune;
    spec.bytesPerParam = 2.0;  // fp16 full fine-tuning.
    return spec;
}

}  // namespace ftsim
