#ifndef FTSIM_MODELS_SPEC_HPP
#define FTSIM_MODELS_SPEC_HPP

/**
 * @file
 * Full-size model descriptors (Table I of the paper).
 *
 * The miniature models in model.hpp are for *training* studies; these
 * specs describe the real Mixtral-8x7B and BlackMamba-2.8B dimensions and
 * are what the GPU simulator lowers into kernel workloads. Parameter
 * counts and weight memory are closed-form functions of the spec so that
 * Table I's numbers (47B / 23.35 GB, 2.8B / 5.6 GB) are derived, not
 * hard-coded.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "models/kinds.hpp"

namespace ftsim {

/** Fine-tuning strategy applied to a full-size model. */
enum class FineTuneStrategy : std::uint8_t {
    FullFineTune,  ///< All weights updated (BlackMamba in the paper).
    QLoRA,         ///< 4-bit frozen base + LoRA adapters on MoE layers.
};

/** Architecture descriptor for a full-size MoE LLM. */
struct ModelSpec {
    std::string name;
    BackboneKind backbone = BackboneKind::Attention;
    ExpertKind expertKind = ExpertKind::SwiGLU;

    std::size_t nLayers = 0;     ///< Decoder blocks.
    std::size_t dModel = 0;      ///< Residual width.
    std::size_t nHeads = 0;      ///< Attention heads.
    std::size_t nKvHeads = 0;    ///< GQA key/value heads.
    std::size_t dFf = 0;         ///< Expert hidden width.
    std::size_t nExperts = 0;    ///< Experts per MoE layer.
    std::size_t topKSparse = 2;  ///< Active experts in sparse mode.
    std::size_t vocab = 0;

    std::size_t dInner = 0;      ///< Mamba inner width.
    std::size_t dState = 16;     ///< Mamba SSM state dim.
    std::size_t convK = 4;       ///< Mamba conv taps.

    FineTuneStrategy strategy = FineTuneStrategy::QLoRA;
    std::size_t loraRank = 16;   ///< Adapter rank (paper: 16).
    /** Bytes/weight as stored on GPU (0.5 = 4-bit, 2 = fp16). */
    double bytesPerParam = 2.0;

    // ----- Derived quantities (all closed-form) -----

    /** Sequence-mixer (attention or mamba) parameters per layer. */
    std::size_t mixerParamsPerLayer() const;

    /** Parameters of a single expert FFN. */
    std::size_t expertParams() const;

    /** Router parameters per MoE layer. */
    std::size_t routerParamsPerLayer() const;

    /** All MoE parameters per layer (experts + router). */
    std::size_t moeParamsPerLayer() const;

    /** Norm parameters per layer. */
    std::size_t normParamsPerLayer() const;

    /** Embedding + LM-head parameters. */
    std::size_t embeddingParams() const;

    /** Total parameter count. */
    std::size_t totalParams() const;

    /** Trainable parameters under the configured strategy. */
    std::size_t trainableParams() const;

    /** LoRA adapter parameters per adapted projection pair. */
    std::size_t loraParamsPerProjection(std::size_t in_dim,
                                        std::size_t out_dim) const;

    /** GPU-resident weight memory in bytes (Table I column 2). */
    double weightMemoryBytes() const;

    /**
     * Optimizer state bytes (AdamW: two fp32 moments per trainable
     * parameter; gradients are accounted separately).
     */
    double optimizerStateBytes() const;

    /** Experts active per token in the given mode. */
    std::size_t activeExperts(bool sparse) const;

    /** Fraction of experts active (the paper's "sparsity" knob). */
    double sparsity(bool sparse) const;

    /**
     * Canonical cache identity: every field that affects the lowered
     * kernel workload, serialized. Two specs with equal fingerprints
     * compile to bit-identical step plans, so plan registries and
     * serving layers key on this (a tweaked copy never aliases a
     * preset, same contract as the planner's GPU fingerprint).
     */
    std::string fingerprint() const;

    /** Appends fingerprint() to @p out (for key builders). */
    void appendFingerprint(std::string& out) const;

    // ----- The two models of the paper (Table I) -----

    /** Mixtral-8x7B: 32 layers, 8 experts, SwiGLU, QLoRA 4-bit. */
    static ModelSpec mixtral8x7b();

    /** BlackMamba-2.8B: 18 layers, 8 experts, GELU, full fp16 FT. */
    static ModelSpec blackMamba2p8b();
};

}  // namespace ftsim

#endif  // FTSIM_MODELS_SPEC_HPP
