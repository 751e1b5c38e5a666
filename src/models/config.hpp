#ifndef FTSIM_MODELS_CONFIG_HPP
#define FTSIM_MODELS_CONFIG_HPP

/**
 * @file
 * Configuration for the miniature trainable MoE models.
 *
 * These are the architectures that actually train on the CPU substrate
 * to reproduce the paper's accuracy (Fig. 3) and load-imbalance (Fig. 11)
 * results. They keep the *structure* of Mixtral / BlackMamba — decoder
 * blocks of (norm, mixer, norm, top-k MoE) with SwiGLU or GELU experts —
 * at a width/depth that trains in seconds.
 */

#include <cstddef>
#include <cstdint>

#include "models/kinds.hpp"
#include "tensor/tensor.hpp"

namespace ftsim {

/** Hyper-parameters of a miniature MoE language model. */
struct MiniModelConfig {
    std::size_t vocab = 64;      ///< Token vocabulary size.
    std::size_t dModel = 48;     ///< Residual stream width.
    std::size_t nLayers = 2;     ///< Decoder block count.
    std::size_t nHeads = 4;      ///< Attention heads (attention backbone).
    std::size_t dFf = 96;        ///< Expert hidden width.
    std::size_t nExperts = 8;    ///< Experts per MoE layer (paper: 8).
    std::size_t topK = 2;        ///< Active experts/token (8 == dense).
    BackboneKind backbone = BackboneKind::Attention;
    ExpertKind expertKind = ExpertKind::SwiGLU;

    /** QLoRA mode: 4-bit frozen base + trainable adapters in MoE. */
    bool useLora = false;
    std::size_t loraRank = 4;    ///< Adapter rank (paper uses 16 at scale).
    Scalar loraAlpha = 8.0;      ///< Adapter scale numerator.

    std::size_t dInner = 96;     ///< Mamba inner width (mamba backbone).
    std::size_t convK = 4;       ///< Mamba depthwise conv taps.

    /** Switch-style load-balancing auxiliary loss weight (0 = off). */
    Scalar auxLossWeight = 0.0;

    std::uint64_t seed = 1234;   ///< Weight-init seed.

    /** Miniature Mixtral: attention backbone, SwiGLU experts, QLoRA. */
    static MiniModelConfig miniMixtral();

    /** Miniature BlackMamba: mamba backbone, GELU experts, full FT. */
    static MiniModelConfig miniBlackMamba();
};

}  // namespace ftsim

#endif  // FTSIM_MODELS_CONFIG_HPP
