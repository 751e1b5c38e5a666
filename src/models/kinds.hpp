#ifndef FTSIM_MODELS_KINDS_HPP
#define FTSIM_MODELS_KINDS_HPP

/**
 * @file
 * The two architecture choices shared by the full-size specs
 * (spec.hpp) and the miniature trainable models (config.hpp). Kept
 * apart so the simulator's model specs do not pull in the tensor
 * library.
 */

#include <cstdint>

namespace ftsim {

/** Sequence-mixing backbone of a decoder block. */
enum class BackboneKind : std::uint8_t {
    Attention,  ///< Causal self-attention (Mixtral-style).
    Mamba,      ///< Selective state-space layer (BlackMamba-style).
};

/** Expert feed-forward architecture (Fig. 7 of the paper). */
enum class ExpertKind : std::uint8_t {
    SwiGLU,  ///< w2(silu(w1 x) * w3 x) — Mixtral experts.
    Gelu,    ///< w2(gelu(w1 x)) — BlackMamba experts.
};

}  // namespace ftsim

#endif  // FTSIM_MODELS_KINDS_HPP
