#ifndef FTSIM_GPUSIM_WORKLOAD_HPP
#define FTSIM_GPUSIM_WORKLOAD_HPP

/**
 * @file
 * Lowers a full-size ModelSpec + run configuration into the kernel
 * sequence of one fine-tuning step.
 *
 * The emitted kernels follow the paper's own naming (Figs. 6, 9, 10):
 * matmul(w1/w2/w3/router), w*_dequant, softmax, topk, gelu, sigmoid,
 * elementwise_mult, plus the attention / mamba / norm / optimizer
 * kernels that the stage- and layer-level breakdowns (Figs. 4-5)
 * aggregate over. Identical per-layer (and per-expert) launches are
 * collapsed via KernelDesc::count, so a 32-layer, 8-expert step stays a
 * compact descriptor list while launch-overhead accounting remains
 * correct.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/interner.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/plan_registry.hpp"
#include "gpusim/step_plan.hpp"
#include "models/spec.hpp"

namespace ftsim {

/** One fine-tuning step configuration. */
struct RunConfig {
    std::size_t batchSize = 1;
    std::size_t seqLen = 128;   ///< The paper's profiling length (§III).
    bool sparse = true;         ///< top-2 experts vs. all 8.
    /**
     * Re-run the forward pass inside backward (gradient checkpointing).
     * Defaults to the paper's setup: on for QLoRA Mixtral, off for
     * BlackMamba. Set explicitly for ablations.
     */
    int gradientCheckpointing = -1;  ///< -1 = strategy default.
};

/**
 * Builds kernel workloads from a model spec.
 *
 * Two emission paths produce identical numbers:
 *
 *  - `stepPlan` — the compiled path: one `StepPlan` per config shape
 *    (sparse x checkpointing), cached for the builder's lifetime, with
 *    interned kernel names and per-kernel formulas evaluated per
 *    (batch, seq). This is what the simulator runs.
 *  - `oracle::buildStep` / `oracle::buildForward` (src/oracle/) — the
 *    retained *reference* path, materializing a fresh
 *    `std::vector<KernelDesc>` per call. It is the golden oracle for
 *    tests and the pre-optimization baseline the perf bench compares
 *    against; it lives outside the product library.
 *
 * Any change to one path must be mirrored in the other; the golden
 * tests in tests/gpusim/test_step_plan.cpp enforce bit-equality.
 */
class WorkloadBuilder {
  public:
    /**
     * @param registry optional fleet-wide plan cache: when set, kernel
     *        names intern into the registry's interner and `stepPlan`
     *        looks shapes up there before compiling, so builders for
     *        the same model (different GPUs, different planners) share
     *        one compiled plan per shape.
     */
    explicit WorkloadBuilder(const ModelSpec& spec,
                             std::shared_ptr<PlanRegistry> registry =
                                 nullptr);

    // Plan slots hold std::once_flag: no copies.
    WorkloadBuilder(const WorkloadBuilder&) = delete;
    WorkloadBuilder& operator=(const WorkloadBuilder&) = delete;

    /**
     * The compiled plan for @p config's shape. Compiled on first use
     * and cached; batch size and sequence length do not participate in
     * the cache key (they are `StepPlan::evaluate` inputs). Thread-safe.
     */
    const StepPlan& stepPlan(const RunConfig& config) const;

    /** The interner backing the plans' kernel-name ids (the attached
     *  registry's interner when one is set, else builder-local). */
    const StringInterner& kernelNames() const { return interner(); }

    /** Plans *this builder* compiled (at most 4; tests pin the reuse).
     *  Shapes answered by the attached registry do not count. */
    std::uint32_t plansCompiled() const { return plans_compiled_.load(); }

    /** The attached fleet-wide plan registry (may be null). */
    const std::shared_ptr<PlanRegistry>& planRegistry() const
    {
        return registry_;
    }

    /** The spec being lowered. */
    const ModelSpec& spec() const { return spec_; }

    /** Whether checkpointing applies under @p config. */
    bool checkpointing(const RunConfig& config) const;

    /** ALU ops charged per element de-quantized (NF4-style unpack:
     *  nibble shifts, LUT gather, per-block scale multiply). */
    static constexpr double kDequantOpsPerElement = 20.0;

  private:
    /** Compiles the plan for one shape; mirrors the reference path. */
    StepPlan compilePlan(bool sparse, bool checkpointing) const;

    /** Mirrors the reference addLayerForward (names get
     *  " (recompute)" suffixed). */
    void compileLayerForward(StepPlan& plan, Stage stage,
                             bool recompute) const;

    /** Mirrors addLayerBackward. */
    void compileLayerBackward(StepPlan& plan) const;

    /** Mirrors addHead. */
    void compileHead(StepPlan& plan, Stage stage) const;

    /** Mirrors addOptimizer. */
    void compileOptimizer(StepPlan& plan) const;

    /** The interner in use: the registry's when attached, else ours. */
    StringInterner& interner() const
    {
        return registry_ ? registry_->names() : names_;
    }

    ModelSpec spec_;
    std::shared_ptr<PlanRegistry> registry_;

    /** One lazily-resolved plan per (sparse, checkpointing) shape; the
     *  pointee is owned here or shared out of the registry. */
    struct PlanSlot {
        std::once_flag once;
        std::shared_ptr<const StepPlan> plan;
    };
    mutable std::array<PlanSlot, 4> plans_;
    mutable StringInterner names_;
    mutable std::atomic<std::uint32_t> plans_compiled_{0};
};

}  // namespace ftsim

#endif  // FTSIM_GPUSIM_WORKLOAD_HPP
