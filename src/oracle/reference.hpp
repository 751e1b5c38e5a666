#ifndef FTSIM_ORACLE_REFERENCE_HPP
#define FTSIM_ORACLE_REFERENCE_HPP

/**
 * @file
 * The reference emission path: the simulator as it was before step
 * plans were compiled, kept as the bit-identity oracle.
 *
 * `buildStep` / `buildForward` materialize a fresh
 * `std::vector<KernelDesc>` per call, one descriptor per kernel, and
 * `profileStep` / `stepSeconds` time that list kernel by kernel with
 * map-keyed aggregation. The compiled path (`WorkloadBuilder::stepPlan`,
 * `FineTuneSim::profileStep`) must reproduce every number here to the
 * last bit: tests/gpusim/test_step_plan.cpp and
 * test_step_plan_sweep.cpp pin the equality, and bench_perf_planner
 * times the compiled path against this one.
 *
 * The oracle reads the builder and the simulator only through their
 * public accessors, and it is built into its own library
 * (`ftsim_oracle`) that tests and benches link and the daemons do not.
 * Its calls do not count toward `FineTuneSim::stepsSimulated()`.
 */

#include <vector>

#include "gpusim/finetune_sim.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/workload.hpp"

namespace ftsim::oracle {

/** Kernels of the forward pass only. */
std::vector<KernelDesc> buildForward(const WorkloadBuilder& builder,
                                     const RunConfig& config);

/** Kernels of a full step: forward (+ recompute) + backward +
 *  optimizer, in the order `StepPlan` mirrors. */
std::vector<KernelDesc> buildStep(const WorkloadBuilder& builder,
                                  const RunConfig& config);

/** Full step profile from a per-call `buildStep` rebuild; bit-identical
 *  to `FineTuneSim::profileStep`. */
StepProfile profileStep(const FineTuneSim& sim, const RunConfig& config);

/** Step latency from a per-call rebuild; bit-identical to
 *  `FineTuneSim::stepSeconds`. */
double stepSeconds(const FineTuneSim& sim, const RunConfig& config);

}  // namespace ftsim::oracle

#endif  // FTSIM_ORACLE_REFERENCE_HPP
