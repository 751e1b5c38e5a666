#ifndef PERFBENCH_SELFTEST_HPP
#define PERFBENCH_SELFTEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/**
 * The benchmark's checks on its own generator, run on the run's own
 * plan before any measurement: the plan is deterministic per seed and
 * changes with it; cold_unique never repeats a canonicalKey within the
 * run; the hot warm-up covers every question asked; hot_json and
 * hot_binary carry the same questions in the same order; every
 * request's wire bytes decode back to the question meant. @p plan must
 * be buildRunPlan(@p spec, @p seed, @p openCount, @p closedPool).
 * Returns one line per failure (empty = all pass).
 */
std::vector<std::string> runSelfTests(const WorkloadSpec& spec,
                                      std::uint64_t seed,
                                      std::size_t openCount,
                                      std::size_t closedPool,
                                      const RunPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_HPP
