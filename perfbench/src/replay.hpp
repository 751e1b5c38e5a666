#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

/**
 * @file
 * The traced replay: the workload's requests pushed through the
 * program's layers in this process, one call at a time, with a span
 * around each call into a layer's public functions.
 *
 * Per request: `request` (root) with children `frame` (net:
 * WireFramer feed + next), `decode` (serve: parsePlanRequest /
 * decodeWirePayload), `route` (router: canonicalKey + HashRing) with
 * child `key` (serve: canonicalKey), `submit` (serve: PlanService
 * submit until the answer is ready) and `encode` (serve:
 * writePlanResponse / encodeResponseFrame). A miss is then replayed
 * into a fresh Planner (`planner`, core) and its step simulations into
 * FineTuneSim (`simulate`, gpusim), both parented to `submit`.
 *
 * The same replay also runs with spans off; the difference is the
 * tracing overhead.
 */

#include <map>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "serve/plan_service.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayResult {
    /** Per-layer metrics by name (see NOTES.md for definitions). */
    std::map<std::string, double> metrics;
    /** Human-readable summary: self times, overhead, derivations. */
    std::string summary;
    std::size_t attempted = 0;
    std::size_t wrong = 0;
    std::string firstWrong;
};

/**
 * Replays the warm-up set and then the open-loop sequence of @p plan,
 * until the sequence ends or @p budgetS seconds pass. Spans are
 * written to @p tracePath.
 */
ReplayResult runReplay(const WorkloadSpec& spec, const RunPlan& plan,
                       const Oracle& oracle,
                       const ftsim::ServiceConfig& config,
                       const std::vector<std::string>& shardNames,
                       double budgetS, const std::string& tracePath);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_HPP
