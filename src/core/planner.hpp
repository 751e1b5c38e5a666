#ifndef FTSIM_CORE_PLANNER_HPP
#define FTSIM_CORE_PLANNER_HPP

/**
 * @file
 * The unified planning facade over the paper's §IV/§V workflow.
 *
 * A `Planner` is constructed once from a `Scenario` (what run?) and a
 * `CloudCatalog` (what prices?) and then answers every planning query —
 * max batch size, throughput, Eq. 1/2 fits, per-GPU cost, the Table IV
 * comparison, the full characterization report — through one object:
 *
 *     Planner planner(Scenario::gsMath());
 *     int bsz   = planner.maxBatch(GpuSpec::a40()).valueOr(0);
 *     auto plan = planner.cheapestPlan(GpuSpec::paperGpus());
 *
 * Every query returns `Result<T>`: domain failures (unknown GPU, model
 * does not fit) are values to branch on, not process exits.
 *
 * Queries memoize. Step simulation — the expensive primitive every
 * higher-level answer reduces to — is cached per (GPU, run config), so
 * a cost table followed by a report followed by a sweep never simulates
 * the same configuration twice (`stats()` exposes the hit/miss counters
 * and the underlying simulators' step counts for verification). The
 * multi-GPU fan-outs (`costTable`, `cheapestPlan`, `batchSizeSweep`)
 * optionally run on a thread pool (`setParallelism`). The per-GPU
 * batch sweep (`throughputObservations`) instead runs its cache misses
 * as one vectorized `FineTuneSim::profileSweep` pass — a single
 * `StepPlan::evaluateSweep` walk per plan shape beats any per-batch
 * fan-out, and `costTable`'s per-GPU profile (max batch only) reads
 * the same promised-future step cache, so a sweep that already ran
 * makes the cost table's profile a cache hit.
 *
 * The cache is thread-safe and sharded per GPU, and within a shard the
 * entries have shared-future once-semantics: the shard mutex only
 * guards the map itself, while the simulation runs *outside* the lock.
 * Concurrent queries against the same GPU therefore compute distinct
 * configurations in parallel; threads asking for the same in-flight
 * configuration wait on its future instead of re-simulating, so
 * `stepsSimulated == stepCacheMisses` holds under any interleaving.
 */

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/stats_registry.hpp"
#include "core/cost_model.hpp"
#include "core/pipeline_types.hpp"
#include "core/scenario.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/memory_model.hpp"
#include "gpusim/plan_registry.hpp"

namespace ftsim {

/** Cache instrumentation counters (see Planner::stats). */
struct PlannerStats {
    /** Step-profile queries answered from the cache. */
    std::uint64_t stepCacheHits = 0;
    /** Step-profile queries that had to simulate. */
    std::uint64_t stepCacheMisses = 0;
    /** Steps actually simulated, summed over the per-GPU simulators.
     *  Equals stepCacheMisses when no query bypassed the cache. */
    std::uint64_t stepsSimulated = 0;
};

/** Scenario-driven planning facade (see file comment). */
class Planner {
  public:
    /**
     * Plans @p scenario against @p catalog prices.
     * @param registry optional fleet-wide compiled-plan cache shared
     *        with other planners (see gpusim/plan_registry.hpp); the
     *        serving layer passes one registry to every planner so a
     *        fleet of scenarios on one model compiles each step-plan
     *        shape exactly once. Null keeps plans planner-local.
     */
    explicit Planner(Scenario scenario,
                     CloudCatalog catalog = CloudCatalog::cudoCompute(),
                     std::shared_ptr<PlanRegistry> registry = nullptr);

    ~Planner();
    Planner(const Planner&) = delete;
    Planner& operator=(const Planner&) = delete;

    /** The scenario being planned. */
    const Scenario& scenario() const { return scenario_; }

    /** The price list in use. */
    const CloudCatalog& catalog() const { return catalog_; }

    /**
     * Worker threads for the multi-GPU fan-outs (costTable,
     * cheapestPlan, batchSizeSweep). 0 or 1 = serial. Returns *this.
     */
    Planner& setParallelism(unsigned threads);

    /**
     * Additionally publishes step-cache traffic into @p hits and
     * @p misses, cells the caller already registered in @p registry,
     * at the exact increment sites stats() counts — the fleet-wide
     * cells the live `stats` scrape reads. The planner keeps
     * @p registry alive. Takes no registry lock, so it is safe under
     * component locks (PlanService binds planners it constructs inside
     * its planner-pool mutex; the registry mutex must never nest
     * inside a component mutex). Setup-time only: bind before the
     * first query; not bound = zero overhead, which is how the perf
     * benches construct planners. Returns *this.
     */
    Planner& bindStats(std::shared_ptr<StatsRegistry> registry,
                       StatsCounter& hits, StatsCounter& misses);

    // ----- Per-GPU queries (memoized) -----

    /** Full memory accounting on @p gpu (always succeeds). */
    Result<MemoryBreakdown> memory(const GpuSpec& gpu) const;

    /**
     * Maximum batch size on @p gpu; `DoesNotFit` when the model does
     * not fit even at batch 1.
     */
    Result<int> maxBatch(const GpuSpec& gpu) const;

    /** Step profile at the maximum batch size. */
    Result<StepProfile> profile(const GpuSpec& gpu) const;

    /**
     * Step profile at an explicit batch size (padding-amplified seq
     * length per the scenario's sigma). `InvalidArgument` on batch 0.
     * Does not require the batch to fit (ablations probe beyond).
     */
    Result<StepProfile> profileAt(const GpuSpec& gpu,
                                  std::size_t batch) const;

    /** Queries/second at the maximum batch size. */
    Result<double> throughput(const GpuSpec& gpu) const;

    /**
     * The merged dense + sparse throughput sweep on @p gpu, batch 1 up
     * to each mode's own max (the Eq. 2 fitting set). `DoesNotFit`
     * when neither mode fits at batch 1.
     */
    Result<std::vector<ThroughputObservation>> throughputObservations(
        const GpuSpec& gpu) const;

    /** Eq. 2 fitted to this scenario's sweep on @p gpu. */
    Result<ThroughputFit> fitThroughput(const GpuSpec& gpu) const;

    /** End-to-end cost on @p gpu; `UnknownGpu` when unpriced. */
    Result<CostEstimate> cost(const GpuSpec& gpu) const;

    /** The full markdown characterization report for @p gpu. */
    Result<std::string> report(const GpuSpec& gpu) const;

    // ----- Multi-GPU queries -----

    /**
     * The Table IV comparison: one row per GPU that is both priced and
     * large enough. `EmptySweep` on an empty GPU list, `NoViablePlan`
     * when no GPU qualifies.
     */
    Result<std::vector<CostRow>> costTable(
        const std::vector<GpuSpec>& gpus) const;

    /** The cheapest end-to-end row of costTable(). */
    Result<CostRow> cheapestPlan(const std::vector<GpuSpec>& gpus) const;

    /**
     * Ground-truth (GPU, seq, sparsity, max batch) observations over
     * the sweep grid — the Eq. 1 fitting set. Sweeps both sparse and
     * dense regardless of the scenario mode, as the paper does.
     */
    Result<std::vector<BatchSizeObservation>> batchSizeSweep(
        const std::vector<GpuSpec>& gpus,
        const std::vector<std::size_t>& seq_lens) const;

    /** Eq. 1 fitted to batchSizeSweep(). */
    Result<BatchSizeFit> fitBatchSize(
        const std::vector<GpuSpec>& gpus,
        const std::vector<std::size_t>& seq_lens) const;

    // ----- Introspection -----

    /**
     * Snapshot of the cache counters since construction.
     *
     * Memory-order contract: each counter is a monotonic atomic, so a
     * snapshot taken *while queries are in flight* reads each counter
     * exactly as of some moment during the call, but the counters are
     * not mutually atomic — a miss is counted before its simulation
     * runs, so a concurrent snapshot may briefly observe
     * `stepsSimulated < stepCacheMisses`. Any happens-before edge that
     * orders the queries before the snapshot (joining the querying
     * threads, `.get()` on their futures, or a mutex handoff) makes
     * the next snapshot exact, and at any quiescent point the invariant
     * `stepsSimulated == stepCacheMisses` holds (no query bypasses the
     * cache).
     */
    PlannerStats stats() const;

    /** The fleet-wide plan registry this planner was built with (may
     *  be null). */
    const std::shared_ptr<PlanRegistry>& planRegistry() const
    {
        return registry_;
    }

  private:
    struct GpuState;

    /** The per-GPU shard for @p gpu (created on first use). */
    GpuState& stateFor(const GpuSpec& gpu) const;

    /**
     * Cached step profile for @p config on @p state's GPU. Simulates
     * outside the shard lock with per-entry once-semantics: exactly one
     * thread simulates a given configuration, concurrent requesters for
     * the same key block on its shared future, and requesters for
     * *different* keys on the same GPU proceed in parallel.
     */
    StepProfile profiledStep(GpuState& state,
                             const RunConfig& config) const;

    /** Scenario field validation shared by every query. */
    Result<Scenario> checked() const { return scenario_.validated(); }

    Scenario scenario_;
    CloudCatalog catalog_;
    /** One estimator for the planner's lifetime (catalog_ must precede
     *  it: CostEstimator snapshots the catalog at construction). */
    CostEstimator estimator_;
    std::shared_ptr<PlanRegistry> registry_;
    unsigned parallelism_ = 1;

    mutable std::mutex registry_mutex_;
    mutable std::map<std::string, std::unique_ptr<GpuState>> states_;
    mutable std::atomic<std::uint64_t> step_hits_{0};
    mutable std::atomic<std::uint64_t> step_misses_{0};
    // Optional shared registry cells, bumped alongside the atomics
    // above (bindStats); the shared_ptr pins their storage.
    std::shared_ptr<StatsRegistry> stats_registry_;
    StatsCounter* shared_hits_ = nullptr;
    StatsCounter* shared_misses_ = nullptr;
};

}  // namespace ftsim

#endif  // FTSIM_CORE_PLANNER_HPP
