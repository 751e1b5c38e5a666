#ifndef FTSIM_SERVE_PLAN_SERVICE_HPP
#define FTSIM_SERVE_PLAN_SERVICE_HPP

/**
 * @file
 * The multi-tenant, in-process plan-serving service.
 *
 * `PlanService` brokers concurrent `PlanRequest`s across a fleet of
 * `Planner`s behind an admission queue and worker pool. Three layers of
 * deduplication make a duplicate-heavy multi-tenant load cheap:
 *
 *  1. **Request coalescing.** Identical requests (same canonicalKey —
 *     everything but the client id and tenant) share one execution with
 *     shared-future once-semantics: the first submit runs, every
 *     racer and every later duplicate waits on (or instantly reads)
 *     the same future. This is the planner step cache's trick lifted
 *     one level, from step profiles to whole answers.
 *  2. **Planner sharing.** Requests whose (scenario, rates) agree —
 *     whatever question they ask — are routed to one `Planner` keyed
 *     by `Scenario::canonicalKey()`, so tenants planning the same run
 *     share its memoized step cache.
 *  3. **Plan-registry sharing.** All planners are constructed over one
 *     `PlanRegistry`, so a fleet of scenarios on the same model
 *     compiles each `StepPlan` shape exactly once service-wide.
 *
 * The result: a thundering herd of N tenants probing one scenario x GPU
 * grid performs exactly distinct-config-many step simulations
 * (`serve.steps_simulated`), however large N is — the
 * thundering-herd test in tests/serve/test_plan_service.cpp pins it.
 *
 * **Resource governance (ISSUE-4).** Hostile traffic must not grow the
 * service without bound, so both memoization layers are now
 * capacity-limited and admission is quota-gated:
 *
 *  - The *answer cache* (completed executions) and the *planner pool*
 *    are `LruCache`s (`common/lru_cache.hpp`) bounded by
 *    `ServiceConfig::maxAnswers` / `maxPlanners`. In-flight executions
 *    live in a separate transient map that eviction never touches, so
 *    a coalesced waiter can never lose its future mid-wait and a
 *    thundering herd still simulates distinct-config-many steps as
 *    long as the distinct answers fit the capacity. A capacity-1
 *    service stays *correct* — evicted answers are recomputed
 *    (deterministically identical), just slower.
 *  - Requests carrying a `tenant` pass per-tenant admission control: a
 *    max-inflight gate (`tenantMaxInflight`) and a token bucket
 *    (`tenantRps` / `tenantBurst`). Overflow is rejected with a
 *    ready future answering `ErrorCode::RateLimited` — on the wire,
 *    `{"ok":false,"error":"RateLimited",...}`. Untenanted requests are
 *    quota-exempt. Admission happens *before* coalescing: a duplicate
 *    of a cached answer still spends a token, so the quota meters
 *    request pressure, not compute. The admission table itself is
 *    bounded too (`maxTenants`): a fresh name evicts the oldest idle
 *    tenant's state, and when every tracked tenant is busy, new
 *    names are rejected rather than tracked.
 *
 * Coalescing and the response id: the shared response cannot carry
 * every duplicate's client id, so `submit()` futures resolve with an
 * *empty* id and callers stamp their own onto their copy (`ask()` does
 * this for you).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/lru_cache.hpp"
#include "common/stats_registry.hpp"
#include "common/parallel.hpp"
#include "core/planner.hpp"
#include "gpusim/plan_registry.hpp"
#include "serve/protocol.hpp"

namespace ftsim {

/** Construction knobs for a PlanService. */
struct ServiceConfig {
    /** Worker threads draining the admission queue; 0 = hardware. */
    unsigned workers = 0;
    /** Base price list; request `rates` extend a copy per planner. */
    CloudCatalog catalog = CloudCatalog::cudoCompute();
    /**
     * Registry every service counter is published into under `serve.*`
     * (and `planner.*` for the shared step-cache cells); the `stats`
     * live query scrapes it. Null = the service creates a private one.
     * The network front end passes its own so one registry covers both
     * layers of a shard (see net/server.hpp).
     */
    std::shared_ptr<StatsRegistry> statsRegistry;

    // ----- Resource governance (0 = unbounded/disabled; only
    // maxTenants defaults to a real bound) --------------------------

    /** Completed answers retained for coalescing; LRU-evicted past
     *  this. In-flight executions are pinned outside this budget. */
    std::size_t maxAnswers = 0;
    /** Planners retained in the pool; LRU-evicted past this. A planner
     *  still referenced by an in-flight request stays alive (shared
     *  ownership) — eviction only forgets the pooled entry. */
    std::size_t maxPlanners = 0;
    /** Per-tenant cap on requests admitted but not yet answered. */
    std::uint64_t tenantMaxInflight = 0;
    /** Per-tenant steady-state admission rate, requests/second. */
    double tenantRps = 0.0;
    /** Token-bucket depth (burst allowance); 0 = max(1, tenantRps).
     *  Only meaningful when tenantRps > 0. */
    double tenantBurst = 0.0;
    /**
     * Tenant names tracked at once (0 = unbounded). The tenant field
     * is unauthenticated wire input, so without a cap a client
     * rotating fresh names per request would grow the admission table
     * without limit. At the cap, admitting a *new* name evicts the
     * least-recently-seen idle (zero-inflight) tenant — its counters
     * and token debt are forgotten, the price of bounded memory — and
     * if every tracked tenant has requests in flight, the new name is
     * rejected RateLimited until a slot frees. Only consulted when
     * quotas are enabled (no quotas, no tracking).
     */
    std::size_t maxTenants = 4096;
    /**
     * Virtual clock in milliseconds for admission control (token-bucket
     * refill, tenant-table recency, submit-to-answer latency). Null =
     * the real steady clock. Tests inject a controllable clock here to
     * drive the refill path deterministically; production leaves it
     * unset.
     */
    std::function<double()> clock;
};

/**
 * Per-submission options around a PlanRequest — identity *about the
 * caller*, never part of the question (like id and tenant, neither
 * field affects coalescing).
 */
struct SubmitOptions {
    /**
     * Stats bucket this submission is counted under (a connection
     * label, a shard name); empty = untracked. Published as the
     * `serve.source.<label>.*` registry rows.
     */
    std::string source;
    /**
     * Invoked once when the returned future becomes ready — *after*
     * the response is observable through it — but only if it was not
     * ready when submit() returned. Answers ready at submit time
     * (answer-cache hits, live kinds, quota rejections) never notify:
     * the caller checks the future it was handed. Otherwise the
     * callback runs on the worker that resolved the execution (shared
     * by every coalesced submission, each of which registered its own
     * callback). Must be cheap and must not call back into the service
     * (it runs under no lock, but on the worker's critical path). The
     * poll-loop front end uses this to kick its wake pipe; it pumps
     * the ready futures of a round's requests in that same round.
     */
    std::function<void()> notify;
};

/** Per-source submission counters (the `serve.source.<label>.*` rows). */
struct SourceStats {
    /** Requests submitted under this source label. */
    std::uint64_t requests = 0;
    /** Of those, answered by an existing execution. */
    std::uint64_t coalesced = 0;
    /** Of those, rejected by admission control. */
    std::uint64_t rateLimited = 0;
};

/** Concurrent plan-serving facade (see file comment). */
class PlanService {
  public:
    explicit PlanService(ServiceConfig config = {});

    /** Drains the admission queue, then joins the workers. */
    ~PlanService();

    PlanService(const PlanService&) = delete;
    PlanService& operator=(const PlanService&) = delete;

    /**
     * Admits @p request and returns the future of its answer. Safe to
     * call from any thread. Identical in-flight or completed requests
     * coalesce onto one future; its response carries an empty id —
     * stamp your own onto your copy (or use ask()). A request rejected
     * by admission control returns an already-ready future answering
     * `RateLimited`.
     */
    std::shared_future<PlanResponse> submit(const PlanRequest& request);

    /**
     * submit() with caller identity: @p options.source buckets the
     * submission under `serve.source.<label>.*`, and @p options.notify is
     * invoked once a future that was not ready on return becomes ready
     * (see SubmitOptions). The network front end submits through this
     * overload so its poll loop can sleep until an answer (not a
     * socket) wakes it.
     */
    std::shared_future<PlanResponse> submit(const PlanRequest& request,
                                            const SubmitOptions& options);

    /** submit() + wait, with the response id restored to @p request's. */
    PlanResponse ask(const PlanRequest& request);

    /** The fleet-wide compiled-plan registry. */
    const std::shared_ptr<PlanRegistry>& planRegistry() const
    {
        return registry_;
    }

    /** The stats registry this service publishes into (never null;
     *  ServiceConfig::statsRegistry or a private one). */
    const std::shared_ptr<StatsRegistry>& statsRegistry() const
    {
        return stats_;
    }

    /** The base catalog (request rates extend copies, not this). */
    const CloudCatalog& catalog() const { return config_.catalog; }

    /** Worker threads serving the admission queue. */
    unsigned workers() const { return pool_.threadCount(); }

  private:
    /** Per-tenant admission state (token bucket + inflight gate). */
    struct TenantState {
        double tokens = 0.0;
        double lastRefillMs = 0.0;
        /** Last admission attempt — the maxTenants eviction order. */
        double lastSeenMs = 0.0;
        bool seen = false;
        std::uint64_t inflight = 0;
        std::uint64_t admitted = 0;
        std::uint64_t rejectedInflight = 0;
        std::uint64_t rejectedRate = 0;
    };

    /** One execution in flight: the shared answer plus the tenants
     *  whose inflight slots it releases on completion and the
     *  completion callbacks of every coalesced submission. */
    struct InflightEntry {
        std::shared_future<PlanResponse> future;
        std::vector<std::string> waitingTenants;
        std::vector<std::function<void()>> notifies;
    };

    /** True when any tenant quota is configured. */
    bool quotasEnabled() const
    {
        return config_.tenantMaxInflight > 0 || config_.tenantRps > 0.0;
    }

    /** Admission decision for @p tenant; on success the tenant's
     *  inflight slot is held until releaseTenant(). */
    Result<bool> admitTenant(const std::string& tenant);

    /** Returns @p tenant's inflight slot (no-op for empty names). */
    void releaseTenant(const std::string& tenant);

    /** The admission/latency clock: ServiceConfig::clock or the real
     *  steady clock. */
    double clockMs() const;

    /** Bumps @p source's SourceStats row (no-op for empty labels). */
    void noteSource(const std::string& source, bool coalesced,
                    bool rate_limited);

    /** The synchronous answer to a live (snapshot / fleet /
     *  load_snapshot) query — current state, so never cached,
     *  coalesced, or billed. */
    PlanResponse liveAnswer(const PlanRequest& request) const;

    /** Moves a finished execution from the in-flight map into the
     *  bounded answer cache, releases its tenants' slots, resolves
     *  @p promise with @p response (inside the cache lock, last among
     *  the state changes — see the .cpp comment), then fires the
     *  entry's completion callbacks.
     *  @param cacheable false when the answer came from the exception
     *         guard rather than answer(): a transient failure
     *         (bad_alloc under pressure) must not be promoted into
     *         the answer cache as the key's permanent answer —
     *         duplicates after the failure recompute instead.
     *         Deterministic domain errors (ok=false responses from
     *         answer()) stay cacheable. */
    void finishExecution(const std::string& key, bool cacheable,
                         std::promise<PlanResponse>& promise,
                         PlanResponse&& response);

    /** The shared planner for @p request's (scenario, rates). */
    std::shared_ptr<Planner> plannerFor(const PlanRequest& request);

    /** Runs one request to completion; never throws (errors become
     *  ok=false responses). The returned id is empty on every path —
     *  the answer is shared across coalesced submitters. */
    PlanResponse execute(const PlanRequest& request);

    /** execute()'s body; may leave a request id on error responses
     *  (execute strips it). */
    PlanResponse answer(const PlanRequest& request);

    /** Resolves a wire GPU name against the known specs. */
    Result<GpuSpec> resolveGpu(const std::string& name) const;

    void recordLatencyMs(double ms);

    /** Snapshot-time provider: contributes the derived and dynamic
     *  rows (LRU sizes, aggregate steps, per-tenant/per-source tables)
     *  that have no fixed cell to publish into. Runs under the
     *  registry mutex and takes the component mutexes below — the
     *  registry -> service lock order nothing may invert. */
    void publishDynamicStats(StatsRegistry::Sink& sink) const;

    ServiceConfig config_;
    /** Effective token-bucket depth (tenantBurst with its default). */
    double tenant_burst_ = 0.0;
    std::shared_ptr<PlanRegistry> registry_;
    /** Cached catalog().fingerprint(), folded into planner keys. */
    std::string catalog_fingerprint_;

    mutable std::mutex inflight_mutex_;
    /** canonicalKey -> the one execution every duplicate shares, for
     *  executions still running. Transient and unbounded on purpose:
     *  its size is capped by in-flight work, and keeping it out of the
     *  LRU means eviction can never orphan a coalesced waiter. */
    std::map<std::string, std::shared_ptr<InflightEntry>> inflight_;
    /** canonicalKey -> completed answer, LRU-bounded (maxAnswers).
     *  A planner answer is deterministic for a fixed scenario, so
     *  recomputing an evicted entry returns the identical response. */
    LruCache<std::string, std::shared_future<PlanResponse>> answers_;

    mutable std::mutex planners_mutex_;
    /** plannerKey -> shared planner, LRU-bounded (maxPlanners). */
    LruCache<std::string, std::shared_ptr<Planner>> planners_;
    /** stepsSimulated of evicted planners, frozen at eviction. */
    std::atomic<std::uint64_t> retired_planner_steps_{0};

    mutable std::mutex tenants_mutex_;
    std::map<std::string, TenantState> tenants_;

    mutable std::mutex sources_mutex_;
    /** SubmitOptions::source -> counters, LRU-bounded (kMaxSources). */
    LruCache<std::string, SourceStats> sources_;

    /** The registry every counter below lives in (declared before the
     *  cell references it hands out; never reseated). */
    std::shared_ptr<StatsRegistry> stats_;
    /** publishDynamicStats registration, removed in the destructor. */
    std::size_t stats_provider_ = 0;

    // Registry cells under `serve.*`; bumped at the same program points
    // as the pre-registry atomics they replace, so every pinned
    // counter value is unchanged. Publishing is lock-free relaxed.
    StatsCounter& requests_;
    StatsCounter& coalesced_;
    StatsCounter& executed_;
    StatsCounter& rate_limited_;
    StatsCounter& planners_created_;
    StatsCounter& planner_reuses_;
    /** Shared `planner.*` step-cache cells, registered once here so
     *  plannerFor can bind new planners while holding its pool lock
     *  (the registry mutex never nests inside a component mutex). */
    StatsCounter& planner_hits_;
    StatsCounter& planner_misses_;

    /** Submit-to-answer latency; internally atomic (lock-free adds and
     *  torn-free quantiles — see common/histogram.hpp). */
    Histogram& latency_;

    /** Last member: destroyed (drained + joined) first, while the
     *  maps and registry its tasks touch are still alive. */
    WorkerPool pool_;
};

}  // namespace ftsim

#endif  // FTSIM_SERVE_PLAN_SERVICE_HPP
