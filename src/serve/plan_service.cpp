#include "serve/plan_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/registry_snapshot.hpp"

namespace ftsim {

namespace {

/** Upper edge of the `serve.latency_ms` histogram (10s of headroom). */
constexpr double kLatencyMaxMs = 10000.0;

/**
 * Submission sources (connections) whose per-source counters are
 * retained; least-recently-active sources are forgotten past this.
 * Source labels come from SubmitOptions::source — the network front
 * end stamps one per connection — so like tenant names they are
 * unauthenticated churn and must not grow the service.
 */
constexpr std::size_t kMaxSources = 4096;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

PlanService::PlanService(ServiceConfig config)
    : config_(std::move(config)),
      tenant_burst_(config_.tenantBurst > 0.0
                        ? config_.tenantBurst
                        : std::max(1.0, config_.tenantRps)),
      registry_(std::make_shared<PlanRegistry>()),
      catalog_fingerprint_(config_.catalog.fingerprint()),
      answers_(config_.maxAnswers),
      planners_(config_.maxPlanners),
      sources_(kMaxSources),
      stats_(config_.statsRegistry
                 ? config_.statsRegistry
                 : std::make_shared<StatsRegistry>()),
      requests_(stats_->counter("serve.requests")),
      coalesced_(stats_->counter("serve.coalesced")),
      executed_(stats_->counter("serve.executed")),
      rate_limited_(stats_->counter("serve.rate_limited")),
      planners_created_(stats_->counter("serve.planners.created")),
      planner_reuses_(stats_->counter("serve.planners.reuses")),
      planner_hits_(stats_->counter("planner.step_cache_hits")),
      planner_misses_(stats_->counter("planner.step_cache_misses")),
      latency_(stats_->histogram("serve.latency_ms", 0.0, kLatencyMaxMs,
                                 4096)),
      pool_(config_.workers > 0 ? config_.workers : hardwareThreads())
{
    stats_provider_ = stats_->addProvider(
        [this](StatsRegistry::Sink& sink) { publishDynamicStats(sink); });
}

PlanService::~PlanService()
{
    // The registry may outlive this service (it is shared with the
    // network front end); unhook the snapshot provider before the
    // members it reads are torn down. The cells themselves stay valid
    // until stats_ releases its reference, after pool_ joins.
    stats_->removeProvider(stats_provider_);
}

double
PlanService::clockMs() const
{
    return config_.clock ? config_.clock() : nowMs();
}

void
PlanService::noteSource(const std::string& source, bool coalesced,
                        bool rate_limited)
{
    if (source.empty())
        return;
    std::lock_guard<std::mutex> lock(sources_mutex_);
    SourceStats* row = sources_.get(source);
    if (row == nullptr) {
        sources_.put(source, SourceStats{});
        row = sources_.get(source);
    }
    ++row->requests;
    row->coalesced += coalesced ? 1 : 0;
    row->rateLimited += rate_limited ? 1 : 0;
}

Result<bool>
PlanService::admitTenant(const std::string& tenant)
{
    const double now = clockMs();
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
        // A fresh (unauthenticated) name: bound the table before
        // tracking it, or name rotation grows the service without
        // limit — the traffic class the caches are bounded against.
        if (config_.maxTenants > 0 &&
            tenants_.size() >= config_.maxTenants) {
            // O(maxTenants) victim scan, deliberately: it only runs
            // for a NEW name with the table already full, and a few
            // thousand map nodes cost ~tens of µs — noise next to the
            // request it admits. Revisit with a recency list if caps
            // grow past ~10^5.
            auto victim = tenants_.end();
            for (auto i = tenants_.begin(); i != tenants_.end(); ++i)
                if (i->second.inflight == 0 &&
                    (victim == tenants_.end() ||
                     i->second.lastSeenMs < victim->second.lastSeenMs))
                    victim = i;
            if (victim == tenants_.end())
                return Error{
                    ErrorCode::RateLimited,
                    strCat("tenant table full (", config_.maxTenants,
                           " tenants, all with requests in flight)")};
            tenants_.erase(victim);
        }
        it = tenants_.emplace(tenant, TenantState{}).first;
    }
    TenantState& state = it->second;
    state.lastSeenMs = now;
    if (config_.tenantRps > 0.0) {
        if (!state.seen) {
            // A new tenant starts with a full bucket.
            state.tokens = tenant_burst_;
            state.seen = true;
        } else {
            state.tokens = std::min(
                tenant_burst_,
                state.tokens +
                    (now - state.lastRefillMs) / 1000.0 *
                        config_.tenantRps);
        }
        state.lastRefillMs = now;
    }
    if (config_.tenantMaxInflight > 0 &&
        state.inflight >= config_.tenantMaxInflight) {
        ++state.rejectedInflight;
        return Error{ErrorCode::RateLimited,
                     strCat("tenant \"", tenant, "\" has ",
                            state.inflight,
                            " requests in flight (limit ",
                            config_.tenantMaxInflight, ")")};
    }
    if (config_.tenantRps > 0.0) {
        if (state.tokens < 1.0) {
            ++state.rejectedRate;
            return Error{
                ErrorCode::RateLimited,
                strCat("tenant \"", tenant, "\" exceeded ",
                       config_.tenantRps, " requests/s (burst ",
                       tenant_burst_, ")")};
        }
        state.tokens -= 1.0;
    }
    ++state.admitted;
    ++state.inflight;
    return true;
}

void
PlanService::releaseTenant(const std::string& tenant)
{
    if (tenant.empty() || !quotasEnabled())
        return;
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end() && it->second.inflight > 0)
        --it->second.inflight;
}

void
PlanService::finishExecution(const std::string& key, bool cacheable,
                             std::promise<PlanResponse>& promise,
                             PlanResponse&& response)
{
    std::vector<std::function<void()>> notifies;
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto it = inflight_.find(key);
        if (it == inflight_.end())
            return;  // Unreachable: one finish per execution.
        notifies = std::move(it->second->notifies);
        // Promote to the bounded answer cache. Evicted futures die
        // here, but any waiter still blocked on one holds its own
        // shared_future copy — eviction can never orphan it.
        // Guard-path failures are not promoted at all (@p cacheable):
        // their waiters still resolve, but the next identical request
        // recomputes.
        if (cacheable)
            answers_.put(key, it->second->future);
        // Release the coalesced tenants' slots *before* resolving
        // (tenants_mutex_ nests under inflight_mutex_ here and
        // nowhere else): a serial caller that .get()s an answer and
        // immediately retries must find its slot free.
        for (const std::string& tenant : it->second->waitingTenants)
            releaseTenant(tenant);
        inflight_.erase(it);
        // Resolve *inside* the lock, last among the state changes:
        // any thread that finds the promoted entry in answers_ (the
        // same lock) gets an already-ready future, which needs no
        // notify — and a caller unblocked by get() observes every
        // cache/quota/counter effect of its request already applied,
        // the serial determinism the golden e2e pins.
        promise.set_value(std::move(response));
    }
    // Completion callbacks run unlocked, after readiness — the
    // SubmitOptions contract.
    for (const std::function<void()>& notify : notifies)
        notify();
}

std::shared_future<PlanResponse>
PlanService::submit(const PlanRequest& request)
{
    return submit(request, SubmitOptions{});
}

std::shared_future<PlanResponse>
PlanService::submit(const PlanRequest& request,
                    const SubmitOptions& options)
{
    requests_.inc();

    // Live introspection answers synchronously from current state:
    // caching a snapshot would serve stale bytes the moment another
    // plan compiles, and coalescing two fleet queries would hide the
    // work between them. Quota-exempt by construction — the parser
    // rejects a tenant on these kinds. Counted under executed so the
    // requests = executed + coalesced + rateLimited ledger holds.
    if (isLiveKind(request.query)) {
        executed_.inc();
        noteSource(options.source, false, false);
        std::promise<PlanResponse> ready;
        ready.set_value(liveAnswer(request));
        return ready.get_future().share();
    }

    // Admission control at the door, before any cache lookup: quotas
    // meter request pressure per tenant, cached or not, so the
    // rejection pattern is deterministic for a serial submitter.
    const bool governed = !request.tenant.empty() && quotasEnabled();
    if (governed) {
        Result<bool> admitted = admitTenant(request.tenant);
        if (!admitted) {
            rate_limited_.inc();
            noteSource(options.source, false, true);
            PlanResponse rejection =
                errorResponse(request, admitted.error());
            rejection.id.clear();  // Shared-future id convention.
            std::promise<PlanResponse> ready;
            ready.set_value(std::move(rejection));
            return ready.get_future().share();
        }
    }

    const std::string key = request.canonicalKey();
    const double enqueued_ms = clockMs();

    std::function<void()> task;
    std::shared_future<PlanResponse> future;
    bool ready_now = false;
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        if (std::shared_future<PlanResponse>* cached =
                answers_.get(key)) {
            // Answered before: share the completed execution.
            coalesced_.inc();
            future = *cached;
            ready_now = true;
        } else if (auto it = inflight_.find(key);
                   it != inflight_.end()) {
            // In flight: share the running execution. The tenant's
            // inflight slot is held until that execution finishes,
            // and the entry carries this submission's completion
            // callback alongside the earlier ones.
            coalesced_.inc();
            if (governed)
                it->second->waitingTenants.push_back(request.tenant);
            if (options.notify)
                it->second->notifies.push_back(options.notify);
            noteSource(options.source, true, false);
            return it->second->future;
        } else {
            auto entry = std::make_shared<InflightEntry>();
            // An explicit promise, not a packaged_task: the future
            // must resolve inside finishExecution (after the cache
            // promotion, before the completion callbacks) — a
            // packaged_task resolves only on task return, after the
            // callbacks, and a notified poll loop would find the
            // answer not ready and sleep forever.
            auto promise =
                std::make_shared<std::promise<PlanResponse>>();
            // NB: the lambda must not capture `entry` — the entry owns
            // the future whose shared state would own the lambda, a
            // reference cycle (ASan-visible leak). Cacheability
            // travels by value.
            task = [this, request, key, enqueued_ms, promise] {
                // execute() is designed not to throw, but if anything
                // below it does (bad_alloc, a fatal() on a crafted
                // programmatic scenario), the future must still
                // resolve with a response and finishExecution must
                // still run — otherwise the key stays poisoned in
                // inflight_ forever and every admitted tenant's slot
                // leaks. Guard answers are marked non-cacheable: a
                // transient failure must not become the key's
                // permanent cached answer.
                PlanResponse response;
                bool cacheable = true;
                try {
                    response = execute(request);
                } catch (const std::exception& e) {
                    cacheable = false;
                    response = errorResponse(
                        request,
                        Error{ErrorCode::InvalidArgument,
                              strCat("execution failed: ", e.what())});
                    response.id.clear();
                } catch (...) {
                    cacheable = false;
                    response = errorResponse(
                        request,
                        Error{ErrorCode::InvalidArgument,
                              "execution failed: unknown error"});
                    response.id.clear();
                }
                recordLatencyMs(clockMs() - enqueued_ms);
                executed_.inc();
                finishExecution(key, cacheable, *promise,
                                std::move(response));
            };
            entry->future = promise->get_future().share();
            if (governed)
                entry->waitingTenants.push_back(request.tenant);
            if (options.notify)
                entry->notifies.push_back(options.notify);
            future = entry->future;
            inflight_.emplace(key, std::move(entry));
        }
    }
    noteSource(options.source, ready_now, false);
    if (task) {
        pool_.submit(std::move(task));
    } else if (governed) {
        // Served straight from the answer cache: the admission slot
        // was only held across this call.
        releaseTenant(request.tenant);
    }
    return future;
}

PlanResponse
PlanService::liveAnswer(const PlanRequest& request) const
{
    const QueryKind kind = request.query;
    PlanResponse response;
    response.query = kind;
    response.ok = true;
    if (kind == QueryKind::Snapshot) {
        response.snapshot = saveRegistrySnapshot(*registry_);
        response.value =
            static_cast<double>(response.snapshot.size());
        return response;
    }
    if (kind == QueryKind::Stats) {
        // Live registry scrape: every cell read atomically, providers
        // contribute the dynamic rows (tenants, sources, LRU sizes),
        // serialized once here so the wire payload is self-contained.
        const StatsSnapshot snap = stats_->snapshot();
        response.value = static_cast<double>(snap.entries.size());
        response.statsJson = snap.toJson();
        return response;
    }
    if (kind == QueryKind::LoadSnapshot) {
        // Warm-start push (the router heals a rejoining shard with a
        // survivor's snapshot). Hostile bytes are the typed errors of
        // loadRegistrySnapshot — all-or-nothing, never a partial load.
        Result<SnapshotLoadInfo> loaded =
            loadRegistrySnapshot(*registry_, request.snapshot);
        if (!loaded)
            return errorResponse(request, loaded.error());
        response.value =
            static_cast<double>(loaded.value().plansLoaded);
        response.report = strCat("loaded=", loaded.value().plansLoaded,
                                 " skipped=",
                                 loaded.value().plansSkipped);
        return response;
    }
    // Fleet health: value carries serve.steps_simulated — the
    // thundering-herd counter the fleet bench asserts over the wire —
    // and the report line the rest of the ledger.
    const StatsSnapshot snap = stats_->snapshot();
    const std::uint64_t steps = snap.counter("serve.steps_simulated");
    response.value = static_cast<double>(steps);
    response.report =
        strCat("requests=", snap.counter("serve.requests"),
               " executed=", snap.counter("serve.executed"),
               " coalesced=", snap.counter("serve.coalesced"),
               " rate_limited=", snap.counter("serve.rate_limited"),
               " steps_simulated=", steps,
               " plans_compiled=", snap.counter("serve.plans.compiled"),
               " plans_loaded=", snap.counter("serve.plans.loaded"),
               " answers_cached=", snap.counter("serve.answers.cached"));
    return response;
}

PlanResponse
PlanService::ask(const PlanRequest& request)
{
    PlanResponse response = submit(request).get();
    response.id = request.id;
    return response;
}

std::shared_ptr<Planner>
PlanService::plannerFor(const PlanRequest& request)
{
    // Fold the base catalog's identity in alongside the request's
    // (scenario, rates): cached planners must not survive into a
    // different price list should two services ever share a map.
    std::string key = request.plannerKey();
    strAppend(key, '|', catalog_fingerprint_);
    std::lock_guard<std::mutex> lock(planners_mutex_);
    if (std::shared_ptr<Planner>* pooled = planners_.get(key)) {
        planner_reuses_.inc();
        return *pooled;
    }
    CloudCatalog catalog = config_.catalog;
    for (const CloudOffering& rate : request.rates)
        catalog.withRate(rate.gpuName, rate.dollarsPerHour);
    auto planner = std::make_shared<Planner>(request.scenario,
                                             std::move(catalog),
                                             registry_);
    // Cell-level bind: we hold planners_mutex_, so the registry mutex
    // must not be taken here (the snapshot provider acquires them in
    // the opposite order).
    planner->bindStats(stats_, planner_hits_, planner_misses_);
    planners_created_.inc();
    // Freeze an evicted planner's step count into the retired total —
    // the fleet-wide stepsSimulated must not forget work just because
    // its planner aged out. (A request still holding the shared_ptr
    // keeps the planner alive; steps it simulates after this snapshot
    // are the documented undercount.)
    for (auto& [evicted_key, evicted] : planners_.put(key, planner))
        retired_planner_steps_.fetch_add(
            evicted->stats().stepsSimulated);
    return planner;
}

Result<GpuSpec>
PlanService::resolveGpu(const std::string& name) const
{
    if (const GpuSpec* gpu = GpuSpec::byName(name))
        return *gpu;
    return Error{ErrorCode::UnknownGpu,
                 strCat("unknown GPU '", name,
                        "' (known: A40, A100-40GB, A100-80GB, H100)")};
}

PlanResponse
PlanService::execute(const PlanRequest& request)
{
    PlanResponse response = answer(request);
    // Coalesced futures are shared: the id slot belongs to whichever
    // caller copies the response out, never to the executed request —
    // on *every* path, or an error answer would leak the first
    // submitter's id to every coalesced tenant.
    response.id.clear();
    return response;
}

PlanResponse
PlanService::answer(const PlanRequest& request)
{
    PlanResponse response;
    response.query = request.query;

    // Rates arriving via parsePlanRequest are already validated; a
    // programmatically built request must not be able to fatal() the
    // service through CloudCatalog::add.
    for (const CloudOffering& rate : request.rates)
        if (rate.gpuName.empty() || rate.dollarsPerHour <= 0.0)
            return errorResponse(
                request, Error{ErrorCode::InvalidArgument,
                               "rates must name a GPU and be > 0"});

    const std::shared_ptr<Planner> planner = plannerFor(request);

    switch (request.query) {
    case QueryKind::MaxBatch: {
        Result<GpuSpec> gpu = resolveGpu(request.gpu);
        if (!gpu)
            return errorResponse(request, gpu.error());
        Result<int> mbs = planner->maxBatch(gpu.value());
        if (!mbs)
            return errorResponse(request, mbs.error());
        response.ok = true;
        response.value = static_cast<double>(mbs.value());
        break;
    }
    case QueryKind::Throughput: {
        Result<GpuSpec> gpu = resolveGpu(request.gpu);
        if (!gpu)
            return errorResponse(request, gpu.error());
        Result<double> qps = planner->throughput(gpu.value());
        if (!qps)
            return errorResponse(request, qps.error());
        response.ok = true;
        response.value = qps.value();
        break;
    }
    case QueryKind::CostTable:
    case QueryKind::CheapestPlan: {
        std::vector<GpuSpec> gpus;
        if (request.gpus.empty()) {
            gpus = GpuSpec::paperGpus();
        } else {
            for (const std::string& name : request.gpus) {
                Result<GpuSpec> gpu = resolveGpu(name);
                if (!gpu)
                    return errorResponse(request, gpu.error());
                gpus.push_back(gpu.value());
            }
        }
        if (request.query == QueryKind::CostTable) {
            Result<std::vector<CostRow>> rows =
                planner->costTable(gpus);
            if (!rows)
                return errorResponse(request, rows.error());
            response.rows = rows.value();
        } else {
            Result<CostRow> best = planner->cheapestPlan(gpus);
            if (!best)
                return errorResponse(request, best.error());
            response.rows.push_back(best.value());
        }
        response.ok = true;
        break;
    }
    case QueryKind::Report: {
        Result<GpuSpec> gpu = resolveGpu(request.gpu);
        if (!gpu)
            return errorResponse(request, gpu.error());
        Result<std::string> report = planner->report(gpu.value());
        if (!report)
            return errorResponse(request, report.error());
        response.ok = true;
        response.report = report.value();
        break;
    }
    case QueryKind::Snapshot:
    case QueryKind::Fleet:
    case QueryKind::LoadSnapshot:
    case QueryKind::Stats:
        // Intercepted in submit() before execution; reaching the
        // planner path would mean a bug, not a bad request.
        return errorResponse(
            request, Error{ErrorCode::InvalidArgument,
                           "live queries have no planner answer"});
    }
    return response;
}

void
PlanService::recordLatencyMs(double ms)
{
    // Lock-free: the histogram is internally atomic (torn-free
    // concurrent quantiles), so the old latency mutex is gone.
    latency_.add(ms);
}

void
PlanService::publishDynamicStats(StatsRegistry::Sink& sink) const
{
    sink.counter("serve.plans.compiled", registry_->plansCompiled());
    sink.counter("serve.plans.loaded", registry_->plansLoaded());
    sink.counter("serve.plans.registry_hits", registry_->planHits());
    sink.counter("serve.queue_depth", pool_.pendingTasks());
    {
        std::lock_guard<std::mutex> lock(planners_mutex_);
        sink.counter("serve.planners.cached", planners_.size());
        sink.counter("serve.planners.evicted", planners_.evictions());
        std::uint64_t steps = retired_planner_steps_.load();
        planners_.forEach(
            [&steps](const std::string&,
                     const std::shared_ptr<Planner>& planner) {
                steps += planner->stats().stepsSimulated;
            });
        sink.counter("serve.steps_simulated", steps);
    }
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        sink.counter("serve.answers.cached", answers_.size());
        sink.counter("serve.answers.peak", answers_.peakSize());
        sink.counter("serve.answers.evicted", answers_.evictions());
        sink.counter("serve.answers.inflight", inflight_.size());
    }
    {
        std::lock_guard<std::mutex> lock(tenants_mutex_);
        for (const auto& [name, state] : tenants_) {
            const std::string prefix = strCat("serve.tenant.", name, '.');
            sink.counter(strCat(prefix, "admitted"), state.admitted);
            sink.counter(strCat(prefix, "rejected_inflight"),
                         state.rejectedInflight);
            sink.counter(strCat(prefix, "rejected_rate"),
                         state.rejectedRate);
            sink.counter(strCat(prefix, "inflight"), state.inflight);
        }
    }
    {
        std::lock_guard<std::mutex> lock(sources_mutex_);
        sources_.forEach(
            [&sink](const std::string& name, const SourceStats& row) {
                const std::string prefix =
                    strCat("serve.source.", name, '.');
                sink.counter(strCat(prefix, "requests"), row.requests);
                sink.counter(strCat(prefix, "coalesced"), row.coalesced);
                sink.counter(strCat(prefix, "rate_limited"),
                             row.rateLimited);
            });
    }
}

}  // namespace ftsim
