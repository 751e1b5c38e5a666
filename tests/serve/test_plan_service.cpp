/**
 * @file
 * PlanService tests: thundering-herd coalescing (the ISSUE-3
 * acceptance bar: stepsSimulated == distinct configs however many
 * tenants ask), planner sharing, fleet-wide plan-registry sharing,
 * rate overrides, error surfacing — and the ISSUE-4 governance layer:
 * per-tenant admission quotas (token bucket + max-inflight) and
 * LRU-bounded answer/planner caches (capacity-1 stays correct,
 * evicted answers recompute identically and re-simulate).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "one_cpu.hpp"
#include "serve/plan_service.hpp"
#include "stats_rows.hpp"

namespace ftsim {
namespace {

PlanRequest
throughputRequest(const std::string& gpu,
                  Scenario scenario = Scenario::gsMath())
{
    PlanRequest req;
    req.query = QueryKind::Throughput;
    req.gpu = gpu;
    req.scenario = scenario;
    return req;
}

/**
 * Holds one execution open until release(), on a thread other than
 * the test's, so the test can submit while that request's tenant slot
 * is held however fast it computes.
 *
 * hold() submits the request from a helper thread. The service reads
 * its clock after answering and before it releases the execution's
 * tenant slots; the gate's clock parks every read made by a thread
 * other than the test's while an execution is in flight
 * (`serve.answers.inflight` > 0). The parked thread is a worker, or,
 * in a service with no workers (one usable CPU), the helper itself,
 * running the miss inside submit(). Either way hold() returns once the
 * execution is parked, its slot held and its key in flight, so the
 * tests assert the same thing on any CPU count. The test's own thread
 * never waits. Release before the service is destroyed: the pool
 * joins its workers.
 */
class ExecutionGate {
  public:
    ~ExecutionGate()
    {
        release();
        if (helper_.joinable())
            helper_.join();
    }

    /** Points @p config's clock and stats registry at the gate. */
    void install(ServiceConfig& config)
    {
        config.statsRegistry = stats_;
        config.clock = [this] {
            park();
            return 0.0;
        };
    }

    /** Submits @p request from the helper thread and returns once its
     *  execution is parked. */
    void hold(PlanService& service, const PlanRequest& request)
    {
        helper_ = std::thread(
            [this, &service, request] { held_ = service.submit(request); });
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait(lock, [this] { return parked_; });
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        changed_.notify_all();
    }

    /** The held request's answer; call after release(). */
    PlanResponse heldAnswer()
    {
        helper_.join();
        return held_.get();
    }

  private:
    void park()
    {
        if (std::this_thread::get_id() == owner_ ||
            stats_->snapshot().counter("serve.answers.inflight") == 0)
            return;
        std::unique_lock<std::mutex> lock(mutex_);
        parked_ = true;
        changed_.notify_all();
        changed_.wait(lock, [this] { return open_; });
    }

    const std::thread::id owner_ = std::this_thread::get_id();
    const std::shared_ptr<StatsRegistry> stats_ =
        std::make_shared<StatsRegistry>();
    std::mutex mutex_;
    std::condition_variable changed_;
    bool parked_ = false;
    bool open_ = false;
    std::thread helper_;
    std::shared_future<PlanResponse> held_;
};

/** The thundering-herd acceptance check, run by the test below on any
 *  CPU count and again on one CPU (where submitters run the misses). */
void
expectHerdSimulatesEachDistinctConfigOnce()
{
    // 32 tenants each submit the same 4 questions: three throughput
    // probes (one step simulation each — the profile at max batch)
    // and one max_batch probe (memory arithmetic, no simulation).
    // 128 submissions, 3 distinct step configs -> exactly 3 sims.
    // One extra "greedy" tenant hammers the same probes under a
    // token-bucket quota: its overflow is RateLimited, and neither
    // its admitted nor its rejected traffic perturbs the herd's
    // simulate-once guarantee (untenanted requests are quota-exempt).
    ServiceConfig config;
    config.tenantRps = 1e-9;  // Effectively burst-only: 2 then reject.
    config.tenantBurst = 2.0;
    PlanService service(config);
    const std::vector<PlanRequest> probes = {
        throughputRequest("A40"),
        throughputRequest("H100"),
        throughputRequest("A40", Scenario::commonsense15k()),
        [] {
            PlanRequest req;
            req.query = QueryKind::MaxBatch;
            req.gpu = "A40";
            return req;
        }(),
    };

    constexpr int kTenants = 32;
    constexpr std::uint64_t kGreedySubmits = 8;
    std::vector<std::vector<PlanResponse>> answers(kTenants);
    std::vector<PlanResponse> greedy_answers;
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t)
        tenants.emplace_back([&service, &probes, &answers, t] {
            for (const PlanRequest& probe : probes)
                answers[t].push_back(service.ask(probe));
        });
    tenants.emplace_back([&service, &probes, &greedy_answers] {
        for (std::uint64_t i = 0; i < kGreedySubmits; ++i) {
            PlanRequest probe = probes[i % probes.size()];
            probe.tenant = "greedy";
            greedy_answers.push_back(service.ask(probe));
        }
    });
    for (std::thread& tenant : tenants)
        tenant.join();

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    // The acceptance assertion: duplicate-heavy concurrent load
    // simulates only the distinct configurations.
    EXPECT_EQ(stats.counter("serve.steps_simulated"), 3u);
    EXPECT_EQ(stats.counter("serve.requests"),
              static_cast<std::uint64_t>(kTenants * probes.size()) +
                  kGreedySubmits);
    EXPECT_EQ(stats.counter("serve.executed"), probes.size());
    EXPECT_EQ(stats.counter("serve.rate_limited"), kGreedySubmits - 2);
    EXPECT_EQ(stats.counter("serve.coalesced"),
              stats.counter("serve.requests") -
                  stats.counter("serve.executed") -
                  stats.counter("serve.rate_limited"));
    // Two scenarios -> two planners, every other request reused one.
    EXPECT_EQ(stats.counter("serve.planners.created"), 2u);

    // Every tenant got the same (successful) answers.
    for (int t = 0; t < kTenants; ++t) {
        ASSERT_EQ(answers[t].size(), probes.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_TRUE(answers[t][i].ok);
            EXPECT_EQ(answers[t][i].value, answers[0][i].value);
        }
    }

    // The greedy tenant: burst admitted (with the herd's answers),
    // the rest rejected — deterministically, since it submits
    // serially against a bucket only it drains.
    ASSERT_EQ(greedy_answers.size(), kGreedySubmits);
    for (std::size_t i = 0; i < greedy_answers.size(); ++i) {
        if (i < 2) {
            EXPECT_TRUE(greedy_answers[i].ok);
            EXPECT_EQ(greedy_answers[i].value,
                      answers[0][i % probes.size()].value);
        } else {
            EXPECT_FALSE(greedy_answers[i].ok);
            EXPECT_EQ(greedy_answers[i].errorCode, "RateLimited");
        }
    }
    ASSERT_NE(stats.find("serve.tenant.greedy.admitted"), nullptr);
    EXPECT_EQ(stats.counter("serve.tenant.greedy.admitted"), 2u);
    EXPECT_EQ(stats.counter("serve.tenant.greedy.rejected_rate"),
              kGreedySubmits - 2);
    EXPECT_EQ(stats.counter("serve.tenant.greedy.rejected_inflight"), 0u);
    EXPECT_EQ(stats.counter("serve.tenant.greedy.inflight"), 0u);
}

TEST(PlanService, ThunderingHerdSimulatesEachDistinctConfigOnce)
{
    expectHerdSimulatesEachDistinctConfigOnce();
}

TEST(PlanService, AnswersMatchADirectPlanner)
{
    PlanService service;
    PlanRequest table;
    table.query = QueryKind::CostTable;
    PlanResponse response = service.ask(table);
    ASSERT_TRUE(response.ok);

    Planner planner(Scenario::gsMath());
    auto rows = planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(response.rows.size(), rows.value().size());
    for (std::size_t i = 0; i < response.rows.size(); ++i) {
        EXPECT_EQ(response.rows[i].gpuName, rows.value()[i].gpuName);
        EXPECT_EQ(response.rows[i].totalDollars,
                  rows.value()[i].totalDollars);
    }
}

TEST(PlanService, SharesOnePlannerAcrossQueryKinds)
{
    PlanService service;
    PlanRequest throughput = throughputRequest("A40");
    PlanRequest table;
    table.query = QueryKind::CostTable;
    PlanRequest cheapest;
    cheapest.query = QueryKind::CheapestPlan;

    ASSERT_TRUE(service.ask(throughput).ok);
    ASSERT_TRUE(service.ask(table).ok);
    ASSERT_TRUE(service.ask(cheapest).ok);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    // Same scenario -> one planner; the later kinds reused it (and
    // its step cache: the A40 max-batch profile simulated once).
    EXPECT_EQ(stats.counter("serve.planners.created"), 1u);
    EXPECT_EQ(stats.counter("serve.planners.reuses"), 2u);
}

TEST(PlanService, RegistrySharesPlansAcrossPlanners)
{
    // Two scenarios on the same model: two planners, two simulators
    // per GPU — but the compiled step-plan shape is shared through
    // the service's registry instead of recompiled per builder.
    PlanService service;
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);
    ASSERT_TRUE(
        service.ask(throughputRequest("A40", Scenario::commonsense15k()))
            .ok);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.planners.created"), 2u);
    // Both probes plan sparse Mixtral with checkpointing: one shape.
    EXPECT_EQ(stats.counter("serve.plans.compiled"), 1u);
    EXPECT_GE(stats.counter("serve.plans.registry_hits"), 1u);
    EXPECT_EQ(service.planRegistry()->plansCompiled(), 1u);
}

TEST(PlanService, CoalescedFutureCarriesBlankIdAndAskRestoresIt)
{
    PlanService service;
    PlanRequest first = throughputRequest("A40");
    first.id = "alice";
    PlanRequest second = throughputRequest("A40");
    second.id = "bob";

    PlanResponse shared = service.submit(first).get();
    EXPECT_TRUE(shared.id.empty());  // Shared answers own no id.
    PlanResponse bobs = service.ask(second);
    EXPECT_EQ(bobs.id, "bob");
    EXPECT_EQ(bobs.value, shared.value);
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.executed"), 1u);
    EXPECT_EQ(stats.counter("serve.coalesced"), 1u);
}

TEST(PlanService, RateOverridesPriceUnpricedGpus)
{
    // A100-40GB has a spec but no CUDO price: without a rate override
    // the cost table skips it, with one it appears.
    PlanService service;
    PlanRequest bare;
    bare.query = QueryKind::CostTable;
    bare.gpus = {"A40", "A100-40GB"};
    PlanResponse without = service.ask(bare);
    ASSERT_TRUE(without.ok);
    EXPECT_EQ(without.rows.size(), 1u);

    PlanRequest priced = bare;
    priced.rates = {{"user", "A100-40GB", 1.20}};
    PlanResponse with = service.ask(priced);
    ASSERT_TRUE(with.ok);
    ASSERT_EQ(with.rows.size(), 2u);
    EXPECT_EQ(with.rows[1].gpuName, "A100-40GB");
    EXPECT_DOUBLE_EQ(with.rows[1].dollarsPerHour, 1.20);
    // Different rates -> different planner identity (no false share).
    EXPECT_EQ(service.statsRegistry()->snapshot().counter(
                  "serve.planners.created"),
              2u);
}

TEST(PlanService, SurfacesDomainErrorsAsResponses)
{
    PlanService service;

    PlanRequest unknown = throughputRequest("B300");
    unknown.id = "alice";
    // The shared (coalescable) future must not leak the submitter's id
    // on the error path either.
    PlanResponse shared_err = service.submit(unknown).get();
    EXPECT_FALSE(shared_err.ok);
    EXPECT_TRUE(shared_err.id.empty());
    PlanResponse resp = service.ask(unknown);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "UnknownGpu");
    EXPECT_EQ(resp.id, "alice");

    PlanRequest bad_rate = throughputRequest("A40");
    bad_rate.rates = {{"user", "", -1.0}};
    resp = service.ask(bad_rate);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "InvalidArgument");

    PlanRequest dense_small = throughputRequest("A100-40GB");
    dense_small.scenario.withSparse(false);  // Does not fit dense.
    resp = service.ask(dense_small);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "DoesNotFit");
}

TEST(PlanService, StatsExposeLatencyQuantiles)
{
    PlanService service;
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_GT(stats.find("serve.latency_ms.p99")->value, 0.0);
    EXPECT_LE(stats.find("serve.latency_ms.p50")->value,
              stats.find("serve.latency_ms.p99")->value);
}

// ---- ISSUE-4 resource governance ------------------------------------

TEST(PlanService, EvictedAnswerRecomputesIdenticallyAndResimulates)
{
    // Capacity-1 caches: asking A, then B, then A again must evict
    // and rebuild at every step — the third answer is a fresh planner
    // and a fresh simulation, yet bit-identical to the first.
    ServiceConfig config;
    config.maxAnswers = 1;
    config.maxPlanners = 1;
    PlanService service(config);

    const PlanRequest a = throughputRequest("A40");
    const PlanRequest b =
        throughputRequest("A40", Scenario::commonsense15k());

    const PlanResponse first = service.ask(a);
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(service.statsRegistry()->snapshot().counter(
                  "serve.steps_simulated"),
              1u);

    ASSERT_TRUE(service.ask(b).ok);  // Evicts a's answer AND planner.
    EXPECT_EQ(service.statsRegistry()->snapshot().counter(
                  "serve.steps_simulated"),
              2u);

    const PlanResponse again = service.ask(a);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.value, first.value);  // Eviction never changes answers.

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    // The recomputation is real work: a third simulation (the planner
    // holding a's step cache was evicted too), not a coalesced hit.
    EXPECT_EQ(stats.counter("serve.steps_simulated"), 3u);
    EXPECT_EQ(stats.counter("serve.executed"), 3u);
    EXPECT_EQ(stats.counter("serve.coalesced"), 0u);
    EXPECT_EQ(stats.counter("serve.answers.evicted"), 2u);
    EXPECT_EQ(stats.counter("serve.planners.evicted"), 2u);
    EXPECT_EQ(stats.counter("serve.planners.created"), 3u);
    EXPECT_EQ(stats.counter("serve.answers.cached"), 1u);
    EXPECT_EQ(stats.counter("serve.answers.peak"), 1u);
    EXPECT_LE(stats.counter("serve.planners.cached"), 1u);
}

TEST(PlanService, CachedAnswersStillCoalesceWithinCapacity)
{
    // Within capacity the bounded service behaves exactly like the
    // unbounded one: duplicates coalesce, nothing re-simulates.
    ServiceConfig config;
    config.maxAnswers = 8;
    config.maxPlanners = 8;
    PlanService service(config);

    const PlanRequest a = throughputRequest("A40");
    const PlanResponse first = service.ask(a);
    ASSERT_TRUE(first.ok);
    const PlanResponse second = service.ask(a);
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(second.value, first.value);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.executed"), 1u);
    EXPECT_EQ(stats.counter("serve.coalesced"), 1u);
    EXPECT_EQ(stats.counter("serve.steps_simulated"), 1u);
    EXPECT_EQ(stats.counter("serve.answers.evicted"), 0u);
}

TEST(PlanService, CapacityOneServiceAnswersConcurrentHerdCorrectly)
{
    // The hardest governance invariant: a capacity-1 service under a
    // concurrent multi-question herd must answer *everything*
    // correctly — eviction may cost recomputation, but a coalesced
    // waiter can never lose its future (in-flight entries live
    // outside the LRU) and answers never change.
    ServiceConfig config;
    config.maxAnswers = 1;
    config.maxPlanners = 1;
    PlanService service(config);

    PlanService reference;  // Unbounded twin for expected values.
    const std::vector<PlanRequest> probes = {
        throughputRequest("A40"),
        throughputRequest("H100"),
        throughputRequest("A40", Scenario::commonsense15k()),
    };
    std::vector<PlanResponse> expected;
    for (const PlanRequest& probe : probes)
        expected.push_back(reference.ask(probe));

    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::vector<std::vector<PlanResponse>> answers(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&service, &probes, &answers, t] {
            for (int round = 0; round < kRounds; ++round)
                for (const PlanRequest& probe : probes)
                    answers[t].push_back(service.ask(probe));
        });
    for (std::thread& thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(answers[t].size(), probes.size() * kRounds);
        for (std::size_t i = 0; i < answers[t].size(); ++i) {
            const PlanResponse& got = answers[t][i];
            const PlanResponse& want = expected[i % probes.size()];
            ASSERT_TRUE(got.ok);
            EXPECT_EQ(got.value, want.value);
        }
    }

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    // Everyone answered: nothing lost to eviction...
    EXPECT_EQ(stats.counter("serve.requests"),
              static_cast<std::uint64_t>(kThreads * kRounds) *
                  probes.size());
    EXPECT_EQ(stats.counter("serve.coalesced") +
                  stats.counter("serve.executed"),
              stats.counter("serve.requests"));
    // ...and the capacity bound held at every instant.
    EXPECT_EQ(stats.counter("serve.answers.peak"), 1u);
    EXPECT_LE(stats.counter("serve.answers.cached"), 1u);
    // Distinct configs at least.
    EXPECT_GE(stats.counter("serve.steps_simulated"), 2u);
}

TEST(PlanService, TokenBucketRejectsPerTenantIndependently)
{
    ServiceConfig config;
    config.tenantRps = 1e-9;  // Burst-only in test timescales.
    config.tenantBurst = 2.0;
    PlanService service(config);

    // Distinct cheap questions so nothing coalesces: the quota, not
    // the cache, must be what rejects.
    auto probe = [](int i) {
        PlanRequest req;
        req.query = QueryKind::MaxBatch;
        req.gpu = "A40";
        req.scenario =
            Scenario::gsMath().withNumQueries(10000.0 + i);
        return req;
    };

    int alice_ok = 0, alice_limited = 0;
    for (int i = 0; i < 5; ++i) {
        PlanRequest req = probe(i);
        req.tenant = "alice";
        req.id = strCat("alice-", i);
        const PlanResponse resp = service.ask(req);
        EXPECT_EQ(resp.id, req.id);  // ask() restamps rejections too.
        if (resp.ok) {
            ++alice_ok;
        } else {
            EXPECT_EQ(resp.errorCode, "RateLimited");
            ++alice_limited;
        }
    }
    EXPECT_EQ(alice_ok, 2);
    EXPECT_EQ(alice_limited, 3);

    // Bob has his own bucket; alice draining hers costs him nothing.
    PlanRequest bobs = probe(100);
    bobs.tenant = "bob";
    EXPECT_TRUE(service.ask(bobs).ok);

    // Untenanted traffic is quota-exempt however much there is.
    for (int i = 200; i < 210; ++i)
        EXPECT_TRUE(service.ask(probe(i)).ok);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.rate_limited"), 3u);
    EXPECT_EQ(stats.counter("serve.tenant.alice.admitted"), 2u);
    EXPECT_EQ(stats.counter("serve.tenant.alice.rejected_rate"), 3u);
    EXPECT_EQ(stats.counter("serve.tenant.bob.admitted"), 1u);
    EXPECT_EQ(stats.counter("serve.tenant.bob.rejected_rate"), 0u);
}

TEST(PlanService, InflightGateCapsConcurrentRequestsPerTenant)
{
    // One worker, inflight limit 1: the first request occupies the
    // tenant's only slot (the gate holds its execution open); requests
    // submitted meanwhile are rejected, and the slot frees once it
    // answers.
    ExecutionGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantMaxInflight = 1;
    gate.install(config);
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;
    heavy.gpu = "A40";
    heavy.tenant = "carol";

    gate.hold(service, heavy);

    // The slot is still held, so a second (distinct) request bounces.
    PlanRequest second = throughputRequest("A40");
    second.tenant = "carol";
    const PlanResponse bounced = service.submit(second).get();
    gate.release();
    EXPECT_FALSE(bounced.ok);
    EXPECT_EQ(bounced.errorCode, "RateLimited");

    EXPECT_TRUE(gate.heldAnswer().ok);
    // The answer resolved, so the slot is free again — and the retry
    // coalesces onto the cached report without consuming new work.
    PlanRequest retry = heavy;
    EXPECT_TRUE(service.ask(retry).ok);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.tenant.carol.rejected_inflight"), 1u);
    EXPECT_EQ(stats.counter("serve.tenant.carol.admitted"), 2u);
    EXPECT_EQ(stats.counter("serve.tenant.carol.inflight"), 0u);
    EXPECT_EQ(stats.counter("serve.rate_limited"), 1u);
}

TEST(PlanService, CoalescedDuplicatesHoldInflightSlotsUntilAnswered)
{
    // Duplicates coalesce onto one execution but each admitted copy
    // holds its own tenant slot until the shared answer resolves —
    // otherwise a tenant could multiply pressure through duplicates.
    ExecutionGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantMaxInflight = 2;
    gate.install(config);
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;
    heavy.gpu = "A40";
    heavy.tenant = "dave";

    gate.hold(service, heavy);
    std::shared_future<PlanResponse> duplicate = service.submit(heavy);
    const PlanResponse third = service.submit(heavy).get();
    gate.release();
    EXPECT_FALSE(third.ok);  // Two slots held by the shared execution.
    EXPECT_EQ(third.errorCode, "RateLimited");

    EXPECT_TRUE(gate.heldAnswer().ok);
    EXPECT_TRUE(duplicate.get().ok);
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    ASSERT_NE(stats.find("serve.tenant.dave.inflight"), nullptr);
    EXPECT_EQ(stats.counter("serve.tenant.dave.inflight"), 0u);
    EXPECT_EQ(stats.counter("serve.tenant.dave.rejected_inflight"), 1u);
    // Still one execution.
    EXPECT_EQ(stats.counter("serve.executed"), 1u);
}

TEST(PlanService, TenantTableIsBoundedUnderNameRotation)
{
    // The tenant field is unauthenticated wire input: a client
    // rotating fresh names must not grow the admission table without
    // limit. Idle states are evicted oldest-first to make room.
    ServiceConfig config;
    config.tenantRps = 1e9;  // Quotas on, but never the rejector here.
    config.maxTenants = 2;
    PlanService service(config);

    for (int i = 0; i < 10; ++i) {
        PlanRequest req = throughputRequest("A40");
        req.tenant = strCat("rotating-", i);
        EXPECT_TRUE(service.ask(req).ok);  // Idle olds evict fine.
    }
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_LE(statRows(stats, "serve.tenant.", "admitted").size(), 2u);
    EXPECT_EQ(stats.counter("serve.rate_limited"), 0u);
}

TEST(PlanService, FullTenantTableOfBusyTenantsRejectsNewNames)
{
    // When every tracked tenant has work in flight, there is nothing
    // safe to evict: a fresh name is rejected instead of tracked.
    ExecutionGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantRps = 1e9;
    config.maxTenants = 1;
    gate.install(config);
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;  // Holds its slot until the gate.
    heavy.gpu = "A40";
    heavy.tenant = "resident";
    gate.hold(service, heavy);

    PlanRequest newcomer = throughputRequest("A40");
    newcomer.tenant = "newcomer";
    const PlanResponse bounced = service.submit(newcomer).get();
    gate.release();
    EXPECT_FALSE(bounced.ok);
    EXPECT_EQ(bounced.errorCode, "RateLimited");

    EXPECT_TRUE(gate.heldAnswer().ok);
    // Resident is idle now: the newcomer takes its slot.
    EXPECT_TRUE(service.ask(newcomer).ok);
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    const auto tenants = statRows(stats, "serve.tenant.", "admitted");
    EXPECT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants.count("newcomer"), 1u);
}

/** The exception-guard check, run by the test below on any CPU count
 *  and again on one CPU (where the submitter runs the execution). */
void
expectExecutionThrowIsContained()
{
    // A crafted programmatic scenario (incomplete model spec) makes
    // the simulator fatal() mid-execution. The future must resolve
    // with an error response, the key must leave the in-flight map
    // (later duplicates recompute, not rethrow — and the guard answer
    // is never cached), and the tenant's inflight slot must come back.
    ServiceConfig config;
    config.tenantMaxInflight = 1;
    PlanService service(config);

    PlanRequest poison = throughputRequest("A40");
    poison.tenant = "edgar";
    poison.scenario.model.nLayers = 0;  // WorkloadBuilder fatals.

    const PlanResponse first = service.ask(poison);
    EXPECT_FALSE(first.ok);
    EXPECT_EQ(first.errorCode, "InvalidArgument");
    EXPECT_NE(first.errorMessage.find("execution failed"),
              std::string::npos);

    // Same question again: guard answers are NOT promoted to the
    // answer cache (a transient failure must not become the key's
    // permanent answer), so the retry re-executes — through a freed
    // key and a freed tenant slot — and fails the same way.
    const PlanResponse again = service.ask(poison);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.errorCode, first.errorCode);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    ASSERT_NE(stats.find("serve.tenant.edgar.inflight"), nullptr);
    EXPECT_EQ(stats.counter("serve.tenant.edgar.inflight"), 0u);
    EXPECT_EQ(stats.counter("serve.executed"), 2u);
    EXPECT_EQ(stats.counter("serve.coalesced"), 0u);
    EXPECT_EQ(stats.counter("serve.rate_limited"), 0u);

    // And the service keeps serving healthy requests afterwards.
    EXPECT_TRUE(service.ask(throughputRequest("A40")).ok);
}

TEST(PlanService, ExecutionThrowBecomesAnErrorResponseNotAPoisonedKey)
{
    expectExecutionThrowIsContained();
}

TEST(PlanService, TokenBucketRefillsOnTheInjectedClock)
{
    // The refill path, deterministically: a virtual clock
    // (ServiceConfig::clock) drives time, so the test controls exactly
    // how many tokens accrue between requests. 2 rps = one token per
    // 500 ms (all increments are exact binary fractions — no float
    // drift in the assertions).
    double now_ms = 0.0;
    ServiceConfig config;
    config.tenantRps = 2.0;
    config.tenantBurst = 1.0;
    config.clock = [&now_ms] { return now_ms; };
    PlanService service(config);

    // Distinct cheap questions so the quota, not the cache, decides.
    auto probe = [](int i) {
        PlanRequest req;
        req.query = QueryKind::MaxBatch;
        req.gpu = "A40";
        req.tenant = "alice";
        req.scenario = Scenario::gsMath().withNumQueries(30000.0 + i);
        return req;
    };

    // t=0: the initial burst (1 token) admits, then the bucket is dry.
    EXPECT_TRUE(service.ask(probe(0)).ok);
    EXPECT_EQ(service.ask(probe(1)).errorCode, "RateLimited");

    // t=250ms: half a token — still dry.
    now_ms = 250.0;
    EXPECT_EQ(service.ask(probe(2)).errorCode, "RateLimited");

    // t=500ms: the other half arrived; exactly one token to spend.
    now_ms = 500.0;
    EXPECT_TRUE(service.ask(probe(3)).ok);
    EXPECT_EQ(service.ask(probe(4)).errorCode, "RateLimited");

    // A long quiet spell refills to the burst cap, not beyond: one
    // admit, then dry again.
    now_ms = 60000.0;
    EXPECT_TRUE(service.ask(probe(5)).ok);
    EXPECT_EQ(service.ask(probe(6)).errorCode, "RateLimited");

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.tenant.alice.admitted"), 3u);
    EXPECT_EQ(stats.counter("serve.tenant.alice.rejected_rate"), 4u);
    EXPECT_EQ(stats.counter("serve.rate_limited"), 4u);
}

TEST(PlanService, SourcesBucketSubmissionsPerConnectionLabel)
{
    // SubmitOptions::source is the network layer's per-connection
    // stats hook; notify fires only for answers that were not ready
    // when submit() returned — never for the cached duplicate below.
    PlanService service;
    std::atomic<int> notified{0};
    SubmitOptions options;
    options.source = "127.0.0.1:9999#1";
    options.notify = [&notified] { notified.fetch_add(1); };

    // A service with workers hands the miss to one and notifies from
    // it; one without (one usable CPU) answers it inside submit().
    const int miss_notifies = service.workers() > 0 ? 1 : 0;
    PlanRequest probe = throughputRequest("A40");
    PlanResponse first = service.submit(probe, options).get();
    EXPECT_TRUE(first.ok);
    // The executed path notifies from the worker *after* resolving the
    // future, so get() returning does not yet imply the callback ran —
    // wait for it (bounded by the worker finishing its epilogue).
    while (notified.load() < miss_notifies)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(notified.load(), miss_notifies);

    // Duplicate: served from the answer cache (the spin above
    // guaranteed finishExecution promoted the answer), so the future
    // is ready on return and nothing is notified.
    std::shared_future<PlanResponse> cached =
        service.submit(probe, options);
    ASSERT_TRUE(cached.valid());
    EXPECT_EQ(cached.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(cached.get().ok);
    EXPECT_EQ(notified.load(), miss_notifies);

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    ASSERT_EQ(statRows(stats, "serve.source.", "requests").size(), 1u);
    const std::string row = "serve.source.127.0.0.1:9999#1.";
    EXPECT_EQ(stats.counter(row + "requests"), 2u);
    EXPECT_EQ(stats.counter(row + "coalesced"), 1u);
    EXPECT_EQ(stats.counter(row + "rate_limited"), 0u);

    // An unlabeled submission stays untracked.
    service.ask(throughputRequest("H100"));
    EXPECT_EQ(statRows(service.statsRegistry()->snapshot(),
                       "serve.source.", "requests")
                  .size(),
              1u);
}

TEST(PlanService, QuotasDisabledByDefaultEvenForTenantedRequests)
{
    PlanService service;  // Default config: no quotas.
    for (int i = 0; i < 8; ++i) {
        PlanRequest req = throughputRequest("A40");
        req.tenant = "free";
        EXPECT_TRUE(service.ask(req).ok);
    }
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.rate_limited"), 0u);
    // No tracking when disabled.
    EXPECT_TRUE(statRows(stats, "serve.tenant.", "admitted").empty());
}

TEST(PlanService, LoadSnapshotWarmsTheRegistryWithoutCompiling)
{
    // A donor service compiles two configs; its live snapshot pushed
    // into a cold service via the `load_snapshot` query must make the
    // same questions registry hits — zero compiles on the receiver.
    PlanService donor;
    donor.ask(throughputRequest("A40"));
    donor.ask(throughputRequest("A40", Scenario::commonsense15k()));
    const std::uint64_t donorPlans =
        donor.planRegistry()->plansCompiled();
    ASSERT_GT(donorPlans, 0u);
    const PlanResponse snap = donor.ask([] {
        PlanRequest req;
        req.query = QueryKind::Snapshot;
        return req;
    }());
    ASSERT_TRUE(snap.ok) << snap.errorMessage;

    PlanService cold;
    PlanRequest load;
    load.query = QueryKind::LoadSnapshot;
    // Raw bytes end to end in-process; base64 exists only on the wire.
    load.snapshot = snap.snapshot;
    const PlanResponse loaded = cold.ask(load);
    ASSERT_TRUE(loaded.ok) << loaded.errorMessage;
    // plansLoaded is echoed back as the answer's value.
    EXPECT_EQ(loaded.value, static_cast<double>(donorPlans));

    cold.ask(throughputRequest("A40"));
    cold.ask(throughputRequest("A40", Scenario::commonsense15k()));
    EXPECT_EQ(cold.planRegistry()->plansCompiled(), 0u);
    EXPECT_EQ(cold.planRegistry()->plansLoaded(), donorPlans);
}

TEST(PlanService, StatsQueryIsLiveNeverCoalescedAndRegistryBacked)
{
    PlanService service;
    service.ask(throughputRequest("A40"));
    service.ask(throughputRequest("H100"));

    PlanRequest scrape;
    scrape.query = QueryKind::Stats;
    const PlanResponse first = service.ask(scrape);
    ASSERT_TRUE(first.ok) << first.errorMessage;
    EXPECT_GT(first.value, 0.0);  // value = entry count.
    // The flat snapshot carries the service's own cells.
    EXPECT_NE(first.statsJson.find("\"serve.requests\":"),
              std::string::npos)
        << first.statsJson;
    EXPECT_NE(first.statsJson.find("\"planner.step_cache_misses\":"),
              std::string::npos);

    // Live contract: identical scrapes are answered fresh — never
    // cached, never coalesced — and each counts as executed.
    const StatsSnapshot before = service.statsRegistry()->snapshot();
    const PlanResponse second = service.ask(scrape);
    ASSERT_TRUE(second.ok);
    const StatsSnapshot after = service.statsRegistry()->snapshot();
    EXPECT_EQ(after.counter("serve.coalesced"),
              before.counter("serve.coalesced"));
    EXPECT_EQ(after.counter("serve.executed"),
              before.counter("serve.executed") + 1);
    EXPECT_GT(after.counter("planner.step_cache_misses"), 0u);
    // The second scrape observed the first in its own counters.
    EXPECT_GT(second.value, 0.0);
}

TEST(PlanService, FleetAnswerPinsTheShardLedgerLine)
{
    // The shard `fleet` answer is what the router and the fleet bench
    // read over the wire; pin its value and report bytes for a fixed
    // serial history: three distinct questions, a duplicate, one
    // admitted tenant request and its quota rejection.
    ServiceConfig config;
    config.tenantRps = 1e-9;  // Burst-only: 1 admitted, then reject.
    config.tenantBurst = 1.0;
    PlanService service(config);
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);
    ASSERT_TRUE(service.ask(throughputRequest("H100")).ok);
    PlanRequest max_batch;
    max_batch.query = QueryKind::MaxBatch;
    max_batch.gpu = "A40";
    ASSERT_TRUE(service.ask(max_batch).ok);
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);  // Duplicate.
    PlanRequest tenanted =
        throughputRequest("A40", Scenario::commonsense15k());
    tenanted.tenant = "t";
    ASSERT_TRUE(service.ask(tenanted).ok);
    EXPECT_EQ(service.ask(tenanted).errorCode, "RateLimited");

    PlanRequest fleet;
    fleet.query = QueryKind::Fleet;
    const PlanResponse answer = service.ask(fleet);
    ASSERT_TRUE(answer.ok) << answer.errorMessage;
    // Three distinct throughput probes simulate a step each; every
    // probe plans sparse Mixtral, so one step-plan shape compiles.
    EXPECT_EQ(answer.value, 3.0);
    EXPECT_EQ(answer.report,
              "requests=7 executed=5 coalesced=1 rate_limited=1 "
              "steps_simulated=3 plans_compiled=1 plans_loaded=0 "
              "answers_cached=4");
}

TEST(PlanService, LoadSnapshotRejectsHostileBytesTyped)
{
    PlanService service;
    PlanRequest load;
    load.query = QueryKind::LoadSnapshot;
    load.snapshot = "not a snapshot at all";
    const PlanResponse response = service.ask(load);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.errorMessage.empty());
    // And the service is unharmed: it still answers.
    EXPECT_TRUE(service.ask(throughputRequest("A40")).ok);
}

// ----- One usable CPU: no workers, the submitter runs each miss -----

TEST(PlanService, PublishesItsWorkerCountAsAGauge)
{
    PlanService service;
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    const StatEntry* workers = stats.find("serve.workers");
    ASSERT_NE(workers, nullptr);
    EXPECT_EQ(workers->num(), static_cast<double>(service.workers()));
    EXPECT_EQ(service.workers() == 0, hardwareThreads() == 1);
}

TEST(PlanService, OneCpuAnswersAMissBeforeSubmitReturnsWithoutNotify)
{
    OneCpuScope one_cpu;
    ASSERT_TRUE(one_cpu.pinned());
    // The service reads its clock after answering, on the thread that
    // ran the execution: every read must come from this one.
    std::atomic<int> foreign_reads{0};
    const std::thread::id caller = std::this_thread::get_id();
    ServiceConfig config;
    config.workers = 4;  // An explicit count changes nothing on one CPU.
    config.clock = [&foreign_reads, caller] {
        if (std::this_thread::get_id() != caller)
            foreign_reads.fetch_add(1);
        return 0.0;
    };
    PlanService service(config);
    EXPECT_EQ(service.workers(), 0u);

    std::atomic<int> notified{0};
    SubmitOptions options;
    options.source = "127.0.0.1:9999#1";
    options.notify = [&notified] { notified.fetch_add(1); };
    for (const PlanRequest& miss :
         {throughputRequest("A40"), throughputRequest("H100")}) {
        std::shared_future<PlanResponse> answer =
            service.submit(miss, options);
        ASSERT_EQ(answer.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(answer.get().ok);
    }
    EXPECT_EQ(notified.load(), 0);
    EXPECT_EQ(foreign_reads.load(), 0);
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    ASSERT_NE(stats.find("serve.workers"), nullptr);
    EXPECT_EQ(stats.find("serve.workers")->num(), 0.0);
    EXPECT_EQ(stats.counter("serve.executed"), 2u);
    EXPECT_EQ(stats.counter("serve.queue_depth"), 0u);
    EXPECT_EQ(stats.counter("serve.answers.inflight"), 0u);
}

TEST(PlanService, OneCpuThunderingHerdSimulatesEachDistinctConfigOnce)
{
    // The herd's 33 threads start under the one-CPU mask, and each
    // plans its own misses; coalescing still runs each config once.
    OneCpuScope one_cpu;
    ASSERT_TRUE(one_cpu.pinned());
    expectHerdSimulatesEachDistinctConfigOnce();
}

TEST(PlanService, OneCpuExecutionThrowBecomesAnErrorResponseNotAPoisonedKey)
{
    OneCpuScope one_cpu;
    ASSERT_TRUE(one_cpu.pinned());
    expectExecutionThrowIsContained();
}

}  // namespace
}  // namespace ftsim
