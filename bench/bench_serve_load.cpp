/**
 * @file
 * Load-generator bench for the plan-serving subsystem.
 *
 * Replays a synthetic multi-tenant trace — N tenants probing a
 * scenario x GPU grid, so the request stream is duplicate-heavy, the
 * shape pre-hoc prediction services see when many users price the same
 * popular runs — against two servers:
 *
 *  - **serial / naive**: one fresh `Planner` per request, executed
 *    sequentially. No step cache survives a request, no planner is
 *    shared, nothing coalesces — the straw-man a service without
 *    shared state degenerates to.
 *  - **coalesced**: one `PlanService` (admission queue + worker pool +
 *    request coalescing + planner sharing + fleet-wide plan registry).
 *
 * Both paths must produce bit-identical answers; the bench verifies
 * that, emits BENCH_serve.json for trend tracking, and exits non-zero
 * if the coalesced service is *slower* than the serial baseline (the
 * ci.sh perf-smoke gate). The ISSUE-3 acceptance floor is 5x on this
 * 256-request trace.
 *
 * A second, eviction-pressure trace (ISSUE-4) replays more distinct
 * questions than a capacity-bounded service can cache, twice, and
 * asserts the governance invariants: the answer cache never exceeds
 * its configured capacity (peak-size audit), eviction actually
 * happened, and every answer stays bit-identical to an unbounded
 * service's — eviction may cost recomputation, never correctness.
 *
 * Usage: bench_serve_load [output.json]   (default: BENCH_serve.json)
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "core/planner.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

namespace {

using bench::nowMs;

GpuSpec
gpuByName(const std::string& name)
{
    if (const GpuSpec* gpu = GpuSpec::byName(name))
        return *gpu;
    fatal("bench_serve_load: unknown GPU " + name);
}

/**
 * The naive one-Planner-per-request server: what each request costs
 * when no state is shared between tenants.
 */
PlanResponse
answerNaive(const PlanRequest& request)
{
    PlanResponse response;
    response.query = request.query;
    Planner planner(request.scenario, CloudCatalog::cudoCompute());
    switch (request.query) {
    case QueryKind::MaxBatch: {
        Result<int> mbs = planner.maxBatch(gpuByName(request.gpu));
        if (!mbs)
            return errorResponse(request, mbs.error());
        response.ok = true;
        response.value = static_cast<double>(mbs.value());
        break;
    }
    case QueryKind::Throughput: {
        Result<double> qps =
            planner.throughput(gpuByName(request.gpu));
        if (!qps)
            return errorResponse(request, qps.error());
        response.ok = true;
        response.value = qps.value();
        break;
    }
    case QueryKind::CostTable: {
        Result<std::vector<CostRow>> rows =
            planner.costTable(GpuSpec::paperGpus());
        if (!rows)
            return errorResponse(request, rows.error());
        response.ok = true;
        response.rows = rows.value();
        break;
    }
    case QueryKind::CheapestPlan: {
        Result<CostRow> best =
            planner.cheapestPlan(GpuSpec::paperGpus());
        if (!best)
            return errorResponse(request, best.error());
        response.ok = true;
        response.rows.push_back(best.value());
        break;
    }
    case QueryKind::Report: {
        Result<std::string> report =
            planner.report(gpuByName(request.gpu));
        if (!report)
            return errorResponse(request, report.error());
        response.ok = true;
        response.report = report.value();
        break;
    }
    }
    return response;
}

bool
sameAnswer(const PlanResponse& a, const PlanResponse& b)
{
    if (a.ok != b.ok || a.query != b.query)
        return false;
    if (a.value != b.value || a.rows.size() != b.rows.size())
        return false;
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        if (a.rows[i].gpuName != b.rows[i].gpuName ||
            a.rows[i].totalDollars != b.rows[i].totalDollars)
            return false;
    return a.report == b.report;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_serve_load",
                  "multi-tenant trace: serial planners vs. coalesced "
                  "PlanService");

    // ---- The trace: 32 tenants x 8 probes over a shared grid. -------
    // Tenants probe the same popular scenarios and GPUs, so the stream
    // is duplicate-heavy: 256 requests, few distinct questions.
    const std::vector<Scenario> scenarios = {
        Scenario::gsMath(),
        Scenario::gsMath().withNumQueries(50000.0).withEpochs(3.0),
        Scenario::commonsense15k(),
    };
    const std::vector<std::string> gpu_names = {"A40", "A100-80GB",
                                                "H100"};

    std::vector<PlanRequest> templates;
    for (const Scenario& scenario : scenarios) {
        for (const std::string& gpu : gpu_names) {
            PlanRequest throughput;
            throughput.query = QueryKind::Throughput;
            throughput.gpu = gpu;
            throughput.scenario = scenario;
            templates.push_back(throughput);
        }
        PlanRequest table;
        table.query = QueryKind::CostTable;
        table.scenario = scenario;
        templates.push_back(table);

        PlanRequest cheapest;
        cheapest.query = QueryKind::CheapestPlan;
        cheapest.scenario = scenario;
        templates.push_back(cheapest);

        // The heavy probe: a full characterization (sweep + fits).
        PlanRequest report;
        report.query = QueryKind::Report;
        report.gpu = "A40";
        report.scenario = scenario;
        templates.push_back(report);
    }

    constexpr std::size_t kTenants = 32;
    constexpr std::size_t kProbesPerTenant = 8;
    std::vector<PlanRequest> trace;
    std::mt19937 rng(42);  // Deterministic trace across runs.
    for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
        for (std::size_t probe = 0; probe < kProbesPerTenant; ++probe) {
            const std::size_t pick = std::uniform_int_distribution<
                std::size_t>(0, templates.size() - 1)(rng);
            PlanRequest request = templates[pick];
            request.id = strCat("t", tenant, "-q", probe);
            trace.push_back(std::move(request));
        }
    }

    std::vector<std::string> keys;
    for (const PlanRequest& request : trace)
        keys.push_back(request.canonicalKey());
    std::sort(keys.begin(), keys.end());
    const std::size_t distinct = static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());

    bench::section("Trace");
    std::cout << trace.size() << " requests from " << kTenants
              << " tenants, " << distinct << " distinct questions ("
              << templates.size() << " templates)\n";

    // ---- Serial baseline: one fresh Planner per request. ------------
    std::vector<PlanResponse> serial_answers;
    serial_answers.reserve(trace.size());
    const double serial_start = nowMs();
    for (const PlanRequest& request : trace)
        serial_answers.push_back(answerNaive(request));
    const double serial_ms = nowMs() - serial_start;

    // ---- Coalesced PlanService. -------------------------------------
    PlanService service;  // Default: hardware workers, CUDO catalog.
    std::vector<std::shared_future<PlanResponse>> futures;
    futures.reserve(trace.size());
    const double coalesced_start = nowMs();
    for (const PlanRequest& request : trace)
        futures.push_back(service.submit(request));
    std::vector<PlanResponse> coalesced_answers;
    coalesced_answers.reserve(trace.size());
    for (auto& future : futures)
        coalesced_answers.push_back(future.get());
    const double coalesced_ms = nowMs() - coalesced_start;

    // ---- Verify: both servers give bit-identical answers. -----------
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (!sameAnswer(serial_answers[i], coalesced_answers[i]))
            ++mismatches;

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    const double p50_latency_ms = stats.find("serve.latency_ms.p50")->value;
    const double p99_latency_ms = stats.find("serve.latency_ms.p99")->value;
    const double speedup =
        coalesced_ms > 0.0 ? serial_ms / coalesced_ms : 0.0;

    // ---- Eviction pressure: bounded caches vs. an unbounded twin. ---
    // 64 distinct questions, replayed twice, against a service that can
    // cache only 16 answers / 8 planners: the second pass recomputes
    // what the LRU dropped. Deterministic serial replay so the
    // eviction order (and thus the stats) is reproducible.
    constexpr std::size_t kDistinctEviction = 64;
    constexpr std::size_t kMaxAnswers = 16;
    constexpr std::size_t kMaxPlanners = 8;
    std::vector<PlanRequest> pressure;
    for (std::size_t pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < kDistinctEviction; ++i) {
            PlanRequest request;
            request.query = QueryKind::MaxBatch;
            request.gpu = "A40";
            // Distinct num_queries -> distinct answer + planner keys
            // (the answer itself only depends on the memory model, so
            // the trace stays cheap however large it grows).
            request.scenario = Scenario::gsMath().withNumQueries(
                10000.0 + static_cast<double>(i));
            request.id = strCat("p", pass, "-", i);
            pressure.push_back(std::move(request));
        }

    ServiceConfig bounded_config;
    bounded_config.maxAnswers = kMaxAnswers;
    bounded_config.maxPlanners = kMaxPlanners;
    PlanService bounded(bounded_config);
    PlanService unbounded;

    const double eviction_start = nowMs();
    std::vector<PlanResponse> bounded_answers;
    bounded_answers.reserve(pressure.size());
    for (const PlanRequest& request : pressure)
        bounded_answers.push_back(bounded.ask(request));
    const double eviction_ms = nowMs() - eviction_start;

    std::size_t eviction_mismatches = 0;
    for (std::size_t i = 0; i < pressure.size(); ++i)
        if (!sameAnswer(bounded_answers[i], unbounded.ask(pressure[i])))
            ++eviction_mismatches;

    const StatsSnapshot bounded_stats = bounded.statsRegistry()->snapshot();
    const std::uint64_t answers_cached =
        bounded_stats.counter("serve.answers.cached");
    const std::uint64_t answers_peak =
        bounded_stats.counter("serve.answers.peak");
    const std::uint64_t answers_evicted =
        bounded_stats.counter("serve.answers.evicted");
    const std::uint64_t planners_cached =
        bounded_stats.counter("serve.planners.cached");
    const std::uint64_t planners_evicted =
        bounded_stats.counter("serve.planners.evicted");
    const bool capacity_respected = answers_peak <= kMaxAnswers &&
                                    answers_cached <= kMaxAnswers &&
                                    planners_cached <= kMaxPlanners;
    // 128 requests over 64 distinct questions with 16 slots must
    // churn: if nothing was evicted the bound is not actually applied.
    const bool eviction_exercised =
        answers_evicted > 0 && planners_evicted > 0;

    bench::section("Results");
    std::cout << "serial (fresh planner per request): " << serial_ms
              << " ms\n"
              << "coalesced PlanService (" << service.workers()
              << " workers):      " << coalesced_ms << " ms  ("
              << speedup << "x)\n"
              << "coalesced=" << stats.counter("serve.coalesced") << "/"
              << stats.counter("serve.requests")
              << " requests, executed=" << stats.counter("serve.executed")
              << ", planners=" << stats.counter("serve.planners.created")
              << " (reused " << stats.counter("serve.planners.reuses")
              << "x)"
              << ", plans_compiled=" << stats.counter("serve.plans.compiled")
              << ", steps_simulated="
              << stats.counter("serve.steps_simulated") << '\n'
              << "latency p50=" << p50_latency_ms << "ms p99="
              << p99_latency_ms << "ms\n"
              << "answer mismatches: " << mismatches << '\n';
    bench::note("acceptance floor: coalesced >= 5x serial on this "
                "duplicate-heavy trace; ci.sh fails below 1x");

    bench::section("Eviction pressure");
    std::cout << pressure.size() << " requests over "
              << kDistinctEviction << " distinct questions, caps "
              << kMaxAnswers << " answers / " << kMaxPlanners
              << " planners: " << eviction_ms << " ms\n"
              << "answers cached=" << answers_cached
              << " peak=" << answers_peak << " evicted=" << answers_evicted
              << "; planners cached=" << planners_cached
              << " evicted=" << planners_evicted << '\n'
              << "capacity respected: "
              << (capacity_respected ? "yes" : "NO") << ", eviction "
              << "exercised: " << (eviction_exercised ? "yes" : "NO")
              << ", mismatches vs unbounded: " << eviction_mismatches
              << '\n';

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_serve_load\",\n"
        << "  \"trace_requests\": " << trace.size() << ",\n"
        << "  \"distinct_requests\": " << distinct << ",\n"
        << "  \"tenants\": " << kTenants << ",\n"
        << "  \"workers\": " << service.workers() << ",\n"
        << "  \"timings_ms\": {\n"
        << "    \"serial\": " << serial_ms << ",\n"
        << "    \"coalesced\": " << coalesced_ms << "\n"
        << "  },\n"
        << "  \"speedup_coalesced_vs_serial\": " << speedup << ",\n"
        << "  \"answer_mismatches\": " << mismatches << ",\n"
        << "  \"service_stats\": {\n"
        << "    \"requests\": " << stats.counter("serve.requests") << ",\n"
        << "    \"coalesced\": " << stats.counter("serve.coalesced")
        << ",\n"
        << "    \"executed\": " << stats.counter("serve.executed") << ",\n"
        << "    \"planners_created\": "
        << stats.counter("serve.planners.created") << ",\n"
        << "    \"planner_reuses\": "
        << stats.counter("serve.planners.reuses") << ",\n"
        << "    \"plans_compiled\": "
        << stats.counter("serve.plans.compiled") << ",\n"
        << "    \"plan_registry_hits\": "
        << stats.counter("serve.plans.registry_hits") << ",\n"
        << "    \"steps_simulated\": "
        << stats.counter("serve.steps_simulated") << ",\n"
        << "    \"p50_latency_ms\": " << p50_latency_ms << ",\n"
        << "    \"p99_latency_ms\": " << p99_latency_ms << "\n"
        << "  },\n"
        << "  \"eviction_pressure\": {\n"
        << "    \"trace_requests\": " << pressure.size() << ",\n"
        << "    \"distinct_requests\": " << kDistinctEviction << ",\n"
        << "    \"max_answers\": " << kMaxAnswers << ",\n"
        << "    \"max_planners\": " << kMaxPlanners << ",\n"
        << "    \"timing_ms\": " << eviction_ms << ",\n"
        << "    \"answers_cached\": " << answers_cached << ",\n"
        << "    \"answers_cached_peak\": " << answers_peak << ",\n"
        << "    \"answers_evicted\": " << answers_evicted << ",\n"
        << "    \"planners_cached\": " << planners_cached << ",\n"
        << "    \"planners_evicted\": " << planners_evicted << ",\n"
        << "    \"answer_mismatches\": " << eviction_mismatches << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (mismatches > 0) {
        std::cerr << "bench_serve_load: coalesced answers diverge from "
                     "serial\n";
        return 1;
    }
    if (speedup < 1.0) {
        std::cerr << "bench_serve_load: coalesced service slower than "
                     "serial baseline ("
                  << speedup << "x)\n";
        return 1;
    }
    if (!capacity_respected) {
        std::cerr << "bench_serve_load: bounded service exceeded its "
                     "configured cache capacity\n";
        return 1;
    }
    if (!eviction_exercised) {
        std::cerr << "bench_serve_load: eviction trace produced no "
                     "evictions (bound not applied?)\n";
        return 1;
    }
    if (eviction_mismatches > 0) {
        std::cerr << "bench_serve_load: bounded answers diverge from "
                     "the unbounded service\n";
        return 1;
    }
    return 0;
}
