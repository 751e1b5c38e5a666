/**
 * @file
 * Performance-tracking harness for the planner hot path.
 *
 * Unlike the figure/table benches (which reproduce paper artifacts),
 * this binary times the *implementation*: cold and warm `costTable`,
 * `cheapestPlan`, and a full-catalog throughput sweep — plus the same
 * sweep through the retained pre-optimization reference path
 * (`oracle::profileStep`, which rebuilds the KernelDesc workload per
 * query exactly as the code before the compiled-plan PR did). Results
 * are written to BENCH_planner.json so CI can track the repo's perf
 * trajectory over time (no thresholds yet — trajectory only).
 *
 * Reading the speedups: cold-vs-reference isolates the compiled-plan
 * rewrite alone; warm-vs-reference additionally includes the planner's
 * step-memoization layer (PR 1) and is the steady serving state.
 *
 * Usage: bench_perf_planner [output.json]   (default: BENCH_planner.json)
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/planner.hpp"
#include "oracle/reference.hpp"

using namespace ftsim;

namespace {

using bench::nowMs;

/**
 * Best-of-@p reps wall time of @p inner consecutive runs of @p body,
 * in milliseconds per run. The inner loop amortizes clock granularity
 * (a full-catalog sweep is sub-millisecond once compiled).
 */
template <typename F>
double
bestOfMs(int reps, int inner, F&& body)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double start = nowMs();
        for (int i = 0; i < inner; ++i)
            body();
        const double elapsed = (nowMs() - start) / inner;
        if (r == 0 || elapsed < best)
            best = elapsed;
    }
    return best;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_planner.json";
    // Keep timing output clean of does-not-fit sweep warnings.
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_perf_planner",
                  "Planner hot-path timings (compiled plans + lock-free "
                  "memoization)");

    const Scenario scenario = Scenario::gsMath();
    const std::vector<GpuSpec> gpus = GpuSpec::paperGpus();
    const unsigned threads = hardwareThreads();

    // --- Reference: the pre-compiled-plan implementation. ------------
    // One fresh simulator per GPU, every step profiled through the
    // retained reference path (per-query workload rebuild, no caching)
    // — the exact work the planner performed before this optimization.
    std::size_t sweep_points = 0;
    const double reference_sweep_ms = bestOfMs(3, 20, [&] {
        sweep_points = 0;
        for (const GpuSpec& gpu : gpus) {
            FineTuneSim sim(scenario.model, gpu, scenario.calibration);
            // sweepConfigs is the same grid throughputObservations
            // simulates, so reference and planner time equal workloads.
            for (const RunConfig& config : sim.sweepConfigs(
                     scenario.medianSeqLen, scenario.lengthSigma)) {
                oracle::profileStep(sim, config);
                ++sweep_points;
            }
        }
    });

    // --- Compiled-plan path, serial, cache cold. ----------------------
    const double cold_sweep_serial_ms = bestOfMs(3, 20, [&] {
        Planner planner(scenario);
        for (const GpuSpec& gpu : gpus)
            planner.throughputObservations(gpu);
    });

    // --- Warm sweep: planner cache populated. -------------------------
    Planner warm(scenario);
    warm.setParallelism(threads);
    for (const GpuSpec& gpu : gpus)
        warm.throughputObservations(gpu);
    const double warm_sweep_ms = bestOfMs(5, 200, [&] {
        for (const GpuSpec& gpu : gpus)
            warm.throughputObservations(gpu);
    });

    // --- Cost table / cheapest plan. ----------------------------------
    const double cold_cost_table_ms = bestOfMs(3, 20, [&] {
        Planner planner(scenario);
        planner.setParallelism(threads);
        planner.costTable(gpus);
    });
    const double warm_cost_table_ms =
        bestOfMs(5, 200, [&] { warm.costTable(gpus); });
    const double warm_cheapest_plan_ms =
        bestOfMs(5, 200, [&] { warm.cheapestPlan(gpus); });

    const PlannerStats stats = warm.stats();

    const double warm_speedup =
        warm_sweep_ms > 0.0 ? reference_sweep_ms / warm_sweep_ms : 0.0;
    const double cold_serial_speedup =
        cold_sweep_serial_ms > 0.0
            ? reference_sweep_ms / cold_sweep_serial_ms
            : 0.0;

    bench::section("Full-catalog throughput sweep (" +
                   std::to_string(sweep_points) + " configs, " +
                   std::to_string(gpus.size()) + " GPUs)");
    std::cout << "reference (pre-PR per-query rebuild): "
              << reference_sweep_ms << " ms\n"
              << "cold, compiled plans, serial:         "
              << cold_sweep_serial_ms << " ms  (" << cold_serial_speedup
              << "x)\n"
              << "warm (memoized):                      " << warm_sweep_ms
              << " ms  (" << warm_speedup << "x)\n";
    bench::note("cold ratios isolate the compiled-plan rewrite; the "
                "warm ratio also includes the PR-1 step cache");

    bench::section("Cost table / cheapest plan");
    std::cout << "costTable cold: " << cold_cost_table_ms
              << " ms, warm: " << warm_cost_table_ms
              << " ms; cheapestPlan warm: " << warm_cheapest_plan_ms
              << " ms\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_perf_planner\",\n"
        << "  \"scenario\": \"gsMath (Mixtral-8x7B, median 148)\",\n"
        << "  \"gpu_count\": " << gpus.size() << ",\n"
        << "  \"sweep_configs\": " << sweep_points << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"timings_ms\": {\n"
        << "    \"reference_sweep\": " << reference_sweep_ms << ",\n"
        << "    \"cold_sweep_serial\": " << cold_sweep_serial_ms << ",\n"
        << "    \"warm_sweep\": " << warm_sweep_ms << ",\n"
        << "    \"cold_cost_table\": " << cold_cost_table_ms << ",\n"
        << "    \"warm_cost_table\": " << warm_cost_table_ms << ",\n"
        << "    \"warm_cheapest_plan\": " << warm_cheapest_plan_ms
        << "\n"
        << "  },\n"
        << "  \"speedups_vs_reference\": {\n"
        << "    \"warm_sweep\": " << warm_speedup << ",\n"
        << "    \"cold_sweep_serial\": " << cold_serial_speedup << "\n"
        << "  },\n"
        << "  \"planner_stats\": {\n"
        << "    \"step_cache_hits\": " << stats.stepCacheHits << ",\n"
        << "    \"step_cache_misses\": " << stats.stepCacheMisses << ",\n"
        << "    \"steps_simulated\": " << stats.stepsSimulated << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);
    return 0;
}
