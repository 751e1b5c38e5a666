/**
 * @file
 * Microbenchmarks (google-benchmark) for the GPU simulator itself: how
 * fast the analytical pipeline evaluates, which is what makes the cost
 * model practical for interactive capacity planning.
 */

#include <benchmark/benchmark.h>

#include "core/planner.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/memory_model.hpp"

namespace {

using namespace ftsim;

void
BM_WorkloadBuild(benchmark::State& state)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    RunConfig config;
    config.batchSize = 8;
    config.seqLen = 128;
    for (auto _ : state)
        benchmark::DoNotOptimize(builder.buildStep(config).size());
}
BENCHMARK(BM_WorkloadBuild);

void
BM_ProfileStep(benchmark::State& state)
{
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    RunConfig config;
    config.batchSize = 8;
    config.seqLen = 128;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.profileStep(config).stepSeconds);
}
BENCHMARK(BM_ProfileStep);

void
BM_MaxBatchSize(benchmark::State& state)
{
    ModelSpec spec = ModelSpec::mixtral8x7b();
    GpuSpec gpu = GpuSpec::a40();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            MemoryModel::maxBatchSize(spec, gpu, 148, true));
    }
}
BENCHMARK(BM_MaxBatchSize);

void
BM_ThroughputFit(benchmark::State& state)
{
    const Scenario scenario = Scenario{}
                                  .withModel(ModelSpec::blackMamba2p8b())
                                  .withMedianSeqLen(79)
                                  .withLengthSigma(0.45);
    // A fresh planner per iteration: time the cold fit, not its cache.
    for (auto _ : state) {
        Planner planner(scenario, CloudCatalog());
        benchmark::DoNotOptimize(
            planner.fitThroughput(GpuSpec::a40()).value().rmse);
    }
}
BENCHMARK(BM_ThroughputFit);

void
BM_CostTable(benchmark::State& state)
{
    for (auto _ : state) {
        Planner planner(Scenario::gsMath());
        benchmark::DoNotOptimize(
            planner.costTable(GpuSpec::paperGpus()).value().size());
    }
}
BENCHMARK(BM_CostTable);

}  // namespace

BENCHMARK_MAIN();
