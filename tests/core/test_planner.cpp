/**
 * @file
 * Tests for the Planner facade: Result error paths, memoization
 * semantics (the costTable + report dedup guarantee) and parallel
 * fan-out equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/planner.hpp"

namespace ftsim {
namespace {

GpuSpec
tooSmallGpu()
{
    GpuSpec gpu = GpuSpec::a40();
    gpu.memGB = 24.0;  // Mixtral cannot fit even at batch 1.
    return gpu;
}

TEST(Planner, MaxBatchMatchesMemoryModel)
{
    Planner planner(Scenario::gsMath());
    Result<int> mbs = planner.maxBatch(GpuSpec::a40());
    ASSERT_TRUE(mbs.ok());
    EXPECT_EQ(mbs.value(),
              MemoryModel::maxBatchSize(ModelSpec::mixtral8x7b(),
                                        GpuSpec::a40(), 148, true));
}

TEST(Planner, MemorySucceedsEvenWhenModelDoesNotFit)
{
    Planner planner(Scenario::gsMath());
    Result<MemoryBreakdown> mem = planner.memory(tooSmallGpu());
    ASSERT_TRUE(mem.ok());
    EXPECT_LT(mem.value().maxBatchSize, 1);
}

TEST(Planner, DoesNotFitAtBatchOneIsAnError)
{
    Planner planner(Scenario::gsMath());
    const GpuSpec gpu = tooSmallGpu();
    EXPECT_EQ(planner.maxBatch(gpu).code(), ErrorCode::DoesNotFit);
    EXPECT_EQ(planner.profile(gpu).code(), ErrorCode::DoesNotFit);
    EXPECT_EQ(planner.throughput(gpu).code(), ErrorCode::DoesNotFit);
    EXPECT_EQ(planner.report(gpu).code(), ErrorCode::DoesNotFit);
}

TEST(Planner, UnknownGpuCostIsAnError)
{
    Planner planner(Scenario::gsMath());
    // A100-40GB fits but has no CUDO price.
    Result<CostEstimate> cost = planner.cost(GpuSpec::a100_40());
    ASSERT_FALSE(cost.ok());
    EXPECT_EQ(cost.code(), ErrorCode::UnknownGpu);
}

TEST(Planner, InvalidScenarioFailsEveryQuery)
{
    Planner planner(Scenario{}.withEpochs(0.0));
    EXPECT_EQ(planner.maxBatch(GpuSpec::a40()).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(planner.costTable(GpuSpec::paperGpus()).code(),
              ErrorCode::InvalidArgument);
}

TEST(Planner, ProfileAtRejectsBatchZero)
{
    Planner planner(Scenario::gsMath());
    EXPECT_EQ(planner.profileAt(GpuSpec::a40(), 0).code(),
              ErrorCode::InvalidArgument);
}

TEST(Planner, EmptyGpuListIsEmptySweep)
{
    Planner planner(Scenario::gsMath());
    EXPECT_EQ(planner.costTable({}).code(), ErrorCode::EmptySweep);
    EXPECT_EQ(planner.batchSizeSweep({}, {148}).code(),
              ErrorCode::EmptySweep);
    EXPECT_EQ(planner.batchSizeSweep(GpuSpec::paperGpus(), {}).code(),
              ErrorCode::EmptySweep);
}

TEST(Planner, NoViablePlanWhenNothingFits)
{
    CloudCatalog catalog;
    catalog.add({"X", "A40", 0.79});  // Priced, but 24 GB is too small.
    Planner planner(Scenario::gsMath(), catalog);
    Result<std::vector<CostRow>> rows = planner.costTable({tooSmallGpu()});
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.code(), ErrorCode::NoViablePlan);
}

TEST(Planner, StepProfileIsCachedAcrossQueries)
{
    Planner planner(Scenario::gsMath());
    PlannerStats before = planner.stats();
    EXPECT_EQ(before.stepsSimulated, 0u);

    ASSERT_TRUE(planner.profile(GpuSpec::a40()).ok());
    PlannerStats first = planner.stats();
    EXPECT_EQ(first.stepCacheMisses, 1u);
    EXPECT_EQ(first.stepsSimulated, 1u);

    // Same query again: answered from cache, nothing re-simulated.
    ASSERT_TRUE(planner.profile(GpuSpec::a40()).ok());
    ASSERT_TRUE(planner.throughput(GpuSpec::a40()).ok());
    PlannerStats second = planner.stats();
    EXPECT_EQ(second.stepCacheMisses, 1u);
    EXPECT_EQ(second.stepsSimulated, 1u);
    EXPECT_GE(second.stepCacheHits, first.stepCacheHits + 2);
}

TEST(Planner, CostTablePlusReportPerformsNoDuplicateSimulations)
{
    // The acceptance guarantee: Table IV -> report -> sweep on one
    // Scenario never simulates the same (GPU, config) twice.
    Planner planner(Scenario::gsMath());

    auto rows = planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    PlannerStats after_table = planner.stats();
    // Every simulation so far was a distinct configuration...
    EXPECT_EQ(after_table.stepsSimulated, after_table.stepCacheMisses);

    auto report = planner.report(GpuSpec::a40());
    ASSERT_TRUE(report.ok());
    PlannerStats after_report = planner.stats();
    EXPECT_EQ(after_report.stepsSimulated, after_report.stepCacheMisses);
    // ...and the report found the cost table's max-batch profile in
    // the cache instead of re-simulating it.
    EXPECT_GT(after_report.stepCacheHits, after_table.stepCacheHits);

    // A second full round is answered entirely from the cache.
    ASSERT_TRUE(planner.costTable(GpuSpec::paperGpus()).ok());
    ASSERT_TRUE(planner.report(GpuSpec::a40()).ok());
    ASSERT_TRUE(planner.fitThroughput(GpuSpec::a40()).ok());
    PlannerStats final_stats = planner.stats();
    EXPECT_EQ(final_stats.stepsSimulated, after_report.stepsSimulated);
    EXPECT_EQ(final_stats.stepCacheMisses, after_report.stepCacheMisses);
}

TEST(Planner, ParallelCostTableMatchesSerial)
{
    Planner serial(Scenario::gsMath());
    Planner parallel(Scenario::gsMath());
    parallel.setParallelism(4);

    auto serial_rows = serial.costTable(GpuSpec::paperGpus());
    auto parallel_rows = parallel.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(serial_rows.ok());
    ASSERT_TRUE(parallel_rows.ok());
    ASSERT_EQ(serial_rows.value().size(), parallel_rows.value().size());
    for (std::size_t i = 0; i < serial_rows.value().size(); ++i) {
        const CostRow& s = serial_rows.value()[i];
        const CostRow& p = parallel_rows.value()[i];
        EXPECT_EQ(s.gpuName, p.gpuName);
        EXPECT_EQ(s.maxBatchSize, p.maxBatchSize);
        EXPECT_DOUBLE_EQ(s.throughputQps, p.throughputQps);
        EXPECT_DOUBLE_EQ(s.totalDollars, p.totalDollars);
    }
    // Threading must not defeat the cache either.
    PlannerStats stats = parallel.stats();
    EXPECT_EQ(stats.stepsSimulated, stats.stepCacheMisses);
}

TEST(Planner, ProfileMatchesReferenceSimulatorBitExact)
{
    // The acceptance bar for the compiled-plan rewrite: every simulated
    // second/QPS the planner reports is unchanged from the retained
    // pre-optimization path, to the last bit.
    Planner planner(Scenario::gsMath());
    Result<StepProfile> p = planner.profileAt(GpuSpec::a40(), 4);
    ASSERT_TRUE(p.ok());

    const Scenario sc = Scenario::gsMath();
    FineTuneSim sim(sc.model, GpuSpec::a40(), sc.calibration);
    RunConfig config;
    config.batchSize = 4;
    config.seqLen = sim.paddedSeqLen(sc.medianSeqLen, 4, sc.lengthSigma);
    config.sparse = sc.sparse;
    const StepProfile ref = sim.profileStepReference(config);

    EXPECT_EQ(p.value().forwardSeconds, ref.forwardSeconds);
    EXPECT_EQ(p.value().backwardSeconds, ref.backwardSeconds);
    EXPECT_EQ(p.value().optimizerSeconds, ref.optimizerSeconds);
    EXPECT_EQ(p.value().stepSeconds, ref.stepSeconds);
    EXPECT_EQ(p.value().throughputQps, ref.throughputQps);
}

TEST(Planner, ConcurrentSameConfigSimulatesExactlyOnce)
{
    // Once-semantics of the lock-free step cache: a thundering herd on
    // one (GPU, config) pair performs one simulation; everyone else
    // waits on the shared future and reads the same answer.
    Planner planner(Scenario::gsMath());
    constexpr int kThreads = 16;
    std::vector<StepProfile> profiles(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&planner, &profiles, t] {
            Result<StepProfile> p = planner.profileAt(GpuSpec::a40(), 2);
            ASSERT_TRUE(p.ok());
            profiles[t] = p.value();
        });
    for (auto& thread : pool)
        thread.join();

    PlannerStats stats = planner.stats();
    EXPECT_EQ(stats.stepCacheMisses, 1u);
    EXPECT_EQ(stats.stepsSimulated, 1u);
    EXPECT_EQ(stats.stepCacheHits,
              static_cast<std::uint64_t>(kThreads - 1));
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(profiles[t].stepSeconds, profiles[0].stepSeconds);
        EXPECT_EQ(profiles[t].throughputQps, profiles[0].throughputQps);
    }
}

TEST(Planner, ConcurrentSameGpuStressKeepsCacheInvariants)
{
    // Mixed same-GPU load from many threads: distinct configs simulate
    // exactly once each (stepsSimulated == stepCacheMisses), and the
    // shard no longer serializes whole simulations behind its mutex.
    Planner planner(Scenario::gsMath());
    constexpr int kThreads = 8;
    constexpr int kRounds = 4;
    constexpr std::size_t kDistinctBatches = 5;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&planner, t] {
            for (int r = 0; r < kRounds; ++r) {
                const std::size_t batch =
                    1 + static_cast<std::size_t>(t + r) %
                            kDistinctBatches;
                ASSERT_TRUE(
                    planner.profileAt(GpuSpec::a40(), batch).ok());
                ASSERT_TRUE(planner.throughput(GpuSpec::a40()).ok());
            }
        });
    for (auto& thread : pool)
        thread.join();

    PlannerStats stats = planner.stats();
    EXPECT_EQ(stats.stepsSimulated, stats.stepCacheMisses);
    // At most one miss per distinct configuration: the 5 explicit
    // batches plus the max-batch profile behind throughput().
    EXPECT_LE(stats.stepCacheMisses, kDistinctBatches + 1);
    EXPECT_EQ(stats.stepCacheHits + stats.stepCacheMisses,
              static_cast<std::uint64_t>(kThreads * kRounds * 2));
}

TEST(Planner, ParallelObservationsMatchSerialBitExact)
{
    Planner serial(Scenario::gsMath());
    Planner parallel(Scenario::gsMath());
    parallel.setParallelism(8);
    auto s = serial.throughputObservations(GpuSpec::a40());
    auto p = parallel.throughputObservations(GpuSpec::a40());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    ASSERT_EQ(s.value().size(), p.value().size());
    for (std::size_t i = 0; i < s.value().size(); ++i) {
        EXPECT_EQ(s.value()[i].batchSize, p.value()[i].batchSize);
        EXPECT_EQ(s.value()[i].sparsity, p.value()[i].sparsity);
        EXPECT_EQ(s.value()[i].qps, p.value()[i].qps);
    }
    // The parallel sweep must not defeat the cache either.
    PlannerStats stats = parallel.stats();
    EXPECT_EQ(stats.stepsSimulated, stats.stepCacheMisses);
}

TEST(Planner, CheapestPlanIsH100)
{
    // Table IV headline: H100 wins end-to-end despite the highest rate.
    Planner planner(Scenario::gsMath());
    Result<CostRow> best = planner.cheapestPlan(GpuSpec::paperGpus());
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(best.value().gpuName, "H100");
}

TEST(Planner, FitThroughputIsCached)
{
    Planner planner(Scenario::commonsense15k());
    Result<ThroughputFit> first = planner.fitThroughput(GpuSpec::a40());
    ASSERT_TRUE(first.ok());
    const std::uint64_t sims = planner.stats().stepsSimulated;
    EXPECT_GT(sims, 0u);

    Result<ThroughputFit> second = planner.fitThroughput(GpuSpec::a40());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(planner.stats().stepsSimulated, sims);
    EXPECT_DOUBLE_EQ(first.value().model.c2(), second.value().model.c2());
    EXPECT_DOUBLE_EQ(first.value().model.c4(), second.value().model.c4());
}

TEST(Planner, ResetStatsStartsAFreshWindow)
{
    // Serving stats are per-window deltas: after resetStats() the
    // counters read zero, cached answers stay cached (hits count in
    // the new window, no re-simulation), and new configs count from
    // the reset point.
    Planner planner(Scenario::gsMath());
    ASSERT_TRUE(planner.profile(GpuSpec::a40()).ok());
    ASSERT_TRUE(planner.profileAt(GpuSpec::a40(), 2).ok());
    PlannerStats warmup = planner.stats();
    EXPECT_EQ(warmup.stepCacheMisses, 2u);
    EXPECT_EQ(warmup.stepsSimulated, 2u);

    planner.resetStats();
    PlannerStats zero = planner.stats();
    EXPECT_EQ(zero.stepCacheHits, 0u);
    EXPECT_EQ(zero.stepCacheMisses, 0u);
    EXPECT_EQ(zero.stepsSimulated, 0u);

    ASSERT_TRUE(planner.profile(GpuSpec::a40()).ok());   // Cached.
    ASSERT_TRUE(planner.profileAt(GpuSpec::a40(), 3).ok());  // New.
    PlannerStats window = planner.stats();
    EXPECT_EQ(window.stepCacheHits, 1u);
    EXPECT_EQ(window.stepCacheMisses, 1u);
    EXPECT_EQ(window.stepsSimulated, 1u);
}

TEST(Planner, SharedRegistryKeepsAnswersBitExact)
{
    auto registry = std::make_shared<PlanRegistry>();
    Planner shared_a(Scenario::gsMath(), CloudCatalog::cudoCompute(),
                     registry);
    Planner shared_b(Scenario::commonsense15k(),
                     CloudCatalog::cudoCompute(), registry);
    Planner lone(Scenario::gsMath());

    Result<StepProfile> a = shared_a.profileAt(GpuSpec::a40(), 4);
    Result<StepProfile> reference = lone.profileAt(GpuSpec::a40(), 4);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(a.value().stepSeconds, reference.value().stepSeconds);
    EXPECT_EQ(a.value().throughputQps,
              reference.value().throughputQps);

    // The second planner's builder reuses the registry's plan.
    ASSERT_TRUE(shared_b.profileAt(GpuSpec::a40(), 4).ok());
    EXPECT_EQ(registry->plansCompiled(), 1u);
    EXPECT_GE(registry->planHits(), 1u);
}

TEST(Planner, StepCacheShardEvictionRecomputesIdentically)
{
    // A capacity-1 shard (setStepCacheCapacity) churns on alternating
    // configs: every probe is a miss and a fresh simulation, yet the
    // recomputed profile is bit-identical to the first — the LRU bound
    // trades recomputation for memory, never correctness.
    Planner bounded(Scenario::gsMath());
    bounded.setStepCacheCapacity(1);

    Result<StepProfile> first = bounded.profileAt(GpuSpec::a40(), 1);
    ASSERT_TRUE(first.ok());
    Result<StepProfile> other = bounded.profileAt(GpuSpec::a40(), 2);
    ASSERT_TRUE(other.ok());  // Evicts batch-1's entry.
    Result<StepProfile> again = bounded.profileAt(GpuSpec::a40(), 1);
    ASSERT_TRUE(again.ok());  // Recomputes, evicting batch-2's.

    EXPECT_EQ(again.value().stepSeconds, first.value().stepSeconds);
    EXPECT_EQ(again.value().throughputQps,
              first.value().throughputQps);

    const PlannerStats stats = bounded.stats();
    EXPECT_EQ(stats.stepCacheMisses, 3u);  // No hit survived the churn.
    EXPECT_EQ(stats.stepCacheHits, 0u);
    EXPECT_EQ(stats.stepsSimulated, 3u);
    EXPECT_EQ(stats.stepCacheEvictions, 2u);

    // The unbounded default still memoizes: same probes, one recompute
    // fewer.
    Planner unbounded(Scenario::gsMath());
    ASSERT_TRUE(unbounded.profileAt(GpuSpec::a40(), 1).ok());
    ASSERT_TRUE(unbounded.profileAt(GpuSpec::a40(), 2).ok());
    ASSERT_TRUE(unbounded.profileAt(GpuSpec::a40(), 1).ok());
    EXPECT_EQ(unbounded.stats().stepCacheMisses, 2u);
    EXPECT_EQ(unbounded.stats().stepCacheHits, 1u);
    EXPECT_EQ(unbounded.stats().stepCacheEvictions, 0u);

    // And the bounded planner's answers match the unbounded one's.
    EXPECT_EQ(first.value().stepSeconds,
              unbounded.profileAt(GpuSpec::a40(), 1)
                  .value()
                  .stepSeconds);
}

TEST(Planner, TweakedGpuSpecDoesNotAliasThePreset)
{
    // Cache identity covers the full spec, not just the name: an "A40"
    // with a different capacity must get its own max batch.
    Planner planner(Scenario::gsMath());
    GpuSpec big_a40 = GpuSpec::a40();
    big_a40.memGB = 80.0;
    Result<int> stock = planner.maxBatch(GpuSpec::a40());
    Result<int> big = planner.maxBatch(big_a40);
    ASSERT_TRUE(stock.ok());
    ASSERT_TRUE(big.ok());
    EXPECT_GT(big.value(), stock.value());
}

}  // namespace
}  // namespace ftsim
