#include "gpusim/finetune_sim.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "gpusim/memory_model.hpp"

namespace ftsim {

namespace {

/** Per-aggregate accumulator shared by both profile paths. */
struct NamedAgg {
    double seconds = 0.0;
    double launches = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    double sm_weighted = 0.0;
    double dram_weighted = 0.0;
};

}  // namespace

double
StepProfile::moeFractionOfStep() const
{
    // Fig. 5 is a *layer* breakdown: optimizer-state work is a stage of
    // its own (Fig. 4) and is excluded here.
    double moe = 0.0;
    double total = 0.0;
    for (const auto& layer : byLayer) {
        if (layer.layer == LayerClass::OptimizerState)
            continue;
        total += layer.seconds;
        if (layer.layer == LayerClass::MoE)
            moe += layer.seconds;
    }
    return total > 0.0 ? moe / total : 0.0;
}

FineTuneSim::FineTuneSim(const ModelSpec& model, const GpuSpec& gpu,
                         const SimCalibration& calib,
                         std::shared_ptr<PlanRegistry> registry)
    : model_(model), builder_(model, std::move(registry)),
      exec_(gpu, calib)
{
}

StepProfile
FineTuneSim::profileStep(const RunConfig& config) const
{
    ++steps_simulated_;
    const StepPlan& plan = builder_.stepPlan(config);
    // Reusable per-thread buffers keep the hot path allocation-free.
    static thread_local EvaluatedStep eval;
    plan.evaluate(config.batchSize, config.seqLen, eval);
    return profileFromEval(plan, config, eval.flops.data(),
                           eval.bytes.data(), eval.tiles.data(), 1);
}

StepProfile
FineTuneSim::profileFromEval(const StepPlan& plan, const RunConfig& config,
                             const double* flops, const double* bytes,
                             const double* tiles,
                             std::size_t stride) const
{
    StepProfile profile;
    profile.config = config;

    double layer_seconds[kLayerClassCount] = {};
    static thread_local std::vector<NamedAgg> moe_aggs;
    moe_aggs.assign(plan.moeAggNames.size(), NamedAgg{});

    const std::size_t n = plan.size();
    for (std::size_t i = 0; i < n; ++i) {
        const KernelMetrics m =
            exec_.simulate(plan.kinds[i], flops[i * stride],
                           bytes[i * stride], tiles[i * stride],
                           plan.efficiencies[i], plan.counts[i]);
        switch (plan.stages[i]) {
          case Stage::Forward:
            profile.forwardSeconds += m.seconds;
            break;
          case Stage::Backward:
            profile.backwardSeconds += m.seconds;
            break;
          case Stage::Optimizer:
            profile.optimizerSeconds += m.seconds;
            break;
        }
        layer_seconds[static_cast<std::size_t>(plan.layers[i])] +=
            m.seconds;
        profile.kernelLaunches += plan.counts[i];

        const std::int32_t slot = plan.moeSlot[i];
        if (slot >= 0) {
            NamedAgg& agg = moe_aggs[static_cast<std::size_t>(slot)];
            agg.seconds += m.seconds;
            agg.launches += plan.counts[i];
            agg.flops += flops[i * stride] * plan.counts[i];
            agg.bytes += bytes[i * stride] * plan.counts[i];
            agg.sm_weighted += m.smUtilPct * m.seconds;
            agg.dram_weighted += m.dramUtilPct * m.seconds;
        }
    }

    // Emission order below (layersPresent ascending, MoE slots in
    // lexicographic name order) replicates the reference path's
    // std::map iteration, so the sorted outputs match bit-for-bit.
    for (LayerClass layer : plan.layersPresent)
        profile.byLayer.push_back(
            {layer, layer_seconds[static_cast<std::size_t>(layer)]});
    std::sort(profile.byLayer.begin(), profile.byLayer.end(),
              [](const LayerAggregate& a, const LayerAggregate& b) {
                  return a.seconds > b.seconds;
              });

    double moe_total = 0.0;
    double moe_sm = 0.0;
    double moe_dram = 0.0;
    for (std::size_t slot = 0; slot < moe_aggs.size(); ++slot) {
        const NamedAgg& agg = moe_aggs[slot];
        KernelAggregate ka;
        ka.name = plan.moeAggNames[slot];
        ka.seconds = agg.seconds;
        ka.launches = agg.launches;
        ka.flops = agg.flops;
        ka.bytes = agg.bytes;
        // Clamp: the time-weighted mean of values <= 100 can exceed 100
        // by floating-point round-off.
        ka.smUtilPct = agg.seconds > 0.0
                           ? std::min(agg.sm_weighted / agg.seconds, 100.0)
                           : 0.0;
        ka.dramUtilPct =
            agg.seconds > 0.0
                ? std::min(agg.dram_weighted / agg.seconds, 100.0)
                : 0.0;
        profile.moeKernels.push_back(std::move(ka));
        moe_total += agg.seconds;
        moe_sm += agg.sm_weighted;
        moe_dram += agg.dram_weighted;
    }
    std::sort(profile.moeKernels.begin(), profile.moeKernels.end(),
              [](const KernelAggregate& a, const KernelAggregate& b) {
                  return a.seconds > b.seconds;
              });
    if (moe_total > 0.0) {
        profile.moeTimeWeightedSmPct = moe_sm / moe_total;
        profile.moeTimeWeightedDramPct = moe_dram / moe_total;
    }

    profile.overheadSeconds = exec_.calibration().stepOverheadMs * 1e-3;
    profile.stepSeconds = profile.forwardSeconds +
                          profile.backwardSeconds +
                          profile.optimizerSeconds +
                          profile.overheadSeconds;
    profile.throughputQps =
        static_cast<double>(config.batchSize) / profile.stepSeconds;
    return profile;
}

StepProfile
FineTuneSim::profileStepReference(const RunConfig& config) const
{
    ++steps_simulated_;
    StepProfile profile;
    profile.config = config;

    std::map<LayerClass, double> layer_seconds;
    std::map<std::string, NamedAgg> moe_aggs;

    for (const KernelDesc& kd : builder_.buildStep(config)) {
        const KernelMetrics m = exec_.simulate(kd);
        switch (kd.stage) {
          case Stage::Forward:
            profile.forwardSeconds += m.seconds;
            break;
          case Stage::Backward:
            profile.backwardSeconds += m.seconds;
            break;
          case Stage::Optimizer:
            profile.optimizerSeconds += m.seconds;
            break;
        }
        layer_seconds[kd.layer] += m.seconds;
        profile.kernelLaunches += kd.count;

        if (kd.layer == LayerClass::MoE) {
            NamedAgg& agg = moe_aggs[normalizeKernelName(kd.name)];
            agg.seconds += m.seconds;
            agg.launches += kd.count;
            agg.flops += kd.flops * kd.count;
            agg.bytes += kd.bytes * kd.count;
            agg.sm_weighted += m.smUtilPct * m.seconds;
            agg.dram_weighted += m.dramUtilPct * m.seconds;
        }
    }

    for (const auto& [layer, seconds] : layer_seconds)
        profile.byLayer.push_back({layer, seconds});
    std::sort(profile.byLayer.begin(), profile.byLayer.end(),
              [](const LayerAggregate& a, const LayerAggregate& b) {
                  return a.seconds > b.seconds;
              });

    double moe_total = 0.0;
    double moe_sm = 0.0;
    double moe_dram = 0.0;
    for (const auto& [name, agg] : moe_aggs) {
        KernelAggregate ka;
        ka.name = name;
        ka.seconds = agg.seconds;
        ka.launches = agg.launches;
        ka.flops = agg.flops;
        ka.bytes = agg.bytes;
        // Clamp: the time-weighted mean of values <= 100 can exceed 100
        // by floating-point round-off.
        ka.smUtilPct = agg.seconds > 0.0
                           ? std::min(agg.sm_weighted / agg.seconds, 100.0)
                           : 0.0;
        ka.dramUtilPct =
            agg.seconds > 0.0
                ? std::min(agg.dram_weighted / agg.seconds, 100.0)
                : 0.0;
        profile.moeKernels.push_back(std::move(ka));
        moe_total += agg.seconds;
        moe_sm += agg.sm_weighted;
        moe_dram += agg.dram_weighted;
    }
    std::sort(profile.moeKernels.begin(), profile.moeKernels.end(),
              [](const KernelAggregate& a, const KernelAggregate& b) {
                  return a.seconds > b.seconds;
              });
    if (moe_total > 0.0) {
        profile.moeTimeWeightedSmPct = moe_sm / moe_total;
        profile.moeTimeWeightedDramPct = moe_dram / moe_total;
    }

    profile.overheadSeconds = exec_.calibration().stepOverheadMs * 1e-3;
    profile.stepSeconds = profile.forwardSeconds +
                          profile.backwardSeconds +
                          profile.optimizerSeconds +
                          profile.overheadSeconds;
    profile.throughputQps =
        static_cast<double>(config.batchSize) / profile.stepSeconds;
    return profile;
}

std::vector<StepProfile>
FineTuneSim::profileSweep(const std::vector<RunConfig>& configs) const
{
    std::vector<StepProfile> out;
    out.reserve(configs.size());
    static thread_local SweepBuffers buf;
    std::vector<std::size_t> batches;
    std::vector<std::size_t> seqs;

    // Group consecutive configs that compile to the same plan (the
    // plan cache keys on shape only, so a whole 1..max run shares one
    // plan) and evaluate each group in a single vectorized pass.
    std::size_t lo = 0;
    while (lo < configs.size()) {
        const StepPlan& plan = builder_.stepPlan(configs[lo]);
        std::size_t hi = lo + 1;
        while (hi < configs.size() &&
               &builder_.stepPlan(configs[hi]) == &plan)
            ++hi;
        const std::size_t np = hi - lo;
        batches.resize(np);
        seqs.resize(np);
        for (std::size_t j = 0; j < np; ++j) {
            batches[j] = configs[lo + j].batchSize;
            seqs[j] = configs[lo + j].seqLen;
        }
        plan.evaluateSweep(batches.data(), seqs.data(), np, buf);
        for (std::size_t j = 0; j < np; ++j) {
            ++steps_simulated_;
            out.push_back(profileFromEval(
                plan, configs[lo + j], buf.flops.data() + j,
                buf.bytes.data() + j, buf.tiles.data() + j, np));
        }
        lo = hi;
    }
    return out;
}

double
FineTuneSim::stepSeconds(const RunConfig& config) const
{
    ++steps_simulated_;
    const StepPlan& plan = builder_.stepPlan(config);
    static thread_local EvaluatedStep eval;
    plan.evaluate(config.batchSize, config.seqLen, eval);
    double total = exec_.calibration().stepOverheadMs * 1e-3;
    const std::size_t n = plan.size();
    for (std::size_t i = 0; i < n; ++i)
        total += exec_
                     .simulate(plan.kinds[i], eval.flops[i],
                               eval.bytes[i], eval.tiles[i],
                               plan.efficiencies[i], plan.counts[i])
                     .seconds;
    return total;
}

double
FineTuneSim::stepSecondsReference(const RunConfig& config) const
{
    ++steps_simulated_;
    double total = exec_.calibration().stepOverheadMs * 1e-3;
    for (const KernelDesc& kd : builder_.buildStep(config))
        total += exec_.simulate(kd).seconds;
    return total;
}

std::size_t
FineTuneSim::paddedSeqLen(std::size_t seq_len, std::size_t batch,
                          double length_sigma) const
{
    const double factor = expectedBatchMaxFactor(batch, length_sigma);
    return static_cast<std::size_t>(
        std::lround(static_cast<double>(seq_len) * factor));
}

std::vector<RunConfig>
FineTuneSim::sweepConfigs(std::size_t median_seq_len,
                          double length_sigma) const
{
    std::vector<RunConfig> configs;
    for (bool sparse : {false, true}) {
        const int max_batch = MemoryModel::maxBatchSize(
            model_, exec_.gpu(), median_seq_len, sparse);
        for (int b = 1; b <= max_batch; ++b) {
            RunConfig config;
            config.batchSize = static_cast<std::size_t>(b);
            config.seqLen = paddedSeqLen(median_seq_len,
                                         static_cast<std::size_t>(b),
                                         length_sigma);
            config.sparse = sparse;
            configs.push_back(config);
        }
    }
    return configs;
}

double
FineTuneSim::throughput(std::size_t batch, std::size_t seq_len,
                        bool sparse, double length_sigma) const
{
    RunConfig config;
    config.batchSize = batch;
    config.seqLen = paddedSeqLen(seq_len, batch, length_sigma);
    config.sparse = sparse;
    return static_cast<double>(batch) / stepSeconds(config);
}

Result<std::vector<ThroughputPoint>>
FineTuneSim::throughputSweep(std::size_t seq_len, bool sparse,
                             std::size_t max_batch,
                             double length_sigma) const
{
    if (max_batch == 0)
        return Error{ErrorCode::InvalidArgument,
                     "FineTuneSim::throughputSweep: zero max batch"};
    // One vectorized pass over the compiled plan, bit-identical to a
    // per-batch stepSeconds loop (evaluateSweep +
    // accumulateSweepSeconds both preserve the scalar evaluation
    // order).

    RunConfig shape;
    shape.sparse = sparse;
    const StepPlan& plan = builder_.stepPlan(shape);

    std::vector<std::size_t> batches(max_batch);
    std::vector<std::size_t> seqs(max_batch);
    for (std::size_t i = 0; i < max_batch; ++i) {
        batches[i] = i + 1;
        seqs[i] = paddedSeqLen(seq_len, i + 1, length_sigma);
    }
    static thread_local SweepBuffers buf;
    plan.evaluateSweep(batches.data(), seqs.data(), max_batch, buf);

    std::vector<double> totals(
        max_batch, exec_.calibration().stepOverheadMs * 1e-3);
    exec_.accumulateSweepSeconds(
        plan.kinds.data(), plan.efficiencies.data(), plan.counts.data(),
        plan.size(), buf.flops.data(), buf.bytes.data(),
        buf.tiles.data(), max_batch, totals.data());
    steps_simulated_ += max_batch;

    std::vector<ThroughputPoint> points(max_batch);
    for (std::size_t i = 0; i < max_batch; ++i) {
        points[i].batchSize = i + 1;
        points[i].stepSeconds = totals[i];
        points[i].qps = static_cast<double>(i + 1) / totals[i];
    }
    return points;
}

}  // namespace ftsim
