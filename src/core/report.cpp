#include <sstream>

#include "common/table.hpp"
#include "core/planner.hpp"

namespace ftsim {

Result<std::string>
Planner::report(const GpuSpec& gpu) const
{
    Result<MemoryBreakdown> mem_r = memory(gpu);
    if (!mem_r)
        return mem_r.error();
    Result<int> mbs = maxBatch(gpu);
    if (!mbs)
        return mbs.error();
    Result<StepProfile> profile_r = profile(gpu);
    if (!profile_r)
        return profile_r.error();
    Result<ThroughputFit> fit_r = fitThroughput(gpu);
    if (!fit_r)
        return fit_r.error();
    Result<double> qps_r = throughput(gpu);
    if (!qps_r)
        return qps_r.error();

    const MemoryBreakdown& mem = mem_r.value();
    const StepProfile& profile = profile_r.value();
    const ThroughputFit& fit = fit_r.value();
    const double qps = qps_r.value();
    const ModelSpec& model = scenario_.model;

    std::ostringstream out;
    out << "# Fine-tuning characterization: " << model.name << " on "
        << gpu.name << "\n\n";
    out << "- mode: "
        << (scenario_.sparse ? "sparse (top-" : "dense (top-")
        << model.activeExperts(scenario_.sparse) << " of "
        << model.nExperts << " experts)\n";
    out << "- dataset: " << scenario_.numQueries << " queries, median "
        << scenario_.medianSeqLen << " tokens (sigma "
        << scenario_.lengthSigma << "), " << scenario_.epochs
        << " epochs\n\n";

    out << "## Memory (Eq. 1 territory)\n\n";
    Table mem_table({"Component", "GB"});
    mem_table.addRow({"weights", Table::fmt(mem.weightBytes / 1e9, 2)});
    mem_table.addRow(
        {"optimizer state", Table::fmt(mem.optimizerBytes / 1e9, 2)});
    mem_table.addRow(
        {"gradients", Table::fmt(mem.gradientBytes / 1e9, 2)});
    mem_table.addRow(
        {"framework reserved", Table::fmt(mem.reservedBytes / 1e9, 2)});
    mem_table.addRow(
        {"usable for activations", Table::fmt(mem.usableBytes / 1e9, 2)});
    mem_table.addRow(
        {"per-query activations", Table::fmt(mem.perQueryBytes / 1e9, 2)});
    out << mem_table.render();
    out << "\nmaximum batch size: " << mem.maxBatchSize << "\n\n";

    out << "## Step breakdown at max batch\n\n";
    out << "step latency " << Table::fmt(profile.stepSeconds, 3)
        << " s; forward " << Table::fmt(profile.forwardSeconds, 3)
        << " s, backward " << Table::fmt(profile.backwardSeconds, 3)
        << " s, optimizer " << Table::fmt(profile.optimizerSeconds, 3)
        << " s; MoE share of layer time "
        << Table::fmt(100.0 * profile.moeFractionOfStep(), 1) << " %\n\n";

    out << "top MoE kernels:\n\n";
    Table kernels({"kernel", "us", "SM %", "DRAM %"});
    std::size_t shown = 0;
    for (const KernelAggregate& k : profile.moeKernels) {
        if (shown++ == 5)
            break;
        kernels.addRow({k.name, Table::fmt(k.seconds * 1e6, 0),
                        Table::fmt(k.smUtilPct, 1),
                        Table::fmt(k.dramUtilPct, 1)});
    }
    out << kernels.render();

    out << "\n## Throughput (Eq. 2)\n\n";
    out << "fitted: qps(b, s) = " << Table::fmt(fit.model.c2(), 3)
        << " * (ln b - " << Table::fmt(fit.model.c3(), 3)
        << " * ln s) + " << Table::fmt(fit.model.c4(), 3) << "   (RMSE "
        << Table::fmt(fit.rmse, 3) << ")\n";
    out << "simulated at max batch: " << Table::fmt(qps, 2)
        << " queries/s\n\n";

    out << "## Cost\n\n";
    Result<CostEstimate> cost_r = cost(gpu);
    if (cost_r) {
        const CostEstimate& cost = cost_r.value();
        out << "at $" << Table::fmt(cost.dollarsPerHour, 2) << "/hr: "
            << Table::fmt(cost.gpuHours, 1) << " GPU-hours = **$"
            << Table::fmt(cost.totalDollars, 2) << "**\n";
    } else if (cost_r.code() == ErrorCode::UnknownGpu) {
        out << "no price listed for " << gpu.name
            << " in the catalog; add a CloudOffering to cost it.\n";
    } else {
        return cost_r.error();
    }
    return out.str();
}

}  // namespace ftsim
