/**
 * @file
 * Example: a capacity/cost planner as a *client of the plan service* —
 * the practitioner tool the paper's §V motivates, reworked as the
 * reference `PlanService` client. Instead of looping single `Planner`
 * calls, it batches every question (per-GPU probes, the cost table,
 * what-if budget variants) as `PlanRequest`s, submits them all up
 * front, and lets the service coalesce duplicates, share planners
 * across the what-ifs, and answer concurrently.
 *
 * Run: ./build/examples/capacity_planner [num_queries] [median_seq] [epochs]
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

int
main(int argc, char** argv)
{
    Scenario scenario = Scenario::gsMath().withNumQueries(
        argc > 1 ? std::strtod(argv[1], nullptr) : 50000.0);
    if (argc > 2)
        scenario.withMedianSeqLen(std::strtoul(argv[2], nullptr, 10));
    else
        scenario.withMedianSeqLen(200);
    if (argc > 3)
        scenario.withEpochs(std::strtod(argv[3], nullptr));

    std::cout << "planning: fine-tune " << scenario.describe() << '\n';

    PlanService service;  // Hardware workers, CUDO prices.

    // Build the whole question batch first: one max-batch and one
    // throughput probe per GPU, the Table IV cost table, and the
    // cheapest plan for three what-if dataset sizes (which all share
    // planners and step caches inside the service).
    const std::vector<GpuSpec> gpus = GpuSpec::paperGpus();
    std::vector<PlanRequest> batch;
    for (const GpuSpec& gpu : gpus) {
        PlanRequest probe;
        probe.query = QueryKind::MaxBatch;
        probe.gpu = gpu.name;
        probe.scenario = scenario;
        probe.id = "maxbatch/" + gpu.name;
        batch.push_back(probe);
        probe.query = QueryKind::Throughput;
        probe.id = "throughput/" + gpu.name;
        batch.push_back(probe);
    }
    PlanRequest table;
    table.query = QueryKind::CostTable;
    table.scenario = scenario;
    table.id = "cost_table";
    batch.push_back(table);
    const std::vector<double> what_if_queries = {
        scenario.numQueries, 4.0 * scenario.numQueries,
        Scenario::openOrca().numQueries};
    for (double queries : what_if_queries) {
        PlanRequest cheapest;
        cheapest.query = QueryKind::CheapestPlan;
        cheapest.scenario = scenario;
        cheapest.scenario.withNumQueries(queries);
        cheapest.id = strCat("cheapest/", queries);
        batch.push_back(cheapest);
    }

    // Submit everything, then collect: the service answers out of
    // order and dedups; futures hand each answer back exactly once.
    std::vector<std::shared_future<PlanResponse>> futures;
    for (const PlanRequest& request : batch)
        futures.push_back(service.submit(request));
    std::vector<PlanResponse> answers;
    for (auto& future : futures)
        answers.push_back(future.get());

    // Per-GPU probe table (slots 0..2*gpus-1, interleaved).
    Table probe_table({"GPU", "max bsz", "q/s @ max bsz"});
    for (std::size_t i = 0; i < gpus.size(); ++i) {
        const PlanResponse& mbs = answers[2 * i];
        const PlanResponse& qps = answers[2 * i + 1];
        probe_table.addRow(
            {gpus[i].name,
             mbs.ok ? Table::fmt(static_cast<long long>(mbs.value))
                    : mbs.errorCode,
             qps.ok ? Table::fmt(qps.value, 2) : qps.errorCode});
    }
    std::cout << '\n' << probe_table.render();

    // The Table IV comparison for the requested budget.
    const PlanResponse& cost_table = answers[2 * gpus.size()];
    if (cost_table.ok) {
        Table rows({"GPU", "max bsz", "q/s", "$/hr", "total $"});
        for (const CostRow& row : cost_table.rows)
            rows.addRow({row.gpuName,
                         Table::fmt(static_cast<long long>(
                             row.maxBatchSize)),
                         Table::fmt(row.throughputQps, 2),
                         Table::fmt(row.dollarsPerHour, 2),
                         Table::fmt(row.totalDollars, 1)});
        std::cout << '\n' << rows.render();
    } else {
        std::cout << "\ncost table failed: " << cost_table.errorCode
                  << ": " << cost_table.errorMessage << '\n';
    }

    // What-if growth: where does the recommendation move as the
    // dataset scales? (All three share one throughput sweep cache.)
    std::cout << '\n';
    for (std::size_t i = 0; i < what_if_queries.size(); ++i) {
        const PlanResponse& best =
            answers[2 * gpus.size() + 1 + i];
        if (best.ok && !best.rows.empty())
            std::cout << "at " << what_if_queries[i]
                      << " queries: rent " << best.rows[0].gpuName
                      << " (~$" << Table::fmt(best.rows[0].totalDollars, 0)
                      << " end-to-end)\n";
        else
            std::cout << "at " << what_if_queries[i]
                      << " queries: no viable plan ("
                      << best.errorCode << ")\n";
    }

    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    std::cout << "\nservice: " << stats.counter("serve.requests")
              << " requests, " << stats.counter("serve.coalesced")
              << " coalesced, " << stats.counter("serve.planners.created")
              << " planners (" << stats.counter("serve.planners.reuses")
              << " reuses), " << stats.counter("serve.steps_simulated")
              << " steps simulated, p99 "
              << Table::fmt(stats.find("serve.latency_ms.p99")->value, 1)
              << " ms\n";
    // An unplannable scenario (e.g. num_queries 0) is a failed run,
    // same contract as the pre-service version of this example.
    return cost_table.ok ? 0 : 1;
}
