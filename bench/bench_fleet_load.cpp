/**
 * @file
 * Sharded-fleet soak bench: router + 2 shard workers vs. one service.
 *
 * 32 client connections pipeline a duplicate-heavy trace against a
 * `RouterServer` fronting two in-process `NetServer` shards, then the
 * bench verifies the ISSUE-6 acceptance bar:
 *
 *  - every wire response through the router is **byte-identical** to
 *    what one in-process `PlanService` answers for the same request
 *    (sharding adds topology, never semantics);
 *  - the *fleet's* `stepsSimulated` (summed over shards) equals the
 *    number of distinct step configurations in the trace — consistent
 *    hashing pins duplicates to one shard, so the thundering-herd
 *    guarantee survives sharding;
 *  - a fresh shard warm-started from the busy shards' `PlanRegistry`
 *    snapshots replays the whole template set while compiling **zero**
 *    plans;
 *  - and it emits BENCH_fleet.json for the CI trend line and the
 *    bench_check.py exact-counter gate.
 *
 * Exits non-zero on any divergence, so ci.sh gets the gate for free.
 *
 * Usage: bench_fleet_load [output.json]  (default: BENCH_fleet.json)
 */

#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "gpusim/registry_snapshot.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "router/router.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_fleet.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_fleet_load",
                  "consistent-hash router + 2 shards vs. one "
                  "in-process PlanService");

    // ---- Templates: 3 scenarios x 3 GPUs, throughput + max_batch. ---
    // 9 distinct step configurations; every throughput identity lands
    // on exactly one shard, so the fleet total is 9 however the ring
    // splits them (max_batch is memory arithmetic, zero steps).
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
        PlanRequest max_batch;
        max_batch.query = QueryKind::MaxBatch;
        max_batch.gpu = "A40";
        max_batch.scenario = scenario;
        templates.push_back(max_batch);
    }
    const std::size_t kDistinctStepConfigs =
        scenarios.size() * gpu_names.size();

    // ---- The trace: 32 connections x 8 pipelined probes. ------------
    constexpr std::size_t kConnections = 32;
    constexpr std::size_t kPerConnection = 8;
    std::mt19937 rng(7);  // Deterministic trace across runs.
    std::vector<std::vector<std::size_t>> picks(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c)
        for (std::size_t q = 0; q < kPerConnection; ++q)
            picks[c].push_back(std::uniform_int_distribution<
                               std::size_t>(0, templates.size() - 1)(
                rng));

    // ---- Expected answers: one in-process service, no fleet. --------
    PlanService reference;
    std::vector<PlanResponse> template_answers;
    for (const PlanRequest& request : templates)
        template_answers.push_back(reference.ask(request));
    const std::uint64_t reference_steps =
        reference.statsRegistry()->snapshot().counter("serve.steps_simulated");
    if (reference_steps != kDistinctStepConfigs)
        fatal(strCat("bench_fleet_load: reference simulated ",
                     reference_steps,
                     " steps, expected ", kDistinctStepConfigs));
    auto expectedLine = [&](std::size_t template_index,
                            const std::string& id) {
        PlanResponse response = template_answers[template_index];
        response.id = id;
        return writePlanResponse(response);
    };

    // ---- The fleet under test: 2 shards behind a router. ------------
    // Fixed ring names so the shard split does not depend on the
    // kernel's ephemeral port picks.
    NetServer shard0;
    NetServer shard1;
    for (NetServer* shard : {&shard0, &shard1}) {
        Result<bool> up = shard->start();
        if (!up)
            fatal("bench_fleet_load: " + up.error().message);
    }
    RouterConfig router_config;
    ShardEndpoint end0;
    end0.port = shard0.port();
    end0.name = "shard-0";
    ShardEndpoint end1;
    end1.port = shard1.port();
    end1.name = "shard-1";
    router_config.shards = {end0, end1};
    RouterServer router(router_config);
    Result<bool> routed = router.start();
    if (!routed)
        fatal("bench_fleet_load: " + routed.error().message);
    const std::uint16_t port = router.port();

    bench::section("Trace");
    std::cout << kConnections << " connections x " << kPerConnection
              << " pipelined requests through the router ("
              << templates.size() << " templates, "
              << kDistinctStepConfigs << " distinct step configs, 2 "
              << "shards)\n";

    std::vector<std::size_t> mismatches_per_conn(kConnections, 0);
    // char, not bool: vector<bool> is bit-packed, so concurrent
    // writes to distinct slots would race on shared bytes.
    std::vector<char> conn_failed(kConnections, 0);
    const double start_ms = bench::nowMs();
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kConnections; ++c)
            clients.emplace_back([&, c] {
                Result<NetClient> connected =
                    NetClient::connectTo("127.0.0.1", port);
                if (!connected) {
                    conn_failed[c] = 1;
                    return;
                }
                NetClient client = std::move(connected.value());
                for (std::size_t q = 0; q < kPerConnection; ++q) {
                    PlanRequest request = templates[picks[c][q]];
                    request.id = strCat("c", c, "-q", q);
                    if (!client.sendLine(writePlanRequest(request))) {
                        conn_failed[c] = 1;
                        return;
                    }
                }
                for (std::size_t q = 0; q < kPerConnection; ++q) {
                    Result<std::string> line = client.recvLine();
                    if (!line) {
                        conn_failed[c] = 1;
                        return;
                    }
                    const std::string expected = expectedLine(
                        picks[c][q], strCat("c", c, "-q", q));
                    if (line.value() != expected)
                        ++mismatches_per_conn[c];
                }
            });
        for (std::thread& thread : clients)
            thread.join();
    }
    const double wall_ms = bench::nowMs() - start_ms;

    std::size_t mismatches = 0;
    std::size_t failed_connections = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
        mismatches += mismatches_per_conn[c];
        failed_connections += conn_failed[c] ? 1 : 0;
    }

    const StatsSnapshot stats0 = shard0.statsRegistry()->snapshot();
    const StatsSnapshot stats1 = shard1.statsRegistry()->snapshot();
    auto fleet_sum = [&](const char* cell) {
        return stats0.counter(cell) + stats1.counter(cell);
    };
    const std::uint64_t fleet_steps = fleet_sum("serve.steps_simulated");
    const std::uint64_t fleet_executed = fleet_sum("serve.executed");
    const std::uint64_t fleet_coalesced = fleet_sum("serve.coalesced");
    const StatsSnapshot router_stats = router.statsRegistry()->snapshot();
    const std::uint64_t shard_failures =
        router_stats.counter("router.shard_failures");

    // ---- Warm start: a fresh shard from the busy shards' plans. -----
    // Union of both snapshots covers every model shape in the trace,
    // so the replay below must compile nothing.
    bench::section("Warm start");
    const std::string snap0 =
        saveRegistrySnapshot(*shard0.service().planRegistry());
    const std::string snap1 =
        saveRegistrySnapshot(*shard1.service().planRegistry());
    NetServer fresh;
    std::uint64_t warm_loaded = 0;
    for (const std::string* snap : {&snap0, &snap1}) {
        Result<SnapshotLoadInfo> info = loadRegistrySnapshot(
            *fresh.service().planRegistry(), *snap);
        if (!info)
            fatal("bench_fleet_load: snapshot load failed: " +
                  info.error().message);
        warm_loaded += info.value().plansLoaded;
    }
    Result<bool> fresh_up = fresh.start();
    if (!fresh_up)
        fatal("bench_fleet_load: " + fresh_up.error().message);
    const double warm_start_ms = bench::nowMs();
    std::size_t warm_mismatches = 0;
    {
        Result<NetClient> connected =
            NetClient::connectTo("127.0.0.1", fresh.port());
        if (!connected)
            fatal("bench_fleet_load: " + connected.error().message);
        NetClient client = std::move(connected.value());
        for (std::size_t t = 0; t < templates.size(); ++t) {
            PlanRequest request = templates[t];
            request.id = strCat("w", t);
            Result<std::string> line =
                client.ask(writePlanRequest(request));
            if (!line)
                fatal("bench_fleet_load: " + line.error().message);
            if (line.value() != expectedLine(t, strCat("w", t)))
                ++warm_mismatches;
        }
    }
    const double warm_ms = bench::nowMs() - warm_start_ms;
    const std::uint64_t warm_compiled =
        fresh.service().planRegistry()->plansCompiled();
    std::cout << "snapshots: " << snap0.size() + snap1.size()
              << " bytes, " << warm_loaded << " plans loaded; replay "
              << "of " << templates.size() << " templates compiled "
              << warm_compiled << " plans in " << warm_ms << " ms\n";

    shard0.stop();
    shard1.stop();
    fresh.stop();
    router.stop();

    const std::size_t total_requests = kConnections * kPerConnection;
    const double requests_per_sec =
        wall_ms > 0.0 ? total_requests / (wall_ms / 1000.0) : 0.0;

    bench::section("Results");
    std::cout << total_requests << " requests over " << wall_ms
              << " ms = " << requests_per_sec << " req/s through the "
              << "router\n"
              << "fleet steps_simulated=" << fleet_steps
              << " (distinct step configs " << kDistinctStepConfigs
              << "), executed=" << fleet_executed
              << ", coalesced=" << fleet_coalesced << '\n'
              << "router: forwarded="
              << router_stats.counter("router.forwarded")
              << " responses=" << router_stats.counter("router.responses")
              << " shard failures=" << shard_failures
              << "; per-shard routed:";
    for (const ShardEndpoint& shard : router_config.shards)
        std::cout << ' ' << shard.name << '='
                  << router_stats.counter(
                         strCat("router.shard.", shard.name, ".routed"));
    std::cout << '\n'
              << "byte mismatches vs in-process: " << mismatches
              << " (warm replay: " << warm_mismatches
              << "), failed connections: " << failed_connections
              << '\n';
    bench::note("gate: fleet answers byte-identical, fleet steps == "
                "distinct configs, warm-started shard compiles 0 "
                "plans");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_fleet_load\",\n"
        << "  \"shards\": 2,\n"
        << "  \"connections\": " << kConnections << ",\n"
        << "  \"requests\": " << total_requests << ",\n"
        << "  \"distinct_step_configs\": " << kDistinctStepConfigs
        << ",\n"
        << "  \"wall_ms\": " << wall_ms << ",\n"
        << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
        << "  \"byte_mismatches\": " << mismatches << ",\n"
        << "  \"failed_connections\": " << failed_connections << ",\n"
        << "  \"fleet_stats\": {\n"
        << "    \"steps_simulated\": " << fleet_steps << ",\n"
        << "    \"executed\": " << fleet_executed << ",\n"
        << "    \"coalesced\": " << fleet_coalesced << "\n"
        << "  },\n"
        << "  \"router_stats\": {\n"
        << "    \"forwarded\": " << router_stats.counter("router.forwarded")
        << ",\n"
        << "    \"responses\": " << router_stats.counter("router.responses")
        << ",\n"
        << "    \"shard_failures\": " << shard_failures << ",\n"
        << "    \"protocol_errors\": "
        << router_stats.counter("router.protocol_errors") << "\n"
        << "  },\n"
        << "  \"warm_start\": {\n"
        << "    \"plans_loaded\": " << warm_loaded << ",\n"
        << "    \"plans_compiled\": " << warm_compiled << ",\n"
        << "    \"byte_mismatches\": " << warm_mismatches << ",\n"
        << "    \"snapshot_bytes\": " << snap0.size() + snap1.size()
        << ",\n"
        << "    \"replay_ms\": " << warm_ms << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (failed_connections > 0) {
        std::cerr << "bench_fleet_load: " << failed_connections
                  << " connections failed\n";
        return 1;
    }
    if (mismatches > 0 || warm_mismatches > 0) {
        std::cerr << "bench_fleet_load: fleet answers diverge from "
                     "the in-process PlanService\n";
        return 1;
    }
    if (fleet_steps != kDistinctStepConfigs) {
        std::cerr << "bench_fleet_load: fleet simulated "
                  << fleet_steps << " steps, expected "
                  << kDistinctStepConfigs
                  << " (sharded thundering-herd guarantee broken)\n";
        return 1;
    }
    if (warm_compiled != 0) {
        std::cerr << "bench_fleet_load: warm-started shard compiled "
                  << warm_compiled << " plans, expected 0\n";
        return 1;
    }
    if (shard_failures != 0) {
        std::cerr << "bench_fleet_load: " << shard_failures
                  << " unexpected shard failures\n";
        return 1;
    }
    return 0;
}
