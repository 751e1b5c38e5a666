/**
 * @file
 * Concurrent-socket soak bench for the network front end.
 *
 * 64 client connections pipeline a duplicate-heavy trace (the fleet-
 * of-tenants shape from bench_serve_load, now with a TCP hop) against
 * an in-process `NetServer`. The bench then verifies the ISSUE-5
 * acceptance bar:
 *
 *  - every wire response is **byte-identical** to what the in-process
 *    `PlanService` answers for the same request (the socket layer adds
 *    transport, never semantics);
 *  - the fleet's `stepsSimulated` equals the number of distinct step
 *    configurations in the trace — the thundering-herd guarantee
 *    survives N connections racing through sockets;
 *  - and it emits BENCH_net.json (requests/s, latency quantiles,
 *    coalescing counters) for the CI trend line.
 *
 * Exits non-zero on any divergence, so ci.sh gets the gate for free.
 *
 * Usage: bench_net_load [output.json]   (default: BENCH_net.json)
 */

#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

int
main(int argc, char** argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_net.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_net_load",
                  "64 concurrent sockets vs. the in-process "
                  "PlanService");

    // ---- Templates: 3 scenarios x 3 GPUs, throughput + max_batch. ---
    // 9 distinct step configurations (throughput probes simulate one
    // step each; max_batch is memory arithmetic, zero steps).
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

    // ---- The trace: 64 connections x 8 pipelined probes. ------------
    constexpr std::size_t kConnections = 64;
    constexpr std::size_t kPerConnection = 8;
    std::mt19937 rng(7);  // Deterministic trace across runs.
    std::vector<std::vector<std::size_t>> picks(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c)
        for (std::size_t q = 0; q < kPerConnection; ++q)
            picks[c].push_back(std::uniform_int_distribution<
                               std::size_t>(0, templates.size() - 1)(
                rng));

    // ---- Expected answers: the in-process service, no sockets. ------
    PlanService reference;
    std::vector<PlanResponse> template_answers;
    for (const PlanRequest& request : templates)
        template_answers.push_back(reference.ask(request));
    const std::uint64_t reference_steps =
        reference.statsRegistry()->snapshot().counter("serve.steps_simulated");
    if (reference_steps != kDistinctStepConfigs)
        fatal(strCat("bench_net_load: reference service simulated ",
                     reference_steps, " steps, expected ",
                     kDistinctStepConfigs));

    auto expectedLine = [&](std::size_t template_index,
                            const std::string& id) {
        PlanResponse response = template_answers[template_index];
        response.id = id;
        return writePlanResponse(response);
    };

    // ---- The server under test. -------------------------------------
    NetServer server;
    Result<bool> started = server.start();
    if (!started)
        fatal("bench_net_load: " + started.error().message);
    const std::uint16_t port = server.port();

    bench::section("Trace");
    std::cout << kConnections << " connections x " << kPerConnection
              << " pipelined requests (" << templates.size()
              << " templates, " << kDistinctStepConfigs
              << " distinct step configs)\n";

    std::vector<std::size_t> mismatches_per_conn(kConnections, 0);
    // char, not bool: vector<bool> is bit-packed, so concurrent writes
    // to distinct slots would race on shared bytes.
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

    // One shard-wide snapshot: the service's serve.* cells and the
    // front end's net.* cells share the server's registry.
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    const std::uint64_t steps_simulated =
        stats.counter("serve.steps_simulated");
    const double p50_latency_ms = stats.find("serve.latency_ms.p50")->value;
    const double p99_latency_ms = stats.find("serve.latency_ms.p99")->value;
    server.stop();

    const std::size_t total_requests = kConnections * kPerConnection;
    const double requests_per_sec =
        wall_ms > 0.0 ? total_requests / (wall_ms / 1000.0) : 0.0;

    bench::section("Results");
    std::cout << total_requests << " requests over " << wall_ms
              << " ms = " << requests_per_sec << " req/s\n"
              << "steps_simulated=" << steps_simulated
              << " (distinct step configs " << kDistinctStepConfigs
              << "), coalesced=" << stats.counter("serve.coalesced")
              << ", executed=" << stats.counter("serve.executed") << '\n'
              << "latency p50=" << p50_latency_ms << "ms p99="
              << p99_latency_ms << "ms; "
              << stats.counter("net.conn.accepted")
              << " connections accepted, "
              << stats.counter("net.protocol_errors")
              << " protocol errors\n"
              << "byte mismatches vs in-process: " << mismatches
              << ", failed connections: " << failed_connections << '\n';
    bench::note("gate: answers byte-identical to PlanService and "
                "stepsSimulated == distinct configs");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_net_load\",\n"
        << "  \"connections\": " << kConnections << ",\n"
        << "  \"requests\": " << total_requests << ",\n"
        << "  \"distinct_step_configs\": " << kDistinctStepConfigs
        << ",\n"
        << "  \"wall_ms\": " << wall_ms << ",\n"
        << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
        << "  \"byte_mismatches\": " << mismatches << ",\n"
        << "  \"failed_connections\": " << failed_connections << ",\n"
        << "  \"service_stats\": {\n"
        << "    \"requests\": " << stats.counter("serve.requests") << ",\n"
        << "    \"coalesced\": " << stats.counter("serve.coalesced")
        << ",\n"
        << "    \"executed\": " << stats.counter("serve.executed") << ",\n"
        << "    \"steps_simulated\": " << steps_simulated << ",\n"
        << "    \"p50_latency_ms\": " << p50_latency_ms << ",\n"
        << "    \"p99_latency_ms\": " << p99_latency_ms << "\n"
        << "  },\n"
        << "  \"net_stats\": {\n"
        << "    \"connections_accepted\": "
        << stats.counter("net.conn.accepted") << ",\n"
        << "    \"responses\": " << stats.counter("net.responses") << ",\n"
        << "    \"protocol_errors\": "
        << stats.counter("net.protocol_errors") << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (failed_connections > 0) {
        std::cerr << "bench_net_load: " << failed_connections
                  << " connections failed\n";
        return 1;
    }
    if (mismatches > 0) {
        std::cerr << "bench_net_load: socket answers diverge from the "
                     "in-process PlanService\n";
        return 1;
    }
    if (steps_simulated != kDistinctStepConfigs) {
        std::cerr << "bench_net_load: fleet simulated "
                  << steps_simulated << " steps, expected "
                  << kDistinctStepConfigs
                  << " (thundering-herd guarantee broken)\n";
        return 1;
    }
    return 0;
}
