/**
 * @file
 * Chaos soak bench: kill a shard mid-pipeline, heal it, lose nothing.
 *
 * A 3-shard fleet serves a duplicate-heavy template sweep while the
 * bench murders shard-0 at a deterministic moment (its link runs
 * through a `FaultProxy`: responses are stalled so the doomed requests
 * are *provably* in flight, then the link is cut and the worker
 * stopped) and later heals it into a fresh cold worker. The ISSUE-7
 * acceptance bar, verified phase by phase:
 *
 *  - zero wrong answers, ever: every wire response in every phase is
 *    byte-identical to one in-process `PlanService` — a kill fails
 *    over, it never corrupts;
 *  - zero `Unavailable`: the outstanding requests replay on survivors
 *    within the retry budget (`retried` == the doomed count, exactly —
 *    the mirrored ring makes the number deterministic);
 *  - the heal completes exactly once, and the rejoined worker is
 *    warm-started from the survivors' snapshots: it compiles **zero**
 *    plans for the fleet-seen template set;
 *  - and it emits BENCH_chaos.json for the bench_check.py
 *    exact-counter gate.
 *
 * Exits non-zero on any divergence, so ci.sh gets the gate for free.
 *
 * Usage: bench_chaos_load [output.json]  (default: BENCH_chaos.json)
 */

#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/fault_proxy.hpp"
#include "net/server.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

namespace {

/** Polls @p predicate for up to @p budgetMs of real time. */
bool
eventually(double budgetMs, const std::function<bool()>& predicate)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int>(budgetMs));
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_chaos.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_chaos_load",
                  "3-shard fleet: deterministic kill mid-pipeline, "
                  "failover, warm-started heal");

    // ---- Templates: 3 scenarios x 3 GPUs, throughput + max_batch. ---
    // The same 12-template, 9-step-config set as bench_fleet_load.
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

    // ---- Expected answers: one in-process service, no fleet. --------
    PlanService reference;
    std::vector<PlanResponse> template_answers;
    for (const PlanRequest& request : templates)
        template_answers.push_back(reference.ask(request));
    auto expectedLine = [&](std::size_t template_index,
                            const std::string& id) {
        PlanResponse response = template_answers[template_index];
        response.id = id;
        return writePlanResponse(response);
    };

    // ---- The fleet: shard-0 behind the chaos proxy, 1 and 2 direct. -
    NetServer shard0;
    NetServer shard1;
    NetServer shard2;
    for (NetServer* shard : {&shard0, &shard1, &shard2}) {
        Result<bool> up = shard->start();
        if (!up)
            fatal("bench_chaos_load: " + up.error().message);
    }
    FaultProxyConfig proxy_config;
    proxy_config.targetPort = shard0.port();
    FaultProxy proxy(proxy_config);
    Result<bool> proxied = proxy.start();
    if (!proxied)
        fatal("bench_chaos_load: " + proxied.error().message);

    RouterConfig router_config;
    ShardEndpoint end0;
    end0.port = proxy.port();
    end0.name = "shard-0";
    ShardEndpoint end1;
    end1.port = shard1.port();
    end1.name = "shard-1";
    ShardEndpoint end2;
    end2.port = shard2.port();
    end2.name = "shard-2";
    router_config.shards = {end0, end1, end2};
    router_config.retryBudget = 2;
    router_config.reconnectBackoffMs = 25.0;
    router_config.reconnectBackoffMaxMs = 100.0;
    router_config.healTimeoutMs = 2000.0;
    RouterServer router(router_config);
    Result<bool> routed = router.start();
    if (!routed)
        fatal("bench_chaos_load: " + routed.error().message);

    // Mirror the ring: the doomed set (and so `retried`) is a fixed,
    // gateable number, not a race outcome.
    HashRing ring(router_config.virtualNodes);
    ring.addShard(0, "shard-0");
    ring.addShard(1, "shard-1");
    ring.addShard(2, "shard-2");
    std::size_t doomed = 0;
    for (const PlanRequest& request : templates)
        if (ring.shardFor(request.canonicalKey()) == 0)
            ++doomed;
    if (doomed == 0 || doomed == templates.size())
        fatal("bench_chaos_load: degenerate ring split; change the "
              "shard names");

    Result<NetClient> connected =
        NetClient::connectTo("127.0.0.1", router.port());
    if (!connected)
        fatal("bench_chaos_load: " + connected.error().message);
    NetClient client = std::move(connected.value());

    std::size_t mismatches = 0;
    std::size_t requests_sent = 0;
    auto sweep = [&](const char* tag) {
        for (std::size_t t = 0; t < templates.size(); ++t) {
            PlanRequest request = templates[t];
            request.id = strCat(tag, t);
            ++requests_sent;
            Result<std::string> line =
                client.ask(writePlanRequest(request));
            if (!line)
                fatal(strCat("bench_chaos_load: sweep ", tag, t, ": ",
                             line.error().message));
            if (line.value() != expectedLine(t, request.id))
                ++mismatches;
        }
    };

    const double start_ms = bench::nowMs();

    // ---- Phase 1: healthy fleet, everything warms. -------------------
    bench::section("Phase 1: healthy sweep");
    sweep("p");
    std::cout << templates.size() << " templates, " << mismatches
              << " mismatches; shard-0 owns " << doomed << '\n';

    // ---- Phase 2: kill shard-0 with its requests in flight. ----------
    // Stall its response flow, fill the pipeline, verify everything is
    // forwarded, then cut the link and stop the worker: the doomed
    // requests MUST fail over to the survivors and answer identically.
    bench::section("Phase 2: kill mid-pipeline");
    FaultScript stall;
    stall.kind = FaultKind::Stall;
    stall.direction = FaultDirection::ServerToClient;
    proxy.setFault(stall);
    for (std::size_t t = 0; t < templates.size(); ++t) {
        PlanRequest request = templates[t];
        request.id = strCat("k", t);
        ++requests_sent;
        if (!client.sendLine(writePlanRequest(request)))
            fatal("bench_chaos_load: pipeline send failed");
    }
    const std::uint64_t expect_forwarded = 2 * templates.size();
    auto router_cell = [&router](const char* name) {
        return router.statsRegistry()->snapshot().counter(name);
    };
    if (!eventually(5000.0, [&] {
            return router_cell("router.forwarded") >= expect_forwarded;
        }))
        fatal("bench_chaos_load: batch never fully forwarded");
    shard0.stop();
    proxy.killConnections();
    proxy.clearFault();
    for (std::size_t t = 0; t < templates.size(); ++t) {
        Result<std::string> line = client.recvLine();
        if (!line)
            fatal(strCat("bench_chaos_load: killed batch k", t, ": ",
                         line.error().message));
        if (line.value() != expectedLine(t, strCat("k", t)))
            ++mismatches;
    }
    const std::uint64_t retried_after_kill =
        router_cell("router.retried");
    std::cout << "killed shard-0 with " << doomed
              << " requests in flight; retried="
              << retried_after_kill << ", mismatches so far "
              << mismatches << '\n';

    // ---- Phase 3: degraded sweep — survivors own the keyspace. -------
    // This also compiles shard-0's configs on the survivors, so the
    // union of their registries covers every template when the
    // rejoiner warms from them below.
    bench::section("Phase 3: degraded sweep");
    sweep("s");
    std::cout << "2-shard fleet answered all " << templates.size()
              << "; mismatches so far " << mismatches << '\n';

    // ---- Phase 4: heal into a fresh cold worker. ----------------------
    bench::section("Phase 4: heal");
    NetServer shard0b;
    Result<bool> fresh_up = shard0b.start();
    if (!fresh_up)
        fatal("bench_chaos_load: " + fresh_up.error().message);
    proxy.setTarget("127.0.0.1", shard0b.port());
    if (!eventually(10000.0, [&] {
            const StatsSnapshot s = router.statsRegistry()->snapshot();
            return s.counter("router.healed") == 1 &&
                   s.find("router.shards_alive")->value == 3.0;
        }))
        fatal("bench_chaos_load: shard-0 never healed");
    sweep("h");
    const std::uint64_t rejoin_compiled =
        shard0b.service().planRegistry()->plansCompiled();
    const std::uint64_t rejoin_loaded =
        shard0b.service().planRegistry()->plansLoaded();
    std::cout << "healed; rejoiner loaded " << rejoin_loaded
              << " plans, compiled " << rejoin_compiled
              << "; mismatches so far " << mismatches << '\n';

    const double wall_ms = bench::nowMs() - start_ms;
    const StatsSnapshot router_stats = router.statsRegistry()->snapshot();
    const std::uint64_t unavailable =
        router_stats.counter("router.shard_failures");
    const std::uint64_t retried = router_stats.counter("router.retried");
    const std::uint64_t healed = router_stats.counter("router.healed");

    router.stop();
    proxy.stop();
    shard1.stop();
    shard2.stop();
    shard0b.stop();

    const double requests_per_sec =
        wall_ms > 0.0 ? requests_sent / (wall_ms / 1000.0) : 0.0;

    bench::section("Results");
    std::cout << requests_sent << " requests over " << wall_ms
              << " ms = " << requests_per_sec
              << " req/s across kill + heal\n"
              << "byte mismatches: " << mismatches
              << ", unavailable: " << unavailable
              << ", retried: " << retried << ", healed: " << healed
              << ", rejoin compiled: " << rejoin_compiled << '\n';
    bench::note("gate: zero wrong answers, zero Unavailable, retried "
                "== doomed exactly, one heal, rejoiner compiles 0");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_chaos_load\",\n"
        << "  \"shards\": 3,\n"
        << "  \"requests\": " << requests_sent << ",\n"
        << "  \"wall_ms\": " << wall_ms << ",\n"
        << "  \"requests_per_sec\": " << requests_per_sec << ",\n"
        << "  \"byte_mismatches\": " << mismatches << ",\n"
        << "  \"doomed\": " << doomed << ",\n"
        << "  \"router_stats\": {\n"
        << "    \"retried\": " << retried << ",\n"
        << "    \"unavailable\": " << unavailable << ",\n"
        << "    \"deadline_expired\": "
        << router_stats.counter("router.deadline_expired") << ",\n"
        << "    \"healed\": " << healed << ",\n"
        << "    \"respawned\": " << router_stats.counter("router.respawned")
        << "\n"
        << "  },\n"
        << "  \"rejoin\": {\n"
        << "    \"plans_loaded\": " << rejoin_loaded << ",\n"
        << "    \"plans_compiled\": " << rejoin_compiled << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (mismatches > 0) {
        std::cerr << "bench_chaos_load: " << mismatches
                  << " answers diverged from the in-process "
                     "PlanService\n";
        return 1;
    }
    if (unavailable != 0) {
        std::cerr << "bench_chaos_load: " << unavailable
                  << " requests answered Unavailable (the retry "
                     "budget must absorb one kill)\n";
        return 1;
    }
    if (retried != doomed) {
        std::cerr << "bench_chaos_load: retried " << retried
                  << ", expected exactly "
                  << doomed << '\n';
        return 1;
    }
    if (healed != 1) {
        std::cerr << "bench_chaos_load: healed " << healed
                  << " times, expected 1\n";
        return 1;
    }
    if (rejoin_compiled != 0) {
        std::cerr << "bench_chaos_load: rejoined shard compiled "
                  << rejoin_compiled << " plans, expected 0\n";
        return 1;
    }
    return 0;
}
