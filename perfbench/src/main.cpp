/**
 * @file
 * `fleetbench` — the fleet benchmark: one run of one workload.
 *
 *   fleetbench --workload NAME --seed N --seconds S --trace 0|1
 *              --served BIN --router BIN --out-dir DIR
 *              [--sha TEXT] [--source-digest TEXT]
 *
 * A run checks the generator (selftest.hpp), computes every expected
 * answer (oracle.hpp), then sets the fleet up several times and keeps
 * the last one, drives it open loop and then closed loop from this
 * process (loadgen.hpp), and scrapes `stats` between phases. With
 * `--trace 1` it also times the router hop and runs the in-process
 * traced replay (replay.hpp). Its last stdout line is the result:
 * `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`; the line
 * before it is the full record, stamped with the environment. Exits 1
 * on a wrong answer or a failed self-test, 3 when the generator fell
 * behind its schedule (the run is invalid), 2 on a usage or set-up
 * error.
 *
 * perfbench/run.py builds this and the fleet, and is the way to run it.
 */

#include <sys/prctl.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/stats_registry.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "router/hash_ring.hpp"
#include "selftest.hpp"
#include "trace.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

// ---- Fixed run shape (see NOTES.md) -------------------------------------
constexpr std::size_t kConnections = 4;
constexpr std::size_t kClosedWindow = 64;   ///< In flight per connection.
constexpr int kSetups = 11;                 ///< setup_s is their median.
/** Latency quantiles are the median over this many consecutive slices
 *  of the open-loop phase of each slice's quantile, so a stall of the
 *  host moves the slices it hits, not the result. */
constexpr std::size_t kLatencySlices = 10;
constexpr double kOpenShare = 0.6;          ///< Of --seconds.
/** Unmeasured open-loop lead-in before the measured open loop: a fresh
 *  fleet's first second (buffers growing, pages faulting in) ran up to
 *  200 ms behind in some runs. */
constexpr double kLeadInS = 1.0;
constexpr double kClosedShare = 0.3;        ///< Of --seconds.
constexpr std::size_t kHopPairs = 200;
constexpr std::size_t kScrapes = 20;
constexpr std::size_t kMaxAnswers = 256;
constexpr std::size_t kMaxPlanners = 32;
/** peak_rps is the median of the closed loop's rates over windows of
 *  this length, so a stall of the host costs one window, not the run. */
constexpr double kRateWindowMs = 100.0;
/** The generator fell behind when its median send lateness exceeds
 *  this: half of all requests went out late, which no stall explains. */
constexpr double kMaxLateP50Ms = 0.5;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string served;
    std::string router;
    std::string outDir;
    std::string sha = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --served BIN --router BIN "
                 "--out-dir DIR [--sha TEXT] [--source-digest TEXT]\n",
                 problem.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            a.trace = std::atoi(value.c_str());
        else if (flag == "--served")
            a.served = value;
        else if (flag == "--router")
            a.router = value;
        else if (flag == "--out-dir")
            a.outDir = value;
        else if (flag == "--sha")
            a.sha = value;
        else if (flag == "--source-digest")
            a.sourceDigest = value;
        else
            usage("unknown flag " + flag);
    }
    if (!findWorkload(a.workload))
        usage("unknown workload '" + a.workload + "'");
    if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1) ||
        a.served.empty() || a.router.empty() || a.outDir.empty())
        usage("missing or bad arguments");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** One `stats` scrape through the router, flattened. */
struct Scrape {
    std::map<std::string, double> values;
    double us = 0.0;
    std::size_t bytes = 0;
    bool ok = false;

    double router(const std::string& stat) const
    {
        const auto it = values.find("stats/router/" + stat);
        return it == values.end() ? 0.0 : it->second;
    }
    /** @p stat summed over every shard. */
    double shards(const std::string& stat) const
    {
        double sum = 0.0;
        const std::string suffix = "/" + stat;
        for (const auto& [key, v] : values)
            if (key.rfind("stats/shards/", 0) == 0 &&
                key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                sum += v;
        return sum;
    }
};

Scrape
scrape(ftsim::NetClient& client)
{
    Scrape s;
    const double t0 = nowMs();
    const std::string line = askOnce(client, "{\"query\":\"stats\"}\n");
    s.us = (nowMs() - t0) * 1000.0;
    s.bytes = line.size() + 1;
    s.ok = !line.empty() && flattenJsonNumbers(line, s.values);
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Totals {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t wrong = 0;
    std::string firstWrong;

    void add(const PhaseStats& s)
    {
        attempted += s.attempted;
        failed += s.failed();
        wrong += s.wrong;
        if (firstWrong.empty())
            firstWrong = s.firstWrong;
    }
};

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec& spec = *findWorkload(args.workload);
    ftsim::Logger::instance().setLevel(ftsim::LogLevel::Error);
    // Wake the generator on time: the default 50 us timer slack would
    // be charged to every open-loop request as latency.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    const double open_s = kOpenShare * args.seconds;
    const double closed_s = kClosedShare * args.seconds;
    const std::size_t lead_in_count =
        static_cast<std::size_t>(std::llround(spec.openRate * kLeadInS));
    const std::size_t open_count =
        static_cast<std::size_t>(std::llround(spec.openRate * open_s));
    // Unique questions cannot be reused, so the closed loop's pool must
    // outlast it: room for 1.5 times the parent's peak. Should a faster
    // fleet drain it early, peak_rps counts the whole windows before
    // that. Hot pools simply repeat.
    const std::size_t closed_pool =
        spec.unique ? static_cast<std::size_t>(
                          std::ceil(1.5 * spec.parentPeak * closed_s))
                    : 8192;
    const RunPlan plan =
        buildRunPlan(spec, args.seed, lead_in_count + open_count, closed_pool);
    const double selftest_t0 = nowMs();
    const std::vector<std::string> selftest = runSelfTests(
        spec, args.seed, lead_in_count + open_count, closed_pool, plan);
    const double selftest_s = (nowMs() - selftest_t0) / 1000.0;
    for (const std::string& failure : selftest)
        std::fprintf(stderr, "fleetbench: self-test failed: %s\n",
                     failure.c_str());
    const std::vector<std::uint32_t> lead_in(
        plan.open.begin(),
        plan.open.begin() + static_cast<std::ptrdiff_t>(lead_in_count));
    const std::vector<std::uint32_t> measured(
        plan.open.begin() + static_cast<std::ptrdiff_t>(lead_in_count),
        plan.open.end());

    ftsim::ServiceConfig service;
    service.workers = 1;
    service.maxAnswers = kMaxAnswers;
    service.maxPlanners = kMaxPlanners;
    const double oracle_t0 = nowMs();
    const Oracle oracle(plan, service);
    const double oracle_s = (nowMs() - oracle_t0) / 1000.0;

    // The oracle used every core; from here on this thread is the
    // generator and keeps CPU 0.
    pinToCpu(0);
    FleetConfig fleet_config;
    fleet_config.servedBin = args.served;
    fleet_config.routerBin = args.router;
    fleet_config.workers = service.workers;
    fleet_config.maxAnswers = kMaxAnswers;
    fleet_config.maxPlanners = kMaxPlanners;

    Totals totals;
    LoadGen gen(plan, oracle, spec.wire);
    std::unique_ptr<Fleet> fleet;
    // Per set-up: the fleet's CPU seconds from spawn until the warm-up
    // set is answered (setup_s is their median), and for the record the
    // wall time of the same span and of the warm-up alone.
    std::vector<double> setups;
    std::vector<double> setup_walls;
    std::vector<double> warm_walls;
    for (int k = 0; k < kSetups; ++k) {
        if (fleet) {
            gen.close();
            fleet->stop();
        }
        fleet = std::make_unique<Fleet>(fleet_config);
        const double t0 = nowMs();
        const std::string error = fleet->start();
        if (!error.empty() || !gen.connect(fleet->routerPort(), kConnections)) {
            std::fprintf(stderr, "fleetbench: fleet set-up failed: %s\n",
                         error.empty() ? "cannot connect" : error.c_str());
            return 2;
        }
        const double t1 = nowMs();
        const PhaseStats warm =
            gen.batch(plan.warmup, "w" + std::to_string(k) + "-", 60000.0);
        const double t2 = nowMs();
        setups.push_back(fleet->cpuSeconds());
        setup_walls.push_back((t2 - t0) / 1000.0);
        warm_walls.push_back((t2 - t1) / 1000.0);
        totals.add(warm);
    }
    const std::vector<pid_t> pids = fleet->pids();
    ftsim::Result<ftsim::NetClient> connected =
        connectLocal(fleet->routerPort());
    if (!connected) {
        std::fprintf(stderr, "fleetbench: cannot reach the router: %s\n",
                     connected.error().message.c_str());
        return 2;
    }
    ftsim::NetClient stats_client = std::move(connected.value());

    // Router hop (traced runs only): the same warmed questions, one in
    // flight, through the router and straight to their owning shard.
    std::vector<double> via_router;
    std::vector<double> direct;
    if (args.trace == 1) {
        ftsim::HashRing ring;
        const std::vector<std::string> names = fleet->shardNames();
        std::vector<ftsim::NetClient> shard_clients;
        for (std::size_t i = 0; i < names.size(); ++i) {
            ring.addShard(i, names[i]);
            ftsim::Result<ftsim::NetClient> shard =
                connectLocal(fleet->shardPorts()[i]);
            if (!shard) {
                std::fprintf(stderr, "fleetbench: cannot reach shard %s: %s\n",
                             names[i].c_str(), shard.error().message.c_str());
                return 2;
            }
            shard_clients.push_back(std::move(shard.value()));
        }
        const bool binary = spec.wire == Wire::Binary;
        PhaseStats hop;
        for (std::size_t i = 0; i < 2 * kHopPairs; ++i) {
            const std::uint32_t q = plan.warmup[(i / 2) % plan.warmup.size()];
            const std::string id = "h" + std::to_string(i);
            const bool routed = i % 2 == 0;
            ftsim::NetClient& client =
                routed ? stats_client
                       : shard_clients[static_cast<std::size_t>(
                             ring.shardFor(plan.question(q).key))];
            const double t0 = nowMs();
            const std::string answer =
                askOnce(client, plan.encode(q, id, spec.wire));
            (routed ? via_router : direct).push_back((nowMs() - t0) * 1000.0);
            ++hop.attempted;
            const Verdict v = binary ? oracle.checkFrame(q, id, answer)
                                     : oracle.checkLine(q, id, answer);
            hop.ok += v == Verdict::Ok ? 1 : 0;
            hop.refused += v == Verdict::Refused ? 1 : 0;
            if (v == Verdict::Wrong) {
                ++hop.wrong;
                if (hop.firstWrong.empty())
                    hop.firstWrong = "hop phase: request " + id + " differs";
            }
        }
        totals.add(hop);
    }

    // Open loop, with the fleet's CPU time read around it.
    totals.add(gen.open(lead_in, spec.openRate, "l"));
    const Scrape before = scrape(stats_client);
    double cpu0 = 0.0;
    for (pid_t pid : pids)
        cpu0 += processCpuUs(pid);
    const PhaseStats open = gen.open(measured, spec.openRate, "o");
    double cpu1 = 0.0;
    for (pid_t pid : pids)
        cpu1 += processCpuUs(pid);
    totals.add(open);
    const Scrape mid = scrape(stats_client);
    // Busy share of each process over the closed loop: names the
    // bottleneck (generator, router, shard) behind peak_rps.
    std::vector<pid_t> busy_pids = {::getpid()};
    busy_pids.insert(busy_pids.end(), pids.begin(), pids.end());
    std::vector<double> busy(busy_pids.size());
    for (std::size_t i = 0; i < busy_pids.size(); ++i)
        busy[i] = -processCpuUs(busy_pids[i]);
    const double closed_t0 = nowMs();
    const PhaseStats closed = gen.closed(plan.closed, !spec.unique, closed_s,
                                         kClosedWindow, "c");
    const double closed_us = (nowMs() - closed_t0) * 1000.0;
    for (std::size_t i = 0; i < busy_pids.size(); ++i)
        busy[i] = (busy[i] + processCpuUs(busy_pids[i])) / closed_us;
    totals.add(closed);
    const Scrape after = scrape(stats_client);
    std::vector<double> scrape_us = {before.us, mid.us, after.us};
    std::size_t scrape_bytes = after.bytes;
    const std::size_t scrape_count =
        args.trace == 1 ? kScrapes : 0;  // Extra scrapes, traced runs only.
    for (std::size_t i = 0; i < scrape_count; ++i)
        scrape_us.push_back(scrape(stats_client).us);
    double rss_mb = 0.0;
    for (pid_t pid : pids)
        rss_mb += processPeakRssMb(pid);
    gen.close();
    const std::vector<std::string> shard_names = fleet->shardNames();
    const std::vector<std::uint16_t> shard_ports = fleet->shardPorts();
    fleet->stop();

    pinToCpu(-1);
    ReplayResult replay;
    if (args.trace == 1) {
        replay = runReplay(spec, plan, oracle, service, shard_names,
                           0.5 * args.seconds,
                           args.outDir + "/trace-" + spec.name + "-seed" +
                               std::to_string(args.seed) + ".jsonl");
        totals.attempted += replay.attempted;
        totals.failed += replay.wrong;
        totals.wrong += replay.wrong;
        if (totals.firstWrong.empty())
            totals.firstWrong = replay.firstWrong;
    }

    // ---- Metrics -------------------------------------------------------
    const double latency_p90 =
        open.latencyMs.empty() ? 0.0 : ftsim::percentile(open.latencyMs, 90.0);
    std::vector<double> slice_p50;
    std::vector<double> slice_p99;
    const std::size_t slice = open.latencyMs.size() / kLatencySlices;
    for (std::size_t i = 0; slice > 0 && i < kLatencySlices; ++i) {
        const std::vector<double> part(
            open.latencyMs.begin() + static_cast<std::ptrdiff_t>(i * slice),
            open.latencyMs.begin() +
                static_cast<std::ptrdiff_t>((i + 1) * slice));
        slice_p50.push_back(median(part));
        slice_p99.push_back(p99(part));
    }
    const double latency_p50 = median(slice_p50);
    const double latency_p99 = median(slice_p99);
    const double late_p50 = median(open.lateMs);
    const double late_p99 = p99(open.lateMs);
    const bool generator_ok = late_p50 <= kMaxLateP50Ms;
    // Closed-loop rate per whole window inside the measured span.
    std::vector<double> window_rates(
        static_cast<std::size_t>(closed.windowS * 1000.0 / kRateWindowMs));
    for (double at : closed.okAtMs) {
        const auto w = static_cast<std::size_t>(at / kRateWindowMs);
        if (w < window_rates.size())
            window_rates[w] += 1000.0 / kRateWindowMs;
    }
    const bool scrapes_ok = before.ok && mid.ok && after.ok;
    const bool correct = totals.wrong == 0 && selftest.empty() && scrapes_ok;

    // Phase deltas: open + closed. Each scrape is itself one request
    // to every shard and is not part of the workload.
    const double scrapes_between = 2.0;
    const double shard_requests =
        after.shards("serve.requests") - before.shards("serve.requests") -
        scrapes_between * static_cast<double>(shard_names.size());
    std::vector<double> routed;
    for (const std::string& name : shard_names)
        routed.push_back(after.router("router.shard." + name + ".routed") -
                         before.router("router.shard." + name + ".routed"));
    const double routed_max = *std::max_element(routed.begin(), routed.end());
    double routed_sum = 0.0;
    for (double r : routed)
        routed_sum += r;

    struct Metric {
        std::string name;
        std::string unit;
        double value;
    };
    std::vector<Metric> metrics;
    if (args.trace == 0) {
        metrics = {
            {"cpu_us_per_req", "us",
             ratio(cpu1 - cpu0, static_cast<double>(open.ok))},
            {"rss_peak_mb", "MB", rss_mb},
            {"answered_ratio", "fraction",
             ratio(static_cast<double>(totals.attempted - totals.failed),
                   static_cast<double>(totals.attempted))},
            {"setup_s", "s", median(setups)},
        };
    } else {
        const auto& r = replay.metrics;
        metrics = {
            {"net.frame_us", "us", r.at("net.frame_us")},
            {"net.rtt_us", "us", r.at("net.rtt_us")},
            {"net.bytes_per_req", "bytes",
             ratio(static_cast<double>(open.bytesOut + open.bytesIn),
                   static_cast<double>(open.attempted))},
            {"serve.decode_us", "us", r.at("serve.decode_us")},
            {"serve.encode_us", "us", r.at("serve.encode_us")},
            {"serve.key_us", "us", r.at("serve.key_us")},
            {"serve.hit_us", "us", r.at("serve.hit_us")},
            {"serve.miss_us", "us", r.at("serve.miss_us")},
            {"serve.wait_us", "us", r.at("serve.wait_us")},
            {"serve.answer_hit_ratio", "fraction",
             ratio(after.shards("serve.coalesced") -
                       before.shards("serve.coalesced"),
                   shard_requests)},
            {"serve.evictions_per_req", "count",
             ratio(after.shards("serve.answers.evicted") +
                       after.shards("serve.planners.evicted") -
                       before.shards("serve.answers.evicted") -
                       before.shards("serve.planners.evicted"),
                   shard_requests)},
            {"core.planner_us", "us", r.at("core.planner_us")},
            {"core.planner_us.max_batch", "us",
             r.at("core.planner_us.max_batch")},
            {"core.planner_us.throughput", "us",
             r.at("core.planner_us.throughput")},
            {"core.planner_us.cost_table", "us",
             r.at("core.planner_us.cost_table")},
            {"core.planner_us.cheapest_plan", "us",
             r.at("core.planner_us.cheapest_plan")},
            {"core.planner_us.report", "us", r.at("core.planner_us.report")},
            // Fleet lifetime: on hot workloads planning happens only
            // during set-up, so a phase delta would be 0/0.
            {"core.step_hit_ratio", "fraction",
             ratio(after.shards("planner.step_cache_hits"),
                   after.shards("planner.step_cache_hits") +
                       after.shards("planner.step_cache_misses"))},
            {"core.steps_per_req", "count",
             ratio(after.shards("serve.steps_simulated") -
                       before.shards("serve.steps_simulated"),
                   shard_requests)},
            {"gpusim.sweep_us", "us", r.at("gpusim.sweep_us")},
            {"gpusim.plan_hit_ratio", "fraction",
             ratio(after.shards("serve.plans.registry_hits"),
                   after.shards("serve.plans.registry_hits") +
                       after.shards("serve.plans.compiled"))},
            {"router.route_us", "us", r.at("router.route_us")},
            {"router.hop_us", "us", median(via_router) - median(direct)},
            {"router.shard_skew", "ratio",
             ratio(routed_max,
                   routed_sum / static_cast<double>(routed.size()))},
            {"router.retried_per_req", "fraction",
             ratio(after.router("router.retried") -
                       before.router("router.retried"),
                   after.router("router.forwarded") -
                       before.router("router.forwarded"))},
            {"common.scrape_us", "us", median(scrape_us)},
            {"common.scrape_bytes", "bytes",
             static_cast<double>(scrape_bytes)},
        };
    }

    // ---- Report --------------------------------------------------------
    if (args.trace == 1) {
        std::printf("%s", replay.summary.c_str());
        std::printf("  router.hop_us = p50 through the router %.3f us - p50 "
                    "straight to the owning shard %.3f us (%zu pairs, one "
                    "request in flight)\n",
                    median(via_router), median(direct), via_router.size());
    }
    if (!totals.firstWrong.empty())
        std::fprintf(stderr, "fleetbench: wrong answer: %s\n",
                     totals.firstWrong.c_str());
    if (!generator_ok)
        std::fprintf(stderr,
                     "fleetbench: run invalid: the generator sent half "
                     "its requests %.3f ms or more late (limit %.3f ms)\n",
                     late_p50, kMaxLateP50Ms);

    std::ostringstream record;
    record << "{\"record\":{\"workload\":" << ftsim::jsonQuote(spec.name)
           << ",\"seed\":" << args.seed
           << ",\"seconds\":" << jsonNumber(args.seconds)
           << ",\"trace\":" << args.trace
           << ",\"valid\":" << (generator_ok ? "true" : "false")
           << ",\"env\":{\"cores\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
           << ",\"compiler\":" << ftsim::jsonQuote(compilerName())
           << ",\"build_type\":" << ftsim::jsonQuote(FLEETBENCH_BUILD_TYPE)
           << ",\"git_sha\":" << ftsim::jsonQuote(args.sha)
           << ",\"source_digest\":" << ftsim::jsonQuote(args.sourceDigest) << "}"
           << ",\"params\":{\"wire\":"
           << ftsim::jsonQuote(spec.wire == Wire::Json ? "json" : "binary")
           << ",\"open_rate\":" << jsonNumber(spec.openRate)
           << ",\"parent_peak\":" << jsonNumber(spec.parentPeak)
           << ",\"open_s\":" << jsonNumber(open_s)
           << ",\"closed_s\":" << jsonNumber(closed_s)
           << ",\"connections\":" << kConnections
           << ",\"closed_window\":" << kClosedWindow
           << ",\"setups\":" << kSetups << ",\"shard_workers\":"
           << service.workers << ",\"max_answers\":" << kMaxAnswers
           << ",\"max_planners\":" << kMaxPlanners << ",\"shard_ports\":["
           << shard_ports[0] << "," << shard_ports[1] << "]"
           << ",\"distinct_questions\":" << plan.size() << "}"
           << ",\"selftest_s\":" << jsonNumber(selftest_s)
           << ",\"oracle\":{\"seconds\":" << jsonNumber(oracle_s)
           << ",\"expected_bytes\":" << oracle.expectedBytes()
           << ",\"domain_answer_share\":"
           << jsonNumber(oracle.domainAnswerShare()) << "}"
           << ",\"open\":{\"attempted\":" << open.attempted
           << ",\"ok\":" << open.ok << ",\"latency_samples\":"
           << open.latencyMs.size() << ",\"latency_slices\":"
           << slice_p99.size() << ",\"latency_p99_all_ms\":"
           << jsonNumber(p99(open.latencyMs))
           << ",\"latency_p50_ms\":" << jsonNumber(latency_p50)
           << ",\"latency_p90_ms\":" << jsonNumber(latency_p90)
           << ",\"latency_p99_ms\":" << jsonNumber(latency_p99)
           << ",\"generator_late_p50_ms\":" << jsonNumber(late_p50)
           << ",\"generator_late_p99_ms\":" << jsonNumber(late_p99) << "}"
           << ",\"closed\":{\"attempted\":" << closed.attempted
           << ",\"ok_in_window\":" << closed.okInWindow
           << ",\"window_s\":" << jsonNumber(closed.windowS)
           << ",\"peak_rps\":" << jsonNumber(median(window_rates))
           << ",\"rate_windows\":" << window_rates.size()

           << ",\"busy\":{\"generator\":" << jsonNumber(busy[0])
           << ",\"router\":" << jsonNumber(busy[1])
           << ",\"shard0\":" << jsonNumber(busy[2])
           << ",\"shard1\":" << jsonNumber(busy[3]) << "}"
           << ",\"mean_rps\":"
           << jsonNumber(ratio(static_cast<double>(closed.okInWindow),
                               closed.windowS))
           << ",\"pool_exhausted\":" << (closed.exhausted ? "true" : "false")
           << "},\"setup\":{\"cpu_s\":[";
    for (std::size_t i = 0; i < setups.size(); ++i)
        record << (i ? "," : "") << jsonNumber(setups[i]);
    record << "],\"wall_s_median\":" << jsonNumber(median(setup_walls))
           << ",\"warmup_wall_s_median\":" << jsonNumber(median(warm_walls))
           << "},\"failed\":{\"refused_or_lost\":"
           << totals.failed - totals.wrong << ",\"wrong\":" << totals.wrong
           << "},\"selftest_failures\":" << selftest.size() << "}}";
    std::ofstream(args.outDir + "/results.jsonl", std::ios::app)
        << record.str() << '\n';
    std::printf("%s\n", record.str().c_str());

    if (!generator_ok)
        return 3;
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":{",
                correct ? "true" : "false", totals.attempted, totals.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s%s:{\"value\":%s,\"unit\":%s}", i ? "," : "",
                    ftsim::jsonQuote(metrics[i].name).c_str(),
                    jsonNumber(metrics[i].value).c_str(),
                    ftsim::jsonQuote(metrics[i].unit).c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}
