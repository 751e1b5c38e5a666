/**
 * @file
 * Self-healing fleet tests (ISSUE-7): retry/failover, the supervised
 * reconnect heartbeat, and warm-start rejoin — RouterServer over real
 * NetServer shards with a FaultProxy parked in between where a test
 * needs to kill or retarget a link at an exact moment.
 *
 * The claims under test:
 *
 *  - a shard killed with requests in flight loses *nothing*: its
 *    outstanding and future requests replay on the survivors and every
 *    answer matches what the healthy fleet would have said, byte for
 *    byte;
 *  - an alive-but-wedged shard (accepts, never answers) is declared
 *    dead by the per-request deadline and handled identically;
 *  - with `reconnectBackoffMs` set the router re-dials the dead
 *    endpoint on an exponential schedule driven by the injectable
 *    clock — no wall-clock sleeps decide test outcomes;
 *  - a rejoining shard is warmed from the survivors' live registry
 *    snapshots before its ring points return: it compiles zero plans
 *    for configs the fleet has already seen;
 *  - the `fleet` query reports lifecycle states and the
 *    retried/healed/respawned ledger;
 *  - a respawned replacement starts with SIGTERM deliverable, so the
 *    router's shutdown always reaps it.
 *
 * Everything binds port 0 so parallel runs never collide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <pthread.h>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/fault_proxy.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "serve/plan_service.hpp"
#include "serve/protocol.hpp"

namespace ftsim {
namespace {

NetClient
connectLoopback(std::uint16_t port)
{
    Result<NetClient> client = NetClient::connectTo("127.0.0.1", port);
    if (!client.ok()) {
        ADD_FAILURE() << client.error().message;
        return NetClient();
    }
    return std::move(client.value());
}

/** A duplicate-heavy request mix over 6 identities (5 simulating). */
std::vector<PlanRequest>
healTraffic()
{
    std::vector<PlanRequest> requests;
    auto add = [&requests](QueryKind kind, const std::string& gpu,
                           Scenario scenario) {
        PlanRequest req;
        req.id = strCat("h", requests.size() + 1);
        req.query = kind;
        req.gpu = gpu;
        req.scenario = scenario;
        requests.push_back(std::move(req));
    };
    add(QueryKind::MaxBatch, "A40", Scenario::gsMath());
    add(QueryKind::Throughput, "A40", Scenario::gsMath());
    add(QueryKind::Throughput, "H100", Scenario::gsMath());
    add(QueryKind::Throughput, "A40", Scenario::commonsense15k());
    add(QueryKind::Throughput, "H100", Scenario::commonsense15k());
    add(QueryKind::Throughput, "A40",
        Scenario::gsMath().withModel(ModelSpec::blackMamba2p8b()));
    return requests;
}

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

TEST(RouterHeal, KilledShardRejoinsWarmAndAnswersStayByteIdentical)
{
    // Topology: shard-a direct, shard-b behind a FaultProxy so the
    // test can kill the link at an exact moment and later point the
    // same endpoint at a fresh replacement process.
    NetServer shardA;
    ASSERT_TRUE(shardA.start().ok());
    NetServer shardB;
    ASSERT_TRUE(shardB.start().ok());

    FaultProxyConfig proxyConfig;
    proxyConfig.targetPort = shardB.port();
    FaultProxy proxy(proxyConfig);
    ASSERT_TRUE(proxy.start().ok());

    RouterConfig config;
    ShardEndpoint endA;
    endA.port = shardA.port();
    endA.name = "shard-a";
    ShardEndpoint endB;
    endB.port = proxy.port();
    endB.name = "shard-b";
    config.shards = {endA, endB};
    config.retryBudget = 2;
    config.reconnectBackoffMs = 20.0;  // Real clock: heal fast.
    config.reconnectBackoffMaxMs = 100.0;
    config.healTimeoutMs = 500.0;  // Keep a doomed heal attempt short.
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // Phase 1: warm the whole fleet and record the healthy answers.
    const std::vector<PlanRequest> requests = healTraffic();
    std::vector<std::string> healthy;
    {
        NetClient client = connectLoopback(router.port());
        for (const PlanRequest& req : requests) {
            Result<std::string> line =
                client.ask(writePlanRequest(req));
            ASSERT_TRUE(line.ok()) << line.error().message;
            EXPECT_NE(line.value().find("\"ok\":true"),
                      std::string::npos)
                << line.value();
            healthy.push_back(std::move(line.value()));
        }
    }

    // Phase 2: kill shard-b with requests provably in flight.
    // Mirror the ring to know how many requests it owns, stall its
    // response flow so they cannot complete, fill the pipeline, then
    // cut the link: the outstanding requests must replay on shard-a
    // and every answer must match the healthy run byte for byte.
    HashRing ring(config.virtualNodes);
    ring.addShard(0, "shard-a");
    ring.addShard(1, "shard-b");
    std::size_t doomed = 0;
    for (const PlanRequest& req : requests)
        if (ring.shardFor(req.canonicalKey()) == 1)
            ++doomed;
    // Deterministic placement split; pick different shard names if a
    // hash or traffic change ever empties a side.
    ASSERT_GT(doomed, 0u);
    ASSERT_LT(doomed, requests.size());

    FaultScript stall;
    stall.kind = FaultKind::Stall;
    stall.direction = FaultDirection::ServerToClient;
    proxy.setFault(stall);

    NetClient client = connectLoopback(router.port());
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    ASSERT_TRUE(eventually(5000.0, [&] {
        return router.statsRegistry()->snapshot().counter(
                   "router.forwarded") == 2 * requests.size();
    })) << "the router never forwarded the second batch";
    // Stop the old worker first so heal dials cannot reach it, then
    // cut the live link: the router sees a mid-pipeline death with
    // exactly `doomed` requests outstanding.
    shardB.stop();
    proxy.killConnections();
    proxy.clearFault();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok())
            << "request " << i << ": " << line.error().message;
        EXPECT_EQ(line.value(), healthy[i]);
    }

    // Phase 3: bring up a cold replacement on shard-b's endpoint and
    // let the heartbeat heal into it. The rejoiner must be warmed from
    // shard-a's snapshot before serving: zero plans compiled.
    NetServer shardB2;
    ASSERT_TRUE(shardB2.start().ok());
    proxy.setTarget("127.0.0.1", shardB2.port());
    ASSERT_TRUE(eventually(5000.0, [&] {
        return router.statsRegistry()->snapshot().counter(
                   "router.healed") == 1;
    })) << "shard-b never healed";

    const StatsSnapshot healedStats = router.statsRegistry()->snapshot();
    EXPECT_EQ(healedStats.find("router.shards_alive")->value, 2.0);
    EXPECT_EQ(healedStats.find("router.shard.shard-b.alive")->value, 1.0);
    EXPECT_EQ(healedStats.counter("router.shard.shard-b.heals"), 1u);
    EXPECT_GE(healedStats.counter("router.shard.shard-b.dials"), 1u);
    EXPECT_GE(healedStats.find("router.last_heal_ms")->value, 0.0);
    EXPECT_EQ(healedStats.counter("router.shard_failures"), 0u);
    EXPECT_EQ(healedStats.counter("router.retried"), doomed);

    // Every fleet-seen config replays byte-identically through the
    // healed fleet — and the rejoined shard compiled nothing: its
    // registry was warm-started, not rebuilt.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line =
            client.ask(writePlanRequest(requests[i]));
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_EQ(line.value(), healthy[i]);
    }
    EXPECT_EQ(shardB2.service().planRegistry()->plansCompiled(), 0u);
    EXPECT_GT(shardB2.service().planRegistry()->plansLoaded(), 0u);

    // The fleet view spells out the ledger.
    Result<std::string> fleet = client.ask("{\"query\":\"fleet\"}");
    ASSERT_TRUE(fleet.ok());
    EXPECT_NE(fleet.value().find("alive=2"), std::string::npos)
        << fleet.value();
    EXPECT_NE(fleet.value().find("healed=1"), std::string::npos)
        << fleet.value();
    EXPECT_NE(fleet.value().find("shard-b=alive"), std::string::npos)
        << fleet.value();

    router.stop();
    proxy.stop();
    shardA.stop();
    shardB2.stop();
}

TEST(RouterHeal, WedgedShardTripsDeadlineAndRequestsFailOver)
{
    // shard-fake accepts the router's upstream connection but never
    // answers: alive at the TCP level, dead at the protocol level.
    // Only the per-request deadline can unwedge its requests.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.retryBudget = 2;
    config.requestDeadlineMs = 100.0;
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());

    NetClient client = connectLoopback(router.port());
    const std::vector<PlanRequest> requests = healTraffic();
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());

    // The wedged shard's requests sit until the 100ms deadline trips,
    // then replay on shard-real: every answer is ok, none is lost.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok())
            << "request " << i << ": " << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos)
            << line.value();
    }

    const StatsSnapshot stats = router.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.deadline_expired"), 1u);
    EXPECT_GT(stats.counter("router.retried"), 0u);
    EXPECT_EQ(stats.counter("router.shard_failures"), 0u);
    EXPECT_EQ(stats.find("router.shard.shard-fake.alive")->value, 0.0);

    router.stop();
    real.stop();
}

TEST(RouterHeal, ReconnectBackoffIsExponentialOnTheInjectedClock)
{
    // One real shard (so the router starts) plus one shard that dies
    // immediately and whose endpoint stays dead: the heartbeat must
    // re-dial at reconnectBackoffMs, then double per failure up to the
    // cap — all on virtual time.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    std::atomic<double> now{0.0};
    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.reconnectBackoffMs = 100.0;
    config.reconnectBackoffMaxMs = 400.0;
    config.healTimeoutMs = 50.0;  // Dial failures resolve fast.
    config.clock = [&now] { return now.load(); };
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // Adopt + kill the upstream, and close the listener so every
    // re-dial is refused (nothing left to accept the handshake).
    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());
    fakeListener.value().close();
    fakeUpstream.close();

    const std::string fake = "router.shard.shard-fake.";
    auto dials = [&] {
        return router.statsRegistry()->snapshot().counter(fake + "dials");
    };
    ASSERT_TRUE(eventually(2000.0, [&] {
        return router.statsRegistry()->snapshot().find(fake + "alive")
                   ->value == 0.0;
    }));

    // Death at t≈0 arms the first dial at t=100. Virtual time stands
    // still, so nothing can fire yet no matter how long we wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(dials(), 0u);

    now.store(150.0);  // Past the first backoff: exactly one dial.
    ASSERT_TRUE(eventually(2000.0, [&] { return dials() >= 1; }));
    EXPECT_EQ(dials(), 1u);

    // The failed dial doubled the backoff to 200ms. t=250 is only
    // 100ms later — still inside it.
    now.store(250.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(dials(), 1u);

    now.store(10000.0);  // Far past every capped backoff.
    ASSERT_TRUE(eventually(2000.0, [&] { return dials() >= 2; }));

    // The fleet view names the lifecycle state while it heartbeats.
    NetClient client = connectLoopback(router.port());
    Result<std::string> fleet = client.ask("{\"query\":\"fleet\"}");
    ASSERT_TRUE(fleet.ok());
    EXPECT_NE(fleet.value().find("shard-fake="), std::string::npos)
        << fleet.value();
    EXPECT_EQ(fleet.value().find("shard-fake=alive"),
              std::string::npos)
        << fleet.value();

    router.stop();
    real.stop();
}

TEST(RouterHeal, RetryBudgetZeroRestoresFailFast)
{
    // With the budget off, a killed shard's in-flight requests answer
    // Unavailable exactly as before ISSUE-7 — the knob is honored.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.retryBudget = 0;
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());

    NetClient client = connectLoopback(router.port());
    const std::vector<PlanRequest> requests = healTraffic();
    std::size_t doomed = 0;
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fakeUpstream.close();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        if (line.value().find("\"ok\":false") != std::string::npos) {
            EXPECT_NE(line.value().find("Unavailable"),
                      std::string::npos)
                << line.value();
            ++doomed;
        }
    }
    EXPECT_GT(doomed, 0u);
    const StatsSnapshot stats = router.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.shard_failures"), doomed);
    EXPECT_EQ(stats.counter("router.retried"), 0u);

    router.stop();
    real.stop();
}

/**
 * While alive: SIGTERM ignored process-wide and blocked in this thread
 * (so in every thread it starts). Both survive fork+exec, and either
 * one keeps a child from dying on the router's shutdown SIGTERM.
 */
class SigtermIgnoredAndBlocked {
  public:
    SigtermIgnoredAndBlocked()
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigemptyset(&ignore.sa_mask);
        ::sigaction(SIGTERM, &ignore, &oldAction_);
        sigset_t term;
        sigemptyset(&term);
        sigaddset(&term, SIGTERM);
        ::pthread_sigmask(SIG_BLOCK, &term, &oldMask_);
    }

    ~SigtermIgnoredAndBlocked()
    {
        ::pthread_sigmask(SIG_SETMASK, &oldMask_, nullptr);
        ::sigaction(SIGTERM, &oldAction_, nullptr);
    }

    SigtermIgnoredAndBlocked(const SigtermIgnoredAndBlocked&) = delete;
    SigtermIgnoredAndBlocked& operator=(const SigtermIgnoredAndBlocked&) =
        delete;

  private:
    struct sigaction oldAction_ = {};
    sigset_t oldMask_;
};

/** `Name:\tvalue` lines of a /proc status dump, by name. */
std::map<std::string, std::string>
readStatusLines(const std::string& path)
{
    std::map<std::string, std::string> fields;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::size_t value = line.find_first_not_of(" \t", colon + 1);
        fields[line.substr(0, colon)] =
            value == std::string::npos ? "" : line.substr(value);
    }
    return fields;
}

TEST(RouterHeal, RespawnedChildStartsWithDefaultSignalsAndStopReapsIt)
{
    // The respawn command is a script that records its own signal
    // state, then sleeps as the same process until signalled. It reads
    // its status with builtins only: a shell blocks every signal for
    // a moment around each fork, so a forked reader could catch that.
    std::string dir = ::testing::TempDir() + "ftsim_respawn_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const std::string script = dir + "/respawn.sh";
    const std::string status = dir + "/status";
    {
        std::ofstream out(script);
        out << "#!/bin/sh\n"
            << "while IFS= read -r line; do\n"
            << "  case \"$line\" in Pid:*|SigBlk:*|SigIgn:*)"
            << " echo \"$line\";; esac\n"
            << "done < /proc/$$/status > " << status << ".tmp\n"
            << "mv " << status << ".tmp " << status << "\n"
            << "exec sleep 30\n";
    }
    ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

    SigtermIgnoredAndBlocked hostile;
    NetServer shard;
    ASSERT_TRUE(shard.start().ok());
    RouterConfig config;
    ShardEndpoint endpoint;
    endpoint.port = shard.port();
    config.shards = {endpoint};
    config.respawnCommand = script;
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // The router sees its only shard close and respawns it.
    shard.stop();
    ASSERT_TRUE(eventually(5000.0, [&] {
        return std::ifstream(status).good();
    })) << "the respawn command never ran";
    const std::map<std::string, std::string> fields =
        readStatusLines(status);
    ASSERT_EQ(fields.count("Pid"), 1u);
    ASSERT_EQ(fields.count("SigBlk"), 1u);
    ASSERT_EQ(fields.count("SigIgn"), 1u);
    const pid_t child = std::stoi(fields.at("Pid"));
    EXPECT_EQ(std::stoull(fields.at("SigBlk"), nullptr, 16), 0u);
    EXPECT_EQ(std::stoull(fields.at("SigIgn"), nullptr, 16) &
                  (1ull << (SIGTERM - 1)),
              0u)
        << "SigIgn: " << fields.at("SigIgn");

    // stop() SIGTERMs the child and reaps it. Should it hang, kill the
    // child so the test fails instead of hanging too.
    std::future<void> stopped =
        std::async(std::launch::async, [&router] { router.stop(); });
    const bool reaped = stopped.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
    if (!reaped)
        ::kill(child, SIGKILL);
    stopped.get();
    EXPECT_TRUE(reaped) << "router.stop() blocked reaping its child";
    EXPECT_EQ(
        router.statsRegistry()->snapshot().counter("router.respawned"),
        1u);
    EXPECT_EQ(::kill(child, 0), -1);
    EXPECT_EQ(errno, ESRCH);

    std::remove(status.c_str());
    std::remove(script.c_str());
    ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace ftsim
