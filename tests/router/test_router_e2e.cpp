/**
 * @file
 * End-to-end fleet tests: RouterServer in front of real NetServer
 * shards, all in-process on loopback.
 *
 * The claims under test are ISSUE-6's acceptance bar:
 *
 *  - a client speaking to the router gets byte-identical answers to a
 *    client speaking to one big in-process PlanService — routing is
 *    invisible at the protocol level;
 *  - duplicate requests land on the same shard, so the *fleet*
 *    simulates exactly distinct-config-many steps (the thundering-herd
 *    guarantee, preserved across processes);
 *  - `fleet` queries are answered by the router itself with shard
 *    health;
 *  - a shard dying mid-request answers `Unavailable` on exactly the
 *    requests outstanding on it — never a hang, never a crash — and
 *    the survivors keep serving everything afterwards;
 *  - with no shard left, requests answer `Unavailable` wholesale.
 *
 * Everything binds port 0 so parallel runs never collide.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
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

/** A duplicate-heavy request mix over 5 distinct configs. */
std::vector<PlanRequest>
fleetTraffic()
{
    std::vector<PlanRequest> requests;
    auto add = [&requests](QueryKind kind, const std::string& gpu,
                           Scenario scenario) {
        PlanRequest req;
        req.id = strCat("r", requests.size() + 1);
        req.query = kind;
        req.gpu = gpu;
        req.scenario = scenario;
        requests.push_back(std::move(req));
    };
    // 3 rounds of the same 6 questions = 18 requests, 6 identities.
    // The five throughput questions have distinct (gpu, scenario)
    // pairs, so each simulates its own step — exactly 5 steps
    // fleet-wide however the ring splits them (max_batch is analytic
    // and simulates none).
    for (int round = 0; round < 3; ++round) {
        add(QueryKind::MaxBatch, "A40", Scenario::gsMath());
        add(QueryKind::Throughput, "A40", Scenario::gsMath());
        add(QueryKind::Throughput, "H100", Scenario::gsMath());
        add(QueryKind::Throughput, "A40", Scenario::commonsense15k());
        add(QueryKind::Throughput, "H100",
            Scenario::commonsense15k());
        add(QueryKind::Throughput, "A40",
            Scenario::gsMath().withModel(ModelSpec::blackMamba2p8b()));
    }
    return requests;
}

/** Two real shards behind a router, started on background threads. */
class FleetFixture {
  public:
    FleetFixture()
    {
        for (auto& shard : shards_) {
            EXPECT_TRUE(shard.start().ok());
            ShardEndpoint endpoint;
            endpoint.port = shard.port();
            config_.shards.push_back(endpoint);
        }
        router_ = std::make_unique<RouterServer>(config_);
        EXPECT_TRUE(router_->start().ok());
    }

    ~FleetFixture()
    {
        if (router_)
            router_->stop();
        for (auto& shard : shards_)
            shard.stop();
    }

    RouterServer& router() { return *router_; }
    NetServer& shard(std::size_t i) { return shards_[i]; }

    /** The router's routing decision, mirrored (same names, same
     *  virtual-node count), so tests know which shard owns a key. */
    std::size_t expectedShard(const PlanRequest& request) const
    {
        HashRing ring(config_.virtualNodes);
        for (std::size_t i = 0; i < config_.shards.size(); ++i)
            ring.addShard(
                i, strCat(config_.shards[i].host, ':',
                          config_.shards[i].port));
        const int shard = ring.shardFor(request.canonicalKey());
        EXPECT_GE(shard, 0);
        return static_cast<std::size_t>(shard);
    }

  private:
    NetServer shards_[2];
    RouterConfig config_;
    std::unique_ptr<RouterServer> router_;
};

TEST(Router, FleetAnswersByteIdenticalToSingleService)
{
    FleetFixture fleet;
    const std::vector<PlanRequest> requests = fleetTraffic();

    // Pipeline everything through the router...
    NetClient client = connectLoopback(fleet.router().port());
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    std::vector<std::string> fleetAnswers;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        fleetAnswers.push_back(line.value());
    }

    // ...and ask one in-process service the same questions.
    PlanService reference;
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(fleetAnswers[i],
                  writePlanResponse(reference.ask(requests[i])))
            << "request " << requests[i].id;

    // The fleet coalesced like one service: across both shards,
    // exactly distinct-config-many steps ran, and every duplicate
    // coalesced on its shard (6 identities executed, 18 asked).
    const StatsSnapshot shard0 = fleet.shard(0).statsRegistry()->snapshot();
    const StatsSnapshot shard1 = fleet.shard(1).statsRegistry()->snapshot();
    const std::uint64_t fleetSteps =
        shard0.counter("serve.steps_simulated") +
        shard1.counter("serve.steps_simulated");
    EXPECT_EQ(fleetSteps, reference.statsRegistry()->snapshot().counter(
                              "serve.steps_simulated"));
    EXPECT_EQ(fleetSteps, 5u);
    EXPECT_EQ(shard0.counter("serve.executed") +
                  shard1.counter("serve.executed"),
              6u);

    // Duplicates landed on one shard each: every identity routed to
    // exactly the shard the ring names.
    const StatsSnapshot stats = fleet.router().statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.forwarded"), requests.size());
    EXPECT_EQ(stats.counter("router.responses"), requests.size());
    EXPECT_EQ(stats.counter("router.shard_failures"), 0u);
}

TEST(Router, FleetQueryIsAnsweredByTheRouter)
{
    FleetFixture fleet;
    NetClient client = connectLoopback(fleet.router().port());
    Result<std::string> line =
        client.ask("{\"id\":\"f1\",\"query\":\"fleet\"}");
    ASSERT_TRUE(line.ok()) << line.error().message;
    EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos);
    EXPECT_NE(line.value().find("\"id\":\"f1\""), std::string::npos);
    EXPECT_NE(line.value().find("shards=2"), std::string::npos);
    EXPECT_NE(line.value().find("alive=2"), std::string::npos);

    const StatsSnapshot stats = fleet.router().statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.fleet_queries"), 1u);
    // Never left the router.
    EXPECT_EQ(stats.counter("router.forwarded"), 0u);
    EXPECT_EQ(stats.find("router.shards_alive")->value, 2.0);
}

TEST(Router, StatsQueryAggregatesEveryShardWithRouterNamespace)
{
    FleetFixture fleet;
    const std::vector<PlanRequest> requests = fleetTraffic();
    NetClient client = connectLoopback(fleet.router().port());
    for (const PlanRequest& req : requests) {
        Result<std::string> answer =
            client.ask(writePlanRequest(req));
        ASSERT_TRUE(answer.ok()) << answer.error().message;
    }

    Result<std::string> scrape =
        client.ask("{\"id\":\"s1\",\"query\":\"stats\"}");
    ASSERT_TRUE(scrape.ok()) << scrape.error().message;
    const std::string& line = scrape.value();
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    EXPECT_NE(line.find("\"id\":\"s1\""), std::string::npos);
    // The merged document: the router's own registry under "router",
    // each shard's live scrape under "shards" keyed by ring name.
    EXPECT_NE(line.find("\"router\":{"), std::string::npos) << line;
    EXPECT_NE(line.find("\"shards\":{"), std::string::npos);
    EXPECT_NE(line.find("\"127.0.0.1:"), std::string::npos);
    // An internal probe is not client traffic: forwarded stays at
    // the 18 planning requests, and the scrape sees that exactly.
    EXPECT_NE(line.find(strCat("\"router.forwarded\":",
                               requests.size())),
              std::string::npos)
        << line;
    // Both shards answered with their own serve.* cells; combined
    // they executed the 6 distinct identities.
    EXPECT_NE(line.find("\"serve.executed\":"), std::string::npos);
    EXPECT_NE(line.find("\"router.shard."), std::string::npos);

    const StatsSnapshot stats = fleet.router().statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.stats_queries"), 1u);
    EXPECT_EQ(stats.counter("router.forwarded"), requests.size());
    EXPECT_EQ(stats.counter("router.shard_failures"), 0u);

    // value = number of shard pieces gathered.
    EXPECT_NE(line.find("\"value\":2"), std::string::npos) << line;
}

TEST(Router, MalformedLinePoisonsOnlyItself)
{
    FleetFixture fleet;
    NetClient client = connectLoopback(fleet.router().port());

    Result<std::string> bad = client.ask("{\"query\":\"nope\"}");
    ASSERT_TRUE(bad.ok());
    EXPECT_NE(bad.value().find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad.value().find("InvalidArgument"), std::string::npos);

    // The connection survived and routes the next request fine.
    PlanRequest req;
    req.id = "after";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    Result<std::string> good = client.ask(writePlanRequest(req));
    ASSERT_TRUE(good.ok());
    EXPECT_NE(good.value().find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(fleet.router().statsRegistry()->snapshot().counter(
                  "router.protocol_errors"),
              1u);
}

TEST(Router, DeadShardFailsOnlyItsRequestsAndSurvivorsKeepServing)
{
    // Shard 1 is a fake: a listener that accepts the router's
    // upstream connection but never answers — then we close it with
    // requests in flight.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    // Explicit ring names: the default host:port names would make
    // placement depend on the kernel's ephemeral port pick, and this
    // test needs a deterministic doomed set.
    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // The router connected at start; adopt its upstream socket.
    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());

    // Mirror the ring to know which requests the fake shard owns.
    HashRing ring(config.virtualNodes);
    ring.addShard(0, "shard-real");
    ring.addShard(1, "shard-fake");
    const std::vector<PlanRequest> requests = fleetTraffic();
    std::size_t doomed = 0;
    for (const PlanRequest& req : requests)
        if (ring.shardFor(req.canonicalKey()) == 1)
            ++doomed;
    // 6 identities over 2 named shards, deterministic placement: both
    // sides are populated (if a hash or traffic change ever unbalances
    // this, pick different shard names rather than weakening the
    // assertions below).
    ASSERT_GT(doomed, 0u);
    ASSERT_LT(doomed, requests.size());

    NetClient client = connectLoopback(router.port());
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());

    // Give the router time to forward, then kill the fake shard with
    // its requests in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fakeUpstream.close();

    // Failover (ISSUE-7): the doomed requests were retained by their
    // slots, so the router replays them on the survivor — every
    // request answers ok, none answers Unavailable.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok())
            << "request " << i << ": " << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos)
            << line.value();
        // Responses still arrive in request order: the id echoes.
        EXPECT_NE(line.value().find(strCat('"', requests[i].id, '"')),
                  std::string::npos)
            << line.value();
    }

    // The survivor now owns the whole keyspace: every request —
    // including the previously doomed identities — answers ok.
    for (const PlanRequest& req : requests) {
        Result<std::string> line = client.ask(writePlanRequest(req));
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos)
            << line.value();
    }

    const StatsSnapshot stats = router.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.retried"), doomed);
    EXPECT_EQ(stats.counter("router.shard_failures"), 0u);
    EXPECT_EQ(stats.find("router.shards_alive")->value, 1.0);
    EXPECT_EQ(stats.find("router.shard.shard-real.alive")->value, 1.0);
    EXPECT_EQ(stats.find("router.shard.shard-fake.alive")->value, 0.0);
    EXPECT_EQ(stats.counter("router.shard.shard-fake.dials"), 0u);

    // And the fleet view reports the death. Healing is off by default:
    // the dead shard is terminal down.
    Result<std::string> fleetLine =
        client.ask("{\"query\":\"fleet\"}");
    ASSERT_TRUE(fleetLine.ok());
    EXPECT_NE(fleetLine.value().find("alive=1"), std::string::npos);
    EXPECT_NE(fleetLine.value().find("shard-fake=down"), std::string::npos)
        << fleetLine.value();

    router.stop();
    real.stop();
}

TEST(Router, NoLiveShardsAnswersUnavailableWholesale)
{
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());
    RouterConfig config;
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    config.shards = {fakeEnd};
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());
    fakeUpstream.close();

    // Routing with the whole fleet dead: typed Unavailable, no hang.
    NetClient client = connectLoopback(router.port());
    PlanRequest req;
    req.id = "doomed";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    bool sawUnavailable = false;
    for (int attempt = 0; attempt < 200 && !sawUnavailable;
         ++attempt) {
        Result<std::string> line = client.ask(writePlanRequest(req));
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":false"),
                  std::string::npos);
        // The first request may race the death notice and fail as a
        // shard casualty; once the ring is empty the answer is the
        // wholesale "no live shards".
        sawUnavailable = line.value().find("Unavailable") !=
                         std::string::npos;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(sawUnavailable);
    EXPECT_EQ(
        router.statsRegistry()->snapshot().find("router.shards_alive")->value,
        0.0);

    router.stop();
}

TEST(Router, ConnectShardsFailsLoudlyOnUnreachableShard)
{
    // A port nothing listens on: grab an ephemeral port, then close
    // the listener so connecting to it is refused.
    std::uint16_t deadPort = 0;
    {
        Result<TcpListener> probe = TcpListener::bind("127.0.0.1", 0);
        ASSERT_TRUE(probe.ok());
        deadPort = probe.value().port();
    }
    RouterConfig config;
    ShardEndpoint dead;
    dead.port = deadPort;
    config.shards = {dead};
    RouterServer router(config);
    ASSERT_TRUE(router.bindListener().ok());
    Result<bool> connected = router.connectShards();
    ASSERT_FALSE(connected.ok());
    EXPECT_NE(connected.error().message.find(
                  strCat("127.0.0.1:", deadPort)),
              std::string::npos)
        << connected.error().message;
}

}  // namespace
}  // namespace ftsim
