/**
 * @file
 * Binary wire format through the router: frames forward byte-verbatim
 * to real NetServer shards and the answers come back framed, mixed
 * JSON+binary traffic shares one router connection (and one persistent
 * shard connection), and the router's own intercepts (fleet, stats)
 * answer in the request's format.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "router/router.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

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

/** Two real shards behind a router, started on background threads. */
class WireFleetFixture {
  public:
    WireFleetFixture()
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

    ~WireFleetFixture()
    {
        if (router_)
            router_->stop();
        for (auto& shard : shards_)
            shard.stop();
    }

    RouterServer& router() { return *router_; }
    NetServer& shard(std::size_t i) { return shards_[i]; }

  private:
    NetServer shards_[2];
    RouterConfig config_;
    std::unique_ptr<RouterServer> router_;
};

/** A small duplicate-heavy mix across both per-GPU and sweep kinds. */
std::vector<PlanRequest>
wireTraffic()
{
    std::vector<PlanRequest> requests;
    auto add = [&requests](QueryKind kind, const char* gpu) {
        PlanRequest req;
        req.id = strCat("w", requests.size() + 1);
        req.query = kind;
        if (kind == QueryKind::MaxBatch ||
            kind == QueryKind::Throughput)
            req.gpu = gpu;
        else
            req.gpus = {"A40", "H100"};
        requests.push_back(std::move(req));
    };
    for (int round = 0; round < 2; ++round) {
        add(QueryKind::MaxBatch, "A40");
        add(QueryKind::MaxBatch, "H100");
        add(QueryKind::CostTable, "");
        add(QueryKind::CheapestPlan, "");
    }
    return requests;
}

TEST(RouterWire, BinaryAnswersThroughTheFleetMatchTheJsonPath)
{
    WireFleetFixture fleet;
    const std::vector<PlanRequest> requests = wireTraffic();

    // JSON pass: the reference bytes (routing included).
    std::vector<std::string> jsonAnswers;
    {
        NetClient client = connectLoopback(fleet.router().port());
        for (const PlanRequest& req : requests)
            ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
        client.finishSending();
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Result<std::string> line = client.recvLine();
            ASSERT_TRUE(line.ok()) << line.error().message;
            jsonAnswers.push_back(std::move(line.value()));
        }
    }

    // Binary pass: same requests as frames, decoded back through the
    // JSON writer — byte-identical, slot for slot.
    {
        NetClient client = connectLoopback(fleet.router().port());
        for (const PlanRequest& req : requests)
            ASSERT_TRUE(
                client.sendBytes(encodeRequestFrame(req)).ok());
        client.finishSending();
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Result<WireFramer::Frame> frame = client.recvFrame();
            ASSERT_TRUE(frame.ok()) << frame.error().message;
            ASSERT_TRUE(frame.value().binary);
            Result<WireMessage> decoded =
                decodeWirePayload(frame.value().payload);
            ASSERT_TRUE(decoded.ok()) << decoded.error().message;
            ASSERT_EQ(decoded.value().type, WireMsg::Response);
            EXPECT_EQ(writePlanResponse(decoded.value().response),
                      jsonAnswers[i])
                << "slot " << i;
        }
    }

    // The duplicate-heavy mix coalesces identically in both passes:
    // the fleet simulated the distinct configs once per pass.
    const StatsSnapshot stats = fleet.router().statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.forwarded"), 2 * requests.size());
    EXPECT_EQ(stats.counter("router.protocol_errors"), 0u);
}

TEST(RouterWire, MixedFormatsShareOneRouterConnection)
{
    WireFleetFixture fleet;
    NetClient client = connectLoopback(fleet.router().port());

    PlanRequest req;
    req.id = "mix";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";

    // JSON then binary then JSON, pipelined down one connection —
    // and therefore interleaved down the same persistent shard
    // connection, which must keep both formats apart.
    ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(req)).ok());
    ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    client.finishSending();

    Result<WireFramer::Frame> first = client.recvFrame();
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_FALSE(first.value().binary);
    Result<WireFramer::Frame> second = client.recvFrame();
    ASSERT_TRUE(second.ok()) << second.error().message;
    ASSERT_TRUE(second.value().binary);
    Result<WireFramer::Frame> third = client.recvFrame();
    ASSERT_TRUE(third.ok()) << third.error().message;
    EXPECT_FALSE(third.value().binary);
    EXPECT_EQ(first.value().payload, third.value().payload);

    Result<WireMessage> decoded =
        decodeWirePayload(second.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(writePlanResponse(decoded.value().response),
              first.value().payload);
}

TEST(RouterWire, InterceptsAnswerInTheRequestFormat)
{
    WireFleetFixture fleet;
    NetClient client = connectLoopback(fleet.router().port());

    // fleet: composed by the router itself, returned as a frame.
    PlanRequest fleetReq;
    fleetReq.id = "f1";
    fleetReq.query = QueryKind::Fleet;
    ASSERT_TRUE(
        client.sendBytes(encodeRequestFrame(fleetReq)).ok());
    Result<WireFramer::Frame> fleetFrame = client.recvFrame();
    ASSERT_TRUE(fleetFrame.ok()) << fleetFrame.error().message;
    ASSERT_TRUE(fleetFrame.value().binary);
    Result<WireMessage> fleetMsg =
        decodeWirePayload(fleetFrame.value().payload);
    ASSERT_TRUE(fleetMsg.ok()) << fleetMsg.error().message;
    EXPECT_TRUE(fleetMsg.value().response.ok);
    EXPECT_EQ(fleetMsg.value().response.value, 2.0);
    EXPECT_NE(fleetMsg.value().response.report.find("shards=2"),
              std::string::npos);

    // stats: scatter-gathered over JSON probes shard-side, but the
    // client's answer still arrives framed.
    PlanRequest statsReq;
    statsReq.id = "s1";
    statsReq.query = QueryKind::Stats;
    ASSERT_TRUE(
        client.sendBytes(encodeRequestFrame(statsReq)).ok());
    Result<WireFramer::Frame> statsFrame = client.recvFrame();
    ASSERT_TRUE(statsFrame.ok()) << statsFrame.error().message;
    ASSERT_TRUE(statsFrame.value().binary);
    Result<WireMessage> statsMsg =
        decodeWirePayload(statsFrame.value().payload);
    ASSERT_TRUE(statsMsg.ok()) << statsMsg.error().message;
    EXPECT_TRUE(statsMsg.value().response.ok);
    EXPECT_EQ(statsMsg.value().response.value, 2.0);
    EXPECT_NE(statsMsg.value().response.statsJson.find("\"router\":"),
              std::string::npos);
}

TEST(RouterWire, UndecodableFrameIsAnsweredNotForwarded)
{
    WireFleetFixture fleet;
    NetClient client = connectLoopback(fleet.router().port());

    // Well-framed, undecodable payload: the router answers the typed
    // error itself — no shard sees it — and the connection survives.
    ASSERT_TRUE(client.sendBytes(wireFrame("\x01\x63")).ok());
    Result<WireFramer::Frame> err = client.recvFrame();
    ASSERT_TRUE(err.ok()) << err.error().message;
    ASSERT_TRUE(err.value().binary);
    Result<WireMessage> decoded =
        decodeWirePayload(err.value().payload);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_EQ(decoded.value().type, WireMsg::ProtocolError);

    PlanRequest req;
    req.id = "ok";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(req)).ok());
    Result<WireFramer::Frame> answer = client.recvFrame();
    ASSERT_TRUE(answer.ok()) << answer.error().message;
    EXPECT_TRUE(answer.value().binary);

    const StatsSnapshot stats = fleet.router().statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("router.forwarded"), 1u);
    EXPECT_EQ(stats.counter("router.protocol_errors"), 1u);
}

TEST(RouterWire, FramingDamageKillsOnlyThatClientConnection)
{
    WireFleetFixture fleet;
    NetClient victim = connectLoopback(fleet.router().port());
    NetClient bystander = connectLoopback(fleet.router().port());

    PlanRequest req;
    req.id = "v";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    std::string frame = encodeRequestFrame(req);
    frame[3] = 0x44;  // Bad version byte.
    ASSERT_TRUE(victim.sendBytes(frame).ok());

    Result<WireFramer::Frame> lastWords = victim.recvFrame();
    ASSERT_TRUE(lastWords.ok()) << lastWords.error().message;
    ASSERT_TRUE(lastWords.value().binary);
    Result<WireMessage> decoded =
        decodeWirePayload(lastWords.value().payload);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().type, WireMsg::ProtocolError);
    EXPECT_NE(decoded.value().errorMessage.find("version"),
              std::string::npos);
    EXPECT_FALSE(victim.recvFrame().ok());  // Connection died.

    // The router (and the fleet behind it) keeps serving.
    req.id = "b";
    Result<std::string> alive =
        bystander.ask(writePlanRequest(req));
    ASSERT_TRUE(alive.ok()) << alive.error().message;
    EXPECT_NE(alive.value().find("\"ok\":true"), std::string::npos);
}

}  // namespace
}  // namespace ftsim
