/**
 * @file
 * Socket-level tests for wire-format negotiation.
 *
 * One daemon, no mode switch: the first byte of each frame selects
 * its codec, so a JSON client, a binary client, and a client that
 * interleaves both all talk to the same default server. These tests
 * pin the negotiation edge cases the spec (docs/PROTOCOL.md) calls
 * out: mixed formats on one connection, semantic errors keeping a
 * connection alive, and framing damage (bad version, zero-length,
 * over-cap, truncated frames) killing exactly one connection — with
 * one final typed error frame — while the daemon keeps serving.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
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

PlanRequest
maxBatchRequest(const char* id, const char* gpu = "A40")
{
    PlanRequest req;
    req.id = id;
    req.query = QueryKind::MaxBatch;
    req.gpu = gpu;
    return req;
}

/** Receives one frame, asserts it is binary, and decodes it. */
WireMessage
recvBinary(NetClient& client)
{
    Result<WireFramer::Frame> frame = client.recvFrame();
    if (!frame.ok()) {
        ADD_FAILURE() << frame.error().message;
        return WireMessage();
    }
    EXPECT_TRUE(frame.value().binary)
        << "got JSON: " << frame.value().payload;
    Result<WireMessage> decoded =
        decodeWirePayload(frame.value().payload);
    if (!decoded.ok()) {
        ADD_FAILURE() << decoded.error().message;
        return WireMessage();
    }
    return decoded.value();
}

TEST(NetWireE2E, BinaryAnswersMatchTheJsonPathByteForByte)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());

    const PlanRequest req = maxBatchRequest("wire-1");

    // JSON connection first: the reference bytes.
    NetClient jsonClient = connectLoopback(server.port());
    Result<std::string> jsonAnswer =
        jsonClient.ask(writePlanRequest(req));
    ASSERT_TRUE(jsonAnswer.ok()) << jsonAnswer.error().message;

    // Binary connection: same request as a frame.
    NetClient binClient = connectLoopback(server.port());
    ASSERT_TRUE(binClient.sendBytes(encodeRequestFrame(req)).ok());
    WireMessage answer = recvBinary(binClient);
    ASSERT_EQ(answer.type, WireMsg::Response);
    EXPECT_TRUE(answer.response.ok);
    EXPECT_EQ(writePlanResponse(answer.response), jsonAnswer.value());

    server.stop();
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.wire.requests"), 1u);
    EXPECT_EQ(stats.counter("net.requests"), 2u);
    EXPECT_EQ(stats.counter("net.wire.poisoned"), 0u);
}

TEST(NetWireE2E, MixedFormatsInterleaveOnOneConnection)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());

    // Pipeline JSON, binary, JSON, binary down the same socket; each
    // answer must come back in its request's format, in order.
    const PlanRequest a = maxBatchRequest("a");
    const PlanRequest b = maxBatchRequest("b", "H100");
    ASSERT_TRUE(client.sendLine(writePlanRequest(a)).ok());
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(b)).ok());
    ASSERT_TRUE(client.sendLine(writePlanRequest(b)).ok());
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(a)).ok());

    Result<WireFramer::Frame> first = client.recvFrame();
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_FALSE(first.value().binary);

    WireMessage second = recvBinary(client);
    ASSERT_EQ(second.type, WireMsg::Response);
    EXPECT_EQ(second.response.id, "b");
    // Same bytes, different wires: the binary answer re-serializes to
    // the JSON answer the same request got one slot later.
    Result<WireFramer::Frame> third = client.recvFrame();
    ASSERT_TRUE(third.ok()) << third.error().message;
    EXPECT_FALSE(third.value().binary);
    EXPECT_EQ(writePlanResponse(second.response),
              third.value().payload);

    WireMessage fourth = recvBinary(client);
    EXPECT_EQ(fourth.response.id, "a");
    EXPECT_EQ(writePlanResponse(fourth.response),
              first.value().payload);

    server.stop();
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.requests"), 4u);
    EXPECT_EQ(stats.counter("net.wire.requests"), 2u);
}

TEST(NetWireE2E, SemanticErrorsKeepTheConnectionAlive)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());

    // Unknown GPU: decodes fine, the *service* rejects it — a typed
    // response frame, not a framing problem.
    ASSERT_TRUE(client
                    .sendBytes(encodeRequestFrame(
                        maxBatchRequest("bad-gpu", "NoSuchGpu")))
                    .ok());
    WireMessage rejected = recvBinary(client);
    ASSERT_EQ(rejected.type, WireMsg::Response);
    EXPECT_FALSE(rejected.response.ok);
    EXPECT_EQ(rejected.response.errorCode, "UnknownGpu");

    // Well-framed garbage payload: decode fails, the connection
    // answers a protocol-error frame and keeps serving.
    ASSERT_TRUE(client.sendBytes(wireFrame("\x01\x09")).ok());
    WireMessage garbage = recvBinary(client);
    ASSERT_EQ(garbage.type, WireMsg::ProtocolError);
    EXPECT_NE(garbage.errorMessage.find("bad frame"),
              std::string::npos);

    // A response frame where a request belongs is rejected too.
    PlanResponse bogus;
    bogus.query = QueryKind::MaxBatch;
    bogus.ok = true;
    bogus.value = 1.0;
    ASSERT_TRUE(client.sendBytes(encodeResponseFrame(bogus)).ok());
    WireMessage misdirected = recvBinary(client);
    ASSERT_EQ(misdirected.type, WireMsg::ProtocolError);
    EXPECT_NE(misdirected.errorMessage.find("request"),
              std::string::npos);

    // ...and the connection still answers real work afterwards.
    ASSERT_TRUE(client
                    .sendBytes(encodeRequestFrame(
                        maxBatchRequest("still-alive")))
                    .ok());
    WireMessage alive = recvBinary(client);
    ASSERT_EQ(alive.type, WireMsg::Response);
    EXPECT_TRUE(alive.response.ok);

    server.stop();
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.wire.poisoned"), 0u);
    EXPECT_EQ(stats.counter("net.protocol_errors"), 2u);
}

/** Framing damage: one final error frame, then the connection dies —
 *  and only that connection. */
void
expectPoisonKillsConnection(const std::string& hostileBytes,
                            const char* expectInReason)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());

    NetClient victim = connectLoopback(server.port());
    NetClient bystander = connectLoopback(server.port());

    ASSERT_TRUE(victim.sendBytes(hostileBytes).ok());
    WireMessage lastWords = recvBinary(victim);
    ASSERT_EQ(lastWords.type, WireMsg::ProtocolError);
    EXPECT_NE(lastWords.errorMessage.find(expectInReason),
              std::string::npos)
        << lastWords.errorMessage;
    // Nothing more: the server closed the poisoned connection.
    Result<WireFramer::Frame> eof = victim.recvFrame();
    EXPECT_FALSE(eof.ok());

    // The daemon itself is fine — a fresh exchange on the other
    // connection, in both formats.
    Result<std::string> json = bystander.ask(
        writePlanRequest(maxBatchRequest("bystander")));
    ASSERT_TRUE(json.ok()) << json.error().message;
    ASSERT_TRUE(bystander
                    .sendBytes(encodeRequestFrame(
                        maxBatchRequest("bystander")))
                    .ok());
    WireMessage bin = recvBinary(bystander);
    EXPECT_EQ(writePlanResponse(bin.response), json.value());

    server.stop();
    EXPECT_EQ(
        server.statsRegistry()->snapshot().counter("net.wire.poisoned"),
        1u);
}

TEST(NetWireE2E, BadVersionPoisonsOnlyItsConnection)
{
    std::string frame =
        encodeRequestFrame(maxBatchRequest("doomed"));
    frame[3] = 0x63;
    expectPoisonKillsConnection(frame, "version");
}

TEST(NetWireE2E, ZeroLengthFramePoisonsOnlyItsConnection)
{
    std::string frame =
        encodeRequestFrame(maxBatchRequest("doomed"));
    frame[4] = frame[5] = frame[6] = frame[7] = 0;
    expectPoisonKillsConnection(frame.substr(0, kWireHeaderBytes),
                                "empty frame");
}

TEST(NetWireE2E, OversizedFramePoisonsOnlyItsConnection)
{
    // Length prefix over NetServerConfig::maxLineBytes (1 MiB): the
    // server refuses at the header, before buffering any payload.
    std::string frame =
        encodeRequestFrame(maxBatchRequest("doomed"));
    frame[4] = '\x01';
    frame[5] = '\x00';
    frame[6] = '\x00';
    frame[7] = '\x7f';
    expectPoisonKillsConnection(frame.substr(0, kWireHeaderBytes),
                                "cap");
}

TEST(NetWireE2E, TruncatedFrameAnswersAnErrorAtEof)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());

    const std::string frame =
        encodeRequestFrame(maxBatchRequest("cut-short"));
    ASSERT_TRUE(
        client.sendBytes(frame.substr(0, frame.size() - 3)).ok());
    client.finishSending();  // EOF lands mid-frame.

    WireMessage lastWords = recvBinary(client);
    ASSERT_EQ(lastWords.type, WireMsg::ProtocolError);
    EXPECT_NE(lastWords.errorMessage.find("truncated"),
              std::string::npos);
    EXPECT_FALSE(client.recvFrame().ok());

    server.stop();
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.wire.poisoned"), 1u);
    EXPECT_EQ(stats.counter("net.requests"), 0u);
}

TEST(NetWireE2E, LiveQueriesWorkInBinary)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());

    // snapshot -> load_snapshot round trip entirely in binary; the
    // snapshot payload rides raw (no base64) in both directions.
    PlanRequest snap;
    snap.query = QueryKind::Snapshot;
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(snap)).ok());
    WireMessage snapshot = recvBinary(client);
    ASSERT_EQ(snapshot.type, WireMsg::Response);
    ASSERT_TRUE(snapshot.response.ok);

    PlanRequest load;
    load.query = QueryKind::LoadSnapshot;
    load.snapshot = snapshot.response.snapshot;
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(load)).ok());
    WireMessage loaded = recvBinary(client);
    ASSERT_EQ(loaded.type, WireMsg::Response);
    EXPECT_TRUE(loaded.response.ok);

    PlanRequest stats;
    stats.query = QueryKind::Stats;
    ASSERT_TRUE(client.sendBytes(encodeRequestFrame(stats)).ok());
    WireMessage scraped = recvBinary(client);
    ASSERT_EQ(scraped.type, WireMsg::Response);
    EXPECT_TRUE(scraped.response.ok);
    EXPECT_NE(scraped.response.statsJson.find("net.wire.requests"),
              std::string::npos);

    server.stop();
}

}  // namespace
}  // namespace ftsim
