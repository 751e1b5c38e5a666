/**
 * @file
 * FaultProxy tests (ISSUE-7): the chaos proxy itself, and the framing
 * and router layers driven *through* it under injected partial writes,
 * short reads, stalls, half-closes, and truncation.
 *
 * The claims under test:
 *
 *  - transparent mode forwards byte-exactly, including with seeded
 *    random chunking (same seed, same split points — determinism is
 *    the whole product);
 *  - each fault kind does exactly what it says, at the scripted byte
 *    offset, and is counted;
 *  - the per-direction buffer is bounded: a wedged sink backpressures
 *    the source instead of growing memory (peakBufferedBytes pins it);
 *  - `NetClient --timeout-ms` turns a scripted stall into a typed
 *    `Unavailable` instead of an infinite block;
 *  - a NetServer and a RouterServer fronted through a chunking proxy
 *    still answer every pipelined request in order — LineFramer
 *    reassembly and the router's positional slot fill survive
 *    arbitrary fragmentation with no desync.
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
#include "net/fault_proxy.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "router/router.hpp"
#include "serve/protocol.hpp"

namespace ftsim {
namespace {

/** An echo-line peer: accepts one connection, echoes every received
 *  byte back, until the client half-closes. */
class EchoServer {
  public:
    EchoServer()
    {
        Result<TcpListener> listener = TcpListener::bind("127.0.0.1", 0);
        EXPECT_TRUE(listener.ok());
        listener_ = std::move(listener.value());
        thread_ = std::thread([this] { run(); });
    }

    ~EchoServer()
    {
        if (thread_.joinable())
            thread_.join();
    }

    std::uint16_t port() const { return listener_.port(); }

  private:
    void run()
    {
        Connection conn;
        for (int spin = 0; spin < 2000 && !conn.valid(); ++spin) {
            conn = listener_.accept();
            if (!conn.valid())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        if (!conn.valid())
            return;
        char buf[4096];
        while (true) {
            const IoResult io = conn.readSome(buf, sizeof(buf));
            if (io.status == IoStatus::Ok) {
                std::size_t sent = 0;
                while (sent < io.bytes) {
                    const IoResult out = conn.writeSome(
                        buf + sent, io.bytes - sent);
                    if (out.status == IoStatus::Ok)
                        sent += out.bytes;
                    else if (out.status != IoStatus::WouldBlock)
                        return;
                }
            } else if (io.status == IoStatus::WouldBlock) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            } else {
                return;
            }
        }
    }

    TcpListener listener_;
    std::thread thread_;
};

FaultProxy
makeProxy(std::uint16_t targetPort, std::uint64_t seed = 0,
          std::size_t maxChunk = 0)
{
    FaultProxyConfig config;
    config.targetPort = targetPort;
    config.seed = seed;
    config.maxChunkBytes = maxChunk;
    return FaultProxy(config);
}

TEST(FaultProxy, TransparentModeForwardsByteExact)
{
    EchoServer echo;
    FaultProxy proxy = makeProxy(echo.port());
    ASSERT_TRUE(proxy.start().ok());

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 50; ++i) {
        const std::string line = strCat("line-", i, "-", std::string(
            static_cast<std::size_t>(1 + i * 7), 'x'));
        Result<std::string> back = client.value().ask(line);
        ASSERT_TRUE(back.ok()) << back.error().message;
        EXPECT_EQ(back.value(), line);
    }

    // The proxy counts forwarded bytes only after each write returns,
    // so the client can read its last echo before the count lands:
    // read the counters once stop() has joined the loop.
    proxy.stop();
    const FaultProxyStats stats = proxy.stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.faultsInjected, 0u);
    EXPECT_EQ(stats.bytesClientToServer, stats.bytesServerToClient);
}

TEST(FaultProxy, SeededChunkingIsTransparentAndDeterministic)
{
    // Same traffic through two proxies with the same seed: identical
    // forwarded bytes (trivially — chunking must not corrupt) and
    // identical *observable* outcome. A third, different seed still
    // forwards byte-exactly: fragmentation is invisible above TCP.
    for (const std::uint64_t seed : {7u, 7u, 1234u}) {
        EchoServer echo;
        FaultProxy proxy = makeProxy(echo.port(), seed, 3);
        ASSERT_TRUE(proxy.start().ok());
        Result<NetClient> client =
            NetClient::connectTo("127.0.0.1", proxy.port());
        ASSERT_TRUE(client.ok());
        std::string payload;
        for (int i = 0; i < 40; ++i)
            payload += strCat("chunked-", seed, "-", i, ";");
        Result<std::string> back = client.value().ask(payload);
        ASSERT_TRUE(back.ok()) << back.error().message;
        EXPECT_EQ(back.value(), payload);
        proxy.stop();
    }
}

TEST(FaultProxy, CloseFaultKillsAfterExactOffset)
{
    EchoServer echo;
    FaultProxy proxy = makeProxy(echo.port());
    ASSERT_TRUE(proxy.start().ok());

    // Let exactly 8 client bytes through, then drop the link.
    FaultScript script;
    script.kind = FaultKind::Close;
    script.direction = FaultDirection::ClientToServer;
    script.afterBytes = 8;
    proxy.setFault(script);

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port(), 2000.0);
    ASSERT_TRUE(client.ok());
    // "12345678" + '\n': the newline crosses the 8-byte budget, so the
    // echo never sees a full line and the link dies under the client.
    Result<std::string> back = client.value().ask("12345678");
    ASSERT_FALSE(back.ok());

    proxy.stop();  // Joins the loop: the counters are final.
    const FaultProxyStats stats = proxy.stats();
    EXPECT_EQ(stats.faultsInjected, 1u);
    EXPECT_EQ(stats.connectionsKilled, 1u);
    EXPECT_EQ(stats.bytesClientToServer, 8u);
}

TEST(FaultProxy, StallWedgesAndClientTimeoutTurnsItTyped)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    FaultProxy proxy = makeProxy(server.port());
    ASSERT_TRUE(proxy.start().ok());

    // Wedge the response direction from byte zero: the server answers,
    // the proxy holds the bytes, the client sees... nothing, forever —
    // unless it armed a timeout.
    FaultScript script;
    script.kind = FaultKind::Stall;
    script.direction = FaultDirection::ServerToClient;
    proxy.setFault(script);

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port(), 150.0);
    ASSERT_TRUE(client.ok());
    PlanRequest req;
    req.id = "stalled";
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    Result<std::string> back =
        client.value().ask(writePlanRequest(req));
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, ErrorCode::Unavailable);
    EXPECT_NE(back.error().message.find("timed out"),
              std::string::npos)
        << back.error().message;

    // clearFault releases the held bytes: the answer was never lost.
    proxy.clearFault();
    Result<std::string> released = client.value().recvLine();
    ASSERT_TRUE(released.ok()) << released.error().message;
    EXPECT_NE(released.value().find("\"ok\":true"), std::string::npos);

    proxy.stop();
    EXPECT_EQ(proxy.stats().faultsInjected, 1u);
    server.stop();
}

TEST(FaultProxy, HalfCloseDeliversEofMidStream)
{
    EchoServer echo;
    FaultProxy proxy = makeProxy(echo.port());
    ASSERT_TRUE(proxy.start().ok());

    // After 6 echoed bytes the client-facing side sees EOF, but the
    // reverse direction keeps flowing (the echo still gets bytes).
    FaultScript script;
    script.kind = FaultKind::HalfClose;
    script.direction = FaultDirection::ServerToClient;
    script.afterBytes = 6;
    proxy.setFault(script);

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port(), 2000.0);
    ASSERT_TRUE(client.ok());
    Result<std::string> first = client.value().ask("12345");
    ASSERT_TRUE(first.ok()) << first.error().message;  // 5 + '\n' = 6.
    EXPECT_EQ(first.value(), "12345");
    Result<std::string> second = client.value().ask("more");
    ASSERT_FALSE(second.ok());  // EOF mid-stream, not a timeout.
    EXPECT_NE(second.error().message.find("closed"),
              std::string::npos)
        << second.error().message;

    proxy.stop();
    EXPECT_EQ(proxy.stats().faultsInjected, 1u);
}

TEST(FaultProxy, TruncateDiscardsSilently)
{
    EchoServer echo;
    FaultProxy proxy = makeProxy(echo.port());
    ASSERT_TRUE(proxy.start().ok());

    // Client bytes past 6 vanish: the echo answers only the first
    // line; the second request dissolves and the client times out.
    FaultScript script;
    script.kind = FaultKind::Truncate;
    script.direction = FaultDirection::ClientToServer;
    script.afterBytes = 6;
    proxy.setFault(script);

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port(), 150.0);
    ASSERT_TRUE(client.ok());
    Result<std::string> first = client.value().ask("12345");
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_EQ(first.value(), "12345");
    Result<std::string> second = client.value().ask("vanishes");
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::Unavailable);

    proxy.stop();
    EXPECT_EQ(proxy.stats().faultsInjected, 1u);
    EXPECT_EQ(proxy.stats().bytesClientToServer, 6u);
}

TEST(FaultProxy, BufferIsBoundedUnderAWedgedSink)
{
    // A stalled response direction with a chatty server: the proxy
    // buffers at most maxBufferBytes, then backpressures its read
    // side. Memory stays bounded no matter how long the wedge lasts.
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    FaultProxyConfig config;
    config.targetPort = server.port();
    config.maxBufferBytes = 2048;
    FaultProxy proxy(config);
    ASSERT_TRUE(proxy.start().ok());

    FaultScript script;
    script.kind = FaultKind::Stall;
    script.direction = FaultDirection::ServerToClient;
    proxy.setFault(script);

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", proxy.port(), 100.0);
    ASSERT_TRUE(client.ok());
    // Pipeline enough requests that the held responses dwarf the cap.
    PlanRequest req;
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    for (int i = 0; i < 200; ++i) {
        req.id = strCat("b", i);
        ASSERT_TRUE(
            client.value().sendLine(writePlanRequest(req)).ok());
    }
    EXPECT_FALSE(client.value().recvLine().ok());  // All wedged.

    proxy.stop();
    const FaultProxyStats stats = proxy.stats();
    EXPECT_LE(stats.peakBufferedBytes, 2048u);
    EXPECT_GT(stats.peakBufferedBytes, 0u);
    server.stop();
}

TEST(FaultProxy, RouterThroughChunkingProxyStaysInOrder)
{
    // The integration claim: a router whose shard link is shredded
    // into 1..5 byte fragments still answers every pipelined request
    // in order — LineFramer reassembly and positional slot fill never
    // desynchronize.
    NetServer shard;
    ASSERT_TRUE(shard.start().ok());
    FaultProxy proxy = makeProxy(shard.port(), /*seed=*/42,
                                 /*maxChunk=*/5);
    ASSERT_TRUE(proxy.start().ok());

    RouterConfig config;
    ShardEndpoint endpoint;
    endpoint.port = proxy.port();
    endpoint.name = "shard-chunked";
    config.shards = {endpoint};
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", router.port());
    ASSERT_TRUE(client.ok());
    std::vector<std::string> ids;
    PlanRequest req;
    req.query = QueryKind::MaxBatch;
    for (int i = 0; i < 60; ++i) {
        req.id = strCat("frag", i);
        req.gpu = i % 2 == 0 ? "A40" : "H100";
        ids.push_back(req.id);
        ASSERT_TRUE(
            client.value().sendLine(writePlanRequest(req)).ok());
    }
    for (const std::string& id : ids) {
        Result<std::string> line = client.value().recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_NE(line.value().find(strCat('"', id, '"')),
                  std::string::npos)
            << "out of order: wanted " << id << " got "
            << line.value();
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos)
            << line.value();
    }

    EXPECT_EQ(router.statsRegistry()->snapshot().counter(
                  "router.shard_failures"),
              0u);
    router.stop();
    proxy.stop();
    shard.stop();
}

}  // namespace
}  // namespace ftsim
