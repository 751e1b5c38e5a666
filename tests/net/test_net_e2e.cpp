/**
 * @file
 * Socket-level end-to-end tests for the network front end.
 *
 * Everything PR-3/PR-4 guaranteed in-process must survive the TCP hop:
 *
 *  - the golden wire bytes (tests/integration/golden_serve_e2e.jsonl)
 *    come back byte-exact through a real socket, governance included;
 *  - a thundering herd of duplicate requests across N *connections*
 *    still simulates exactly distinct-config-many steps;
 *  - RateLimited / InvalidArgument arrive as typed wire errors, and a
 *    malformed or oversized line poisons only its own connection;
 *  - graceful shutdown drains in-flight requests before closing;
 *  - idle connections are reaped by the idle timeout.
 *
 * Servers bind port 0 (kernel-assigned) so parallel test runs never
 * collide.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "stats_rows.hpp"

#ifndef FTSIM_SOURCE_DIR
#error "FTSIM_SOURCE_DIR must point at the repo root (set by CMake)"
#endif

namespace ftsim {
namespace {

std::string
sourcePath(const std::string& relative)
{
    return std::string(FTSIM_SOURCE_DIR) + "/" + relative;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

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

TEST(NetE2E, GoldenOutputIsByteExactOverASocket)
{
    // The exact ServiceConfig the in-process golden test and the ci.sh
    // CLI pipe use: bounded caches + burst-1 token bucket.
    NetServerConfig config;
    config.service.maxAnswers = 4;
    config.service.maxPlanners = 2;
    config.service.tenantRps = 0.000001;
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    std::vector<std::string> requests =
        readLines(sourcePath("examples/serve_requests.jsonl"));
    const std::vector<std::string> governed = readLines(
        sourcePath("examples/serve_requests_governed.jsonl"));
    requests.insert(requests.end(), governed.begin(), governed.end());
    const std::vector<std::string> golden = readLines(
        sourcePath("tests/integration/golden_serve_e2e.jsonl"));
    ASSERT_FALSE(requests.empty());

    NetClient client = connectLoopback(server.port());
    std::size_t sent = 0;
    for (const std::string& line : requests) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        ASSERT_TRUE(client.sendLine(line).ok());
        ++sent;
    }
    std::vector<std::string> output;
    for (std::size_t i = 0; i < sent; ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        output.push_back(line.value());
    }

    ASSERT_EQ(output.size(), golden.size());
    for (std::size_t i = 0; i < output.size(); ++i)
        EXPECT_EQ(output[i], golden[i]) << "line " << i + 1;

    // The socket hop preserved the governance behavior, and the
    // service counted this connection's traffic under its label.
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_GE(stats.counter("serve.rate_limited"), 2u);
    EXPECT_GT(stats.counter("serve.answers.evicted"), 0u);
    const auto sources = statRows(stats, "serve.source.", "requests");
    ASSERT_EQ(sources.size(), 1u);
    EXPECT_EQ(sources.begin()->second, sent);
    server.stop();
}

TEST(NetE2E, ThunderingHerdAcrossConnectionsSimulatesDistinctOnce)
{
    // 16 connections all pipeline the same 3 throughput questions (+1
    // max_batch): across sockets the fleet must still simulate exactly
    // 3 distinct step configs, the PR-3 acceptance invariant.
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    const std::uint16_t port = server.port();

    const std::vector<std::string> probes = {
        R"({"id":"q1","query":"throughput","gpu":"A40"})",
        R"({"id":"q2","query":"throughput","gpu":"H100"})",
        R"({"id":"q3","query":"throughput","gpu":"A40",)"
        R"("scenario":{"preset":"commonsense15k"}})",
        R"({"id":"q4","query":"max_batch","gpu":"A40"})",
    };

    constexpr int kConnections = 16;
    std::vector<std::vector<std::string>> answers(kConnections);
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c)
        clients.emplace_back([port, &probes, &answers, c] {
            Result<NetClient> client =
                NetClient::connectTo("127.0.0.1", port);
            ASSERT_TRUE(client.ok());
            for (const std::string& probe : probes)
                ASSERT_TRUE(client.value().sendLine(probe).ok());
            for (std::size_t i = 0; i < probes.size(); ++i) {
                Result<std::string> line = client.value().recvLine();
                ASSERT_TRUE(line.ok());
                answers[c].push_back(line.value());
            }
        });
    for (std::thread& thread : clients)
        thread.join();

    // Everyone got identical (successful) answers, in request order.
    for (int c = 0; c < kConnections; ++c) {
        ASSERT_EQ(answers[c].size(), probes.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_EQ(answers[c][i], answers[0][i]);
            EXPECT_NE(answers[c][i].find("\"ok\":true"),
                      std::string::npos);
        }
    }

    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("serve.steps_simulated"), 3u);
    EXPECT_EQ(stats.counter("serve.requests"),
              static_cast<std::uint64_t>(kConnections) * probes.size());
    EXPECT_EQ(stats.counter("serve.executed"), probes.size());
    EXPECT_EQ(stats.counter("serve.coalesced"),
              stats.counter("serve.requests") -
                  stats.counter("serve.executed"));
    // One stats bucket per connection, each counting its 4 requests.
    const auto sources = statRows(stats, "serve.source.", "requests");
    EXPECT_EQ(sources.size(), static_cast<std::size_t>(kConnections));
    for (const auto& [label, requests] : sources)
        EXPECT_EQ(requests, probes.size()) << label;
    server.stop();
}

TEST(NetE2E, MalformedLinePoisonsOnlyItsConnection)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());

    NetClient bad = connectLoopback(server.port());
    NetClient good = connectLoopback(server.port());

    // The malformed line answers a typed error in its slot...
    Result<std::string> err = bad.ask("this is not json");
    ASSERT_TRUE(err.ok());
    EXPECT_NE(err.value().find("\"ok\":false"), std::string::npos);
    EXPECT_NE(err.value().find("InvalidArgument"), std::string::npos);
    // ...and the *same connection* keeps serving afterwards.
    Result<std::string> after =
        bad.ask(R"({"id":"a","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(),
              R"({"id":"a","query":"max_batch","ok":true,"value":4})");

    // The other connection never noticed.
    Result<std::string> other =
        good.ask(R"({"id":"b","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(other.ok());
    EXPECT_EQ(other.value(),
              R"({"id":"b","query":"max_batch","ok":true,"value":4})");

    EXPECT_EQ(
        server.statsRegistry()->snapshot().counter("net.protocol_errors"),
        1u);
    server.stop();
}

TEST(NetE2E, OversizedLineAnswersProtocolErrorAndConnectionSurvives)
{
    NetServerConfig config;
    config.maxLineBytes = 256;
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    NetClient client = connectLoopback(server.port());
    const std::string huge(1024, 'x');
    ASSERT_TRUE(client.sendLine(huge).ok());
    Result<std::string> err = client.recvLine();
    ASSERT_TRUE(err.ok());
    EXPECT_NE(err.value().find("exceeds 256 bytes"), std::string::npos);
    EXPECT_NE(err.value().find("\"ok\":false"), std::string::npos);

    // Framing recovered at the newline: the next request answers.
    Result<std::string> after =
        client.ask(R"({"id":"ok","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(),
              R"({"id":"ok","query":"max_batch","ok":true,"value":4})");

    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.oversized_lines"), 1u);
    server.stop();
}

TEST(NetE2E, RateLimitedArrivesAsTypedWireError)
{
    NetServerConfig config;
    config.service.tenantRps = 0.000001;  // Burst 1 per tenant.
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    NetClient client = connectLoopback(server.port());
    Result<std::string> first = client.ask(
        R"({"id":"m1","tenant":"mallory","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(first.ok());
    EXPECT_NE(first.value().find("\"ok\":true"), std::string::npos);
    Result<std::string> second = client.ask(
        R"({"id":"m2","tenant":"mallory","query":"max_batch","gpu":"H100"})");
    ASSERT_TRUE(second.ok());
    EXPECT_NE(second.value().find("\"error\":\"RateLimited\""),
              std::string::npos);
    EXPECT_NE(second.value().find("\"id\":\"m2\""), std::string::npos);
    server.stop();
}

TEST(NetE2E, GracefulStopDrainsInflightAnswers)
{
    // Submit a report-sized request, then immediately request stop:
    // the answer must still compute, flush, and arrive before the
    // connection closes — SIGTERM never loses admitted work.
    NetServerConfig config;
    config.service.workers = 1;
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    NetClient client = connectLoopback(server.port());
    ASSERT_TRUE(
        client
            .sendLine(R"({"id":"slow","query":"report","gpu":"A40"})")
            .ok());
    // Wait until the loop has *admitted* the request before stopping,
    // so the test exercises "drain in-flight", not "reject unread
    // input" (requests is bumped at submission).
    while (server.statsRegistry()->snapshot().counter("serve.requests") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.requestStop();

    Result<std::string> slow = client.recvLine();
    ASSERT_TRUE(slow.ok()) << slow.error().message;
    EXPECT_NE(slow.value().find("\"id\":\"slow\""), std::string::npos);
    EXPECT_NE(slow.value().find("\"ok\":true"), std::string::npos);
    // After the drain the server closes the connection...
    Result<std::string> eof = client.recvLine();
    EXPECT_FALSE(eof.ok());
    server.stop();
    EXPECT_TRUE(server.stopped());
    // ...and the listener: new connects are refused.
    Result<NetClient> refused =
        NetClient::connectTo("127.0.0.1", server.port());
    EXPECT_FALSE(refused.ok());
}

TEST(NetE2E, StatsQueryScrapesTheLiveRegistryOverTheWire)
{
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());

    Result<std::string> first = client.ask(
        R"({"id":"q1","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(first.ok());
    Result<std::string> second = client.ask(
        R"({"id":"q2","query":"max_batch","gpu":"H100"})");
    ASSERT_TRUE(second.ok());

    Result<std::string> scrape =
        client.ask(R"({"id":"s1","query":"stats"})");
    ASSERT_TRUE(scrape.ok()) << scrape.error().message;
    const std::string& line = scrape.value();
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    EXPECT_NE(line.find("\"id\":\"s1\""), std::string::npos);
    EXPECT_NE(line.find("\"stats\":{"), std::string::npos);
    // One registry covers both layers: the front end's net.* cells
    // and the service's serve.* cells arrive in the same scrape, and
    // the scrape observes itself (requests count before answering).
    EXPECT_NE(line.find("\"net.conn.accepted\":1"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"net.requests\":3"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"serve.requests\":3"), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"serve.executed\":"), std::string::npos);

    // A second scrape is answered fresh, never cached: it must see
    // the first one in the request counters.
    Result<std::string> again =
        client.ask(R"({"id":"s2","query":"stats"})");
    ASSERT_TRUE(again.ok());
    EXPECT_NE(again.value().find("\"net.requests\":4"),
              std::string::npos)
        << again.value();

    server.stop();
    EXPECT_EQ(server.statsRegistry()->snapshot().counter(
                  "net.requests"),
              4u);
}

TEST(NetE2E, IdleTimeoutReapsQuietConnections)
{
    NetServerConfig config;
    config.idleTimeoutMs = 50.0;
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    NetClient client = connectLoopback(server.port());
    // An active exchange works...
    Result<std::string> answer =
        client.ask(R"({"id":"x","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(answer.ok());
    // ...then silence: the server closes the connection (EOF), the
    // idle reaper's doing, not an error.
    Result<std::string> eof = client.recvLine();
    EXPECT_FALSE(eof.ok());
    EXPECT_EQ(
        server.statsRegistry()->snapshot().counter("net.idle_closed"),
        1u);
    server.stop();
}

TEST(NetE2E, HalfCloseStillAnswersEverythingSent)
{
    // A client that sends its batch and shuts down its write side
    // (ftsim_client's pattern) still receives every answer.
    NetServer server;
    ASSERT_TRUE(server.start().ok());
    NetClient client = connectLoopback(server.port());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(
            client
                .sendLine(strCat(R"({"id":"q)", i,
                                 R"(","query":"max_batch","gpu":"A40"})"))
                .ok());
    client.finishSending();
    for (int i = 0; i < 4; ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_NE(line.value().find(strCat("\"id\":\"q", i, '"')),
                  std::string::npos);
    }
    server.stop();
}

}  // namespace
}  // namespace ftsim
