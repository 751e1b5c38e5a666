/**
 * @file
 * Client-side containment is the same on both front doors: every
 * case here runs once against a NetServer directly and once through a
 * RouterServer whose only shard is that NetServer, and the answers
 * must match byte for byte, with the same `<prefix>.protocol_errors`
 * and `<prefix>.oversized_lines` counts.
 *
 * The cases are the protocol damage a client can do without killing
 * the process: an oversized JSON line, a binary frame cut short by
 * EOF, a frame that is not a request, blank lines, and a half-close
 * with answers still owed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "router/router.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {
namespace {

/** Frame cap on both front doors, small enough to cross cheaply. */
constexpr std::size_t kCapBytes = 256;

/** What one front door did with one input stream. */
struct Exchange {
    /** Every answer byte, in arrival order, up to the server's EOF. */
    std::string bytes;
    std::size_t answers = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t oversized = 0;
};

/**
 * Sends @p input in one write, half-closes, and reads answers until
 * the server closes. Frames are re-serialized exactly as they came:
 * a JSON line plus its '\n', a binary frame with its header.
 */
std::string
sendAndReadAll(std::uint16_t port, const std::string& input,
               std::size_t* answers)
{
    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", port, 10000.0);
    if (!client.ok()) {
        ADD_FAILURE() << client.error().message;
        return std::string();
    }
    EXPECT_TRUE(client.value().sendBytes(input).ok());
    client.value().finishSending();
    std::string bytes;
    *answers = 0;
    while (true) {
        Result<WireFramer::Frame> frame = client.value().recvFrame();
        if (!frame.ok())
            break;  // EOF: the server answered everything and closed.
        bytes += frame.value().binary
                     ? wireFrame(frame.value().payload)
                     : frame.value().payload + '\n';
        ++*answers;
    }
    return bytes;
}

/** Runs @p input against a fresh NetServer, then through a fresh
 *  router in front of it. */
void
runBothDoors(const std::string& input, Exchange& direct,
             Exchange& routed)
{
    NetServerConfig shardConfig;
    shardConfig.maxLineBytes = kCapBytes;
    NetServer shard(shardConfig);
    ASSERT_TRUE(shard.start().ok());

    RouterConfig routerConfig;
    ShardEndpoint endpoint;
    endpoint.port = shard.port();
    routerConfig.shards = {endpoint};
    routerConfig.maxLineBytes = kCapBytes;
    RouterServer router(routerConfig);
    ASSERT_TRUE(router.start().ok());

    direct.bytes = sendAndReadAll(shard.port(), input, &direct.answers);
    const StatsSnapshot shardStats = shard.statsRegistry()->snapshot();
    direct.protocolErrors = shardStats.counter("net.protocol_errors");
    direct.oversized = shardStats.counter("net.oversized_lines");

    routed.bytes = sendAndReadAll(router.port(), input, &routed.answers);
    const StatsSnapshot routerStats = router.statsRegistry()->snapshot();
    routed.protocolErrors =
        routerStats.counter("router.protocol_errors");
    routed.oversized = routerStats.counter("router.oversized_lines");

    router.stop();
    shard.stop();
}

/** Asserts both doors answered @p input identically, with the given
 *  answer and error counts, and returns the shared answer bytes. */
std::string
expectSameContainment(const std::string& input, std::size_t answers,
                      std::uint64_t protocolErrors,
                      std::uint64_t oversized)
{
    Exchange direct;
    Exchange routed;
    runBothDoors(input, direct, routed);
    EXPECT_EQ(direct.answers, answers);
    EXPECT_EQ(routed.answers, answers);
    EXPECT_EQ(routed.bytes, direct.bytes);
    EXPECT_EQ(direct.protocolErrors, protocolErrors);
    EXPECT_EQ(routed.protocolErrors, protocolErrors);
    EXPECT_EQ(direct.oversized, oversized);
    EXPECT_EQ(routed.oversized, oversized);
    return direct.bytes;
}

std::string
requestLine(const std::string& id)
{
    return strCat(R"({"id":")", id,
                  R"(","query":"max_batch","gpu":"A40"})", '\n');
}

std::string
requestFrame(const std::string& id)
{
    PlanRequest req;
    req.id = id;
    req.query = QueryKind::MaxBatch;
    req.gpu = "A40";
    return encodeRequestFrame(req);
}

TEST(RouterContainment, OversizedLineAnswersAnErrorAndFramingResumes)
{
    const std::string bytes = expectSameContainment(
        std::string(4 * kCapBytes, 'x') + '\n' + requestLine("after"),
        2, 1, 1);
    EXPECT_NE(bytes.find("request line exceeds 256 bytes"),
              std::string::npos)
        << bytes;
    EXPECT_NE(bytes.find(R"("id":"after")"), std::string::npos) << bytes;
}

TEST(RouterContainment, TruncatedFrameAtEofAnswersOneFinalError)
{
    const std::string frame = requestFrame("cut-short");
    const std::string bytes = expectSameContainment(
        requestLine("before") + frame.substr(0, frame.size() - 3), 2,
        1, 0);
    EXPECT_NE(bytes.find("truncated frame at EOF"), std::string::npos);
}

TEST(RouterContainment, NonRequestFrameAnswersAnErrorAndStreamSurvives)
{
    PlanResponse response;
    response.id = "not-a-request";
    response.query = QueryKind::MaxBatch;
    response.ok = true;
    const std::string bytes = expectSameContainment(
        encodeResponseFrame(response) + requestFrame("after"), 2, 1, 0);
    EXPECT_NE(bytes.find("expected a request frame"), std::string::npos);
}

TEST(RouterContainment, BlankLinesAreSkippedNotAnswered)
{
    expectSameContainment(strCat("\n", " \t\r\n", requestLine("a"),
                                 "\r\n", requestLine("b"), "  \n"),
                          2, 0, 0);
}

TEST(RouterContainment, HalfCloseStillAnswersEverythingSent)
{
    std::string input;
    for (int i = 0; i < 4; ++i)
        input += i % 2 == 0 ? requestLine(strCat("q", i))
                            : requestFrame(strCat("q", i));
    expectSameContainment(input, 4, 0, 0);
}

}  // namespace
}  // namespace ftsim
