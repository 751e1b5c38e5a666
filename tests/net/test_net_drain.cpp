/**
 * @file
 * Drain-deadline tests (ISSUE-6 satellite): SIGTERM must not hang on
 * a peer that stops reading.
 *
 * The pre-deadline graceful stop waits until every connection has
 * flushed — correct for well-behaved clients, a livelock against a
 * stalled one (its kernel buffers fill, writes return WouldBlock
 * forever, the drain never completes). `drainDeadlineMs` bounds that
 * patience: connections still owing bytes past the deadline are
 * force-closed and counted in `forcedClosed`.
 *
 * Determinism comes from two injected knobs: `sendBufferBytes` shrinks
 * SO_SNDBUF so a stalled peer backs the server up with kilobytes (not
 * megabytes) of traffic, and `NetServerConfig::clock` is a virtual
 * clock the test advances past the deadline by hand — no real-time
 * sleeps deciding pass/fail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/protocol.hpp"

namespace ftsim {
namespace {

/** A request whose response is big (a full markdown report). */
std::string
reportLine(int i)
{
    PlanRequest req;
    req.id = strCat("q", i);
    req.query = QueryKind::Report;
    req.gpu = "A40";
    return writePlanRequest(req);
}

/** Spins (real time, bounded) until @p done or ~5s elapse. */
template <typename Predicate>
bool
eventually(const Predicate& done)
{
    for (int spin = 0; spin < 1000; ++spin) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
}

TEST(NetDrain, DeadlineForceClosesAStalledPeer)
{
    auto now = std::make_shared<std::atomic<double>>(0.0);
    NetServerConfig config;
    config.sendBufferBytes = 4096;
    config.drainDeadlineMs = 500.0;
    config.clock = [now] { return now->load(); };
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    // A client that pipelines big questions and then never reads: the
    // answers jam in the tiny send buffer and the connection can
    // never drain on its own.
    // ~1.1 KB per report answer x 4096 requests (all coalescing onto
    // one execution) is megabytes of response bytes — far beyond the
    // clamped send buffer plus the peer's receive window, so the
    // connection genuinely cannot drain.
    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const int kRequests = 4096;
    for (int i = 0; i < kRequests; ++i)
        ASSERT_TRUE(client.value().sendLine(reportLine(i)).ok());

    // Wait until everything is admitted and the write side is wedged
    // (some answers flushed into the kernel buffers, the rest can't).
    ASSERT_TRUE(eventually([&server, kRequests] {
        return server.statsRegistry()->snapshot().counter(
                   "serve.requests") ==
               static_cast<std::uint64_t>(kRequests);
    }));
    ASSERT_TRUE(eventually([&server] {
        return server.statsRegistry()->snapshot().counter(
                   "net.responses") >= 1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.requestStop();
    // The drain's deadline counts from the virtual time the loop saw
    // the stop, so the clock may only move once the drain has begun.
    ASSERT_TRUE(eventually([&server] {
        const StatsSnapshot stats = server.statsRegistry()->snapshot();
        const StatEntry* draining = stats.find("net.draining");
        return draining != nullptr && draining->num() == 1.0;
    }));
    // Virtual time never moved, so the deadline has not passed; the
    // server must still be draining, not dropping the connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(server.stopped());
    EXPECT_EQ(
        server.statsRegistry()->snapshot().counter("net.forced_closed"),
        0u);

    // Cross the deadline. The 20ms stop-phase poll tick notices.
    now->store(501.0);
    ASSERT_TRUE(eventually([&server] { return server.stopped(); }));
    EXPECT_GE(
        server.statsRegistry()->snapshot().counter("net.forced_closed"),
        1u);
    server.stop();
}

TEST(NetDrain, DeadlineSparesPeersThatDrain)
{
    auto now = std::make_shared<std::atomic<double>>(0.0);
    NetServerConfig config;
    config.sendBufferBytes = 4096;
    config.drainDeadlineMs = 500.0;
    config.clock = [now] { return now->load(); };
    NetServer server(config);
    ASSERT_TRUE(server.start().ok());

    // A well-behaved pipelining client: sends, stops, then reads
    // everything. The deadline must never fire on it.
    Result<NetClient> client =
        NetClient::connectTo("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    const int kRequests = 16;
    for (int i = 0; i < kRequests; ++i)
        ASSERT_TRUE(client.value().sendLine(reportLine(i)).ok());
    client.value().finishSending();
    // Stop only once everything is admitted: a stop request halts
    // reading, and unread input would be dropped (by design).
    ASSERT_TRUE(eventually([&server, kRequests] {
        return server.statsRegistry()->snapshot().counter(
                   "serve.requests") ==
               static_cast<std::uint64_t>(kRequests);
    }));
    server.requestStop();
    // Time advances, but stays under the deadline while the client
    // drains (the force-close must not fire early or spuriously).
    now->store(499.0);

    for (int i = 0; i < kRequests; ++i) {
        Result<std::string> line = client.value().recvLine();
        ASSERT_TRUE(line.ok()) << "response " << i << ": "
                               << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos);
    }
    ASSERT_TRUE(eventually([&server] { return server.stopped(); }));
    // Nobody owed bytes once the client read them: no forced closes,
    // all answers intact.
    const StatsSnapshot stats = server.statsRegistry()->snapshot();
    EXPECT_EQ(stats.counter("net.forced_closed"), 0u);
    EXPECT_EQ(stats.counter("net.responses"),
              static_cast<std::uint64_t>(kRequests));
    server.stop();
}

}  // namespace
}  // namespace ftsim
