#ifndef FTSIM_NET_FRONT_END_HPP
#define FTSIM_NET_FRONT_END_HPP

/**
 * @file
 * The client side of a daemon, shared by `NetServer` and `RouterServer`.
 *
 * `ClientFrontEnd` does everything a daemon does for its client
 * connections except decide what a request means:
 *  - accept under `maxConnections` (at the cap the listener is not
 *    polled, so further connects wait in the kernel backlog);
 *  - frame each connection's bytes with a `WireFramer` (JSON lines and
 *    binary frames, negotiated per frame);
 *  - turn each frame into a `PlanRequest`, or answer a typed protocol
 *    error in its slot: an oversized JSON line, an undecodable binary
 *    payload, a frame that is not a request, or bad JSON. Blank lines
 *    are skipped. Binary framing damage, and a binary frame cut short
 *    by EOF, answer one final error frame and close the connection;
 *  - keep each connection's answers in request order and pump the
 *    ready ones into its `OutBuffer`;
 *  - close connections that half-closed and drained, died, or stayed
 *    idle past `idleTimeoutMs`; on stop, drain gracefully: no new
 *    connections or input, but every admitted request still answers
 *    and flushes, unless `drainDeadlineMs` runs out first.
 *
 * The daemon's policy is one `Handler` that turns a decoded request
 * into a `ClientAnswer` slot: `NetServer` submits to its `PlanService`
 * and the slot completes from the returned future; `RouterServer`
 * forwards to a shard and fills the slot from the shard's response, or
 * composes the answer itself.
 *
 * Counters, under the daemon's prefix `<p>`: `<p>.conn.accepted`,
 * `<p>.conn.closed`, `<p>.responses`, `<p>.protocol_errors`,
 * `<p>.oversized_lines`, `<p>.wire.poisoned`, `<p>.idle_closed` and
 * `<p>.forced_closed`.
 *
 * All of it runs on the daemon's loop thread. A round is: `sweep()`,
 * `watch()`, the daemon's own watches, `EventLoop::poll()`,
 * `onPolled()`, the daemon's own events, `flush()`.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/stats_registry.hpp"
#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/protocol.hpp"

namespace ftsim {

/** One answer owed to a client, written back in request order. */
struct ClientAnswer {
    /** The request's id, echoed on answers the daemon completes. */
    std::string id;
    /** The request arrived as a binary frame; the answer goes back
     *  binary too (a response always follows its request's format). */
    bool binary = false;
    bool ready = false;
    /** The answer once ready: a JSON line (no '\n') or a complete
     *  binary frame. */
    std::string bytes;
    /** A service answer still computing. When the slot reaches the
     *  front of its queue the front end polls it and completes the
     *  slot with `id` stamped on (coalesced futures share ids). */
    std::shared_future<PlanResponse> future;

    /** Readies the slot with @p response in the request's format. */
    void complete(const PlanResponse& response);
};

/** Caps and timers of one ClientFrontEnd, copied from the daemon's
 *  config (see NetServerConfig for each field's meaning). */
struct FrontEndSettings {
    /** Stats cell prefix ("net", "router"). */
    std::string prefix;
    std::size_t maxConnections = 0;
    /** Frame cap: longest JSON line or binary payload, bytes. */
    std::size_t maxLineBytes = 0;
    /** Idle close after this many quiet ms; 0 = never. */
    double idleTimeoutMs = 0.0;
    /** Force-close connections still owing bytes this long after a
     *  stop; 0 = wait forever. */
    double drainDeadlineMs = 0.0;
    /** SO_SNDBUF for accepted connections; 0 = kernel default. */
    int sendBufferBytes = 0;
};

/** Client connections of one daemon (see file comment). */
class ClientFrontEnd {
  public:
    /**
     * Turns one decoded request into its answer slot (never null).
     * @p source labels the connection ("peer#n"); @p frame is the
     * request's frame, whose payload the handler may move from.
     */
    using Handler = std::function<std::shared_ptr<ClientAnswer>(
        const std::string& source, PlanRequest& request,
        WireFramer::Frame& frame)>;

    ClientFrontEnd(FrontEndSettings settings, EventLoop& loop,
                   StatsRegistry& stats, Handler handler);
    ~ClientFrontEnd();

    ClientFrontEnd(const ClientFrontEnd&) = delete;
    ClientFrontEnd& operator=(const ClientFrontEnd&) = delete;

    /** Binds + listens the client-facing socket. */
    Result<bool> bind(const std::string& host, std::uint16_t port);

    /** The bound port (after bind; 0 before). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Starts a round: begins the graceful drain once the loop has a
     * stop request, and removes closed connections. False once the
     * drain has closed every connection — the daemon's loop is done.
     */
    bool sweep();

    /** Adds the listener and every connection to the next poll. */
    void watch();

    /** The poll timeout the idle and drain timers need, ms; -1 when
     *  no timer is armed. */
    int timeoutMs() const;

    /** After poll: accepts, reads, and hands requests to the handler. */
    void onPolled();

    /** Writes every ready answer, then applies the drain deadline and
     *  the idle timeout. */
    void flush();

  private:
    struct Conn;

    void acceptPending(double now);
    void readInput(Conn& conn, double now);
    void handleFrame(Conn& conn, WireFramer::Frame& frame);
    void answerError(Conn& conn, bool binary, const std::string& message);
    void poison(Conn& conn, const std::string& reason);
    void pump(Conn& conn, double now);

    FrontEndSettings settings_;
    EventLoop& loop_;
    Handler handler_;
    TcpListener listener_;
    std::vector<std::unique_ptr<Conn>> conns_;
    bool accepting_ = false;  ///< The listener is watched this round.
    std::size_t listenerWatch_ = 0;
    bool draining_ = false;
    double drainStartMs_ = 0.0;

    StatsCounter& accepted_;
    StatsCounter& closed_;
    StatsCounter& responses_;
    StatsCounter& protocolErrors_;
    StatsCounter& oversized_;
    StatsCounter& poisoned_;
    StatsCounter& idleClosed_;
    StatsCounter& forcedClosed_;
};

}  // namespace ftsim

#endif  // FTSIM_NET_FRONT_END_HPP
