#ifndef FTSIM_NET_SERVER_HPP
#define FTSIM_NET_SERVER_HPP

/**
 * @file
 * The network front end: a poll-based TCP server over the
 * `PlanService` JSON-lines protocol.
 *
 * `NetServer` owns one in-process `PlanService`, an `EventLoop` (see
 * net/event_loop.hpp) and a `ClientFrontEnd` (see net/front_end.hpp).
 * The front end does all client-side work shared with the router:
 * accepting, framing (a frame opening with 0xF7 is a binary frame of
 * serve/wire.hpp, anything else a JSON line; each response is written
 * in its request's format), protocol errors, write-back **per
 * connection in request order**, the idle timeout and the drain. The
 * policy `NetServer` adds is one handler: each decoded request is
 * submitted to the service with a per-connection source label and a
 * completion callback that wakes the loop. Answers compute out of
 * order across the worker pool; each connection's answer queue
 * re-sequences them, exactly like `ftsim_serve` re-sequences a file.
 * On one usable CPU the service has no pool: the loop thread plans
 * the miss inside submit(), the future is ready on return, and the
 * front end writes it in the same round, exactly as for a cache hit.
 *
 * Error containment mirrors the in-process service:
 *  - a frame that fails to parse/decode answers a typed protocol
 *    error in its slot and the connection keeps serving;
 *  - a JSON line that crosses the frame cap answers a protocol error
 *    and the rest of that line is discarded;
 *  - binary *framing* damage (bad magic/version, zero or over-cap
 *    length prefix, a frame truncated by EOF) cannot be recovered
 *    from — the connection answers one final error frame and closes;
 *    only that connection dies, never the process;
 *  - quota overflow answers `{"ok":false,"error":"RateLimited",...}`;
 *  - a socket error poisons only its connection, never the process.
 *
 * Shutdown (`requestStop()`, safe to call from a signal handler —
 * it only stores an atomic and writes one byte to the wake pipe):
 * the loop stops accepting and stops *reading*, but every request
 * already admitted drains — its answer is computed, written back, and
 * flushed — before the connections and the listener close. SIGTERM
 * never loses an in-flight answer.
 *
 * Concurrency model: one loop thread does all socket IO and all
 * framing/parsing. With more than one usable CPU the PlanService
 * worker pool does all planning: the loop never blocks on a
 * computation (futures are polled only when ready, the wake pipe
 * signals readiness), and workers never touch a socket. On one usable
 * CPU the loop thread plans, since a worker could only take turns
 * with it on that core (see ServiceConfig::workers). `run()` drives
 * the loop on the caller's thread (the daemon); `start()` spawns it on
 * a background thread (tests, the bench).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/result.hpp"
#include "serve/plan_service.hpp"

namespace ftsim {

/** Construction knobs for a NetServer. */
struct NetServerConfig {
    /** Bind address (numeric IPv4 or resolvable name). */
    std::string host = "127.0.0.1";
    /** Bind port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;
    /**
     * Open connections served at once. At the cap the listener is
     * simply not polled — further connects queue in the kernel backlog
     * until a slot frees instead of being reset.
     */
    std::size_t maxConnections = 64;
    /**
     * Close a connection with no in-flight requests after this much
     * quiet, ms; 0 = never. Clients are expected to reconnect.
     */
    double idleTimeoutMs = 0.0;
    /** Frame cap: longest accepted request line, bytes. */
    std::size_t maxLineBytes = 1 << 20;
    /**
     * Graceful-shutdown patience, ms: once a stop is requested, a
     * connection that still has unflushed output (or unanswered
     * requests) after this long is force-closed instead of holding
     * the drain hostage — a stalled peer that never reads must not
     * turn SIGTERM into a hang. 0 = wait forever (the pre-deadline
     * behavior). Counted in `net.forced_closed`.
     */
    double drainDeadlineMs = 0.0;
    /**
     * SO_SNDBUF for accepted connections, bytes; 0 = kernel default.
     * Mainly a test knob: a tiny buffer makes "peer stopped reading"
     * reproducible without megabytes of traffic.
     */
    int sendBufferBytes = 0;
    /**
     * Virtual clock in ms for the loop's timers (idle timeout, drain
     * deadline); null = the real monotonic clock. Tests inject a
     * controllable clock to cross the drain deadline deterministically.
     * Independent of ServiceConfig::clock (admission timing).
     */
    std::function<double()> clock;
    /** The in-process service being fronted (governance included). */
    ServiceConfig service;
};

/** Poll-based TCP front end over a PlanService (see file comment). */
class NetServer {
  public:
    explicit NetServer(NetServerConfig config = {});

    /** Stops the loop (dropping unflushed writes), joins, closes. */
    ~NetServer();

    NetServer(const NetServer&) = delete;
    NetServer& operator=(const NetServer&) = delete;

    /** Binds + listens. Must succeed before run()/start(). */
    Result<bool> bindListener();

    /** The bound port (after bindListener; 0 before). */
    std::uint16_t port() const;

    /** Runs the event loop on this thread until requestStop(). */
    void run();

    /** bindListener() + run() on a background thread. */
    Result<bool> start();

    /**
     * Asks the loop to shut down gracefully: stop accepting, stop
     * reading, drain every admitted request, flush, close. Safe from
     * any thread and from a signal handler (atomic store + one
     * write(2) on the wake pipe; no locks).
     */
    void requestStop();

    /** requestStop() + join the start() thread (no-op without one). */
    void stop();

    /** True once run() has returned. */
    bool stopped() const { return loop_done_.load(); }

    /** The fronted service (stats, registry). */
    PlanService& service();

    /** The shard-wide stats registry: this front end's `net.*` cells
     *  and the fronted service's `serve.*`/`planner.*` cells live in
     *  the same instance (one `stats` scrape covers the process).
     *  Shared from NetServerConfig::service.statsRegistry when set. */
    const std::shared_ptr<StatsRegistry>& statsRegistry() const;

  private:
    struct Impl;  ///< Loop, front end and service.
    std::unique_ptr<Impl> impl_;
    std::thread loop_thread_;
    std::atomic<bool> loop_done_{false};
};

}  // namespace ftsim

#endif  // FTSIM_NET_SERVER_HPP
