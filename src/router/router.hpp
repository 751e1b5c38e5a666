#ifndef FTSIM_ROUTER_ROUTER_HPP
#define FTSIM_ROUTER_ROUTER_HPP

/**
 * @file
 * The fleet front door: a consistent-hash router over shard workers.
 *
 * `RouterServer` accepts client connections on the same JSON-lines
 * protocol the shards speak, and forwards every request — the original
 * line, byte-verbatim — to one of N upstream `ftsim_served` shards
 * chosen by consistent-hashing the request's `canonicalKey()` (the
 * tenant-excluded identity; see serve/protocol.hpp). Duplicate requests
 * therefore always land on the same shard, where the PlanService
 * coalesces them, so the whole fleet simulates exactly
 * distinct-config-many steps — the single-service thundering-herd
 * guarantee, preserved across processes (the fleet bench pins it).
 *
 * Topology and data flow, on one thread:
 *
 *     clients --> RouterServer --> shard 0 (ftsim_served)
 *                     |----------> shard 1
 *                     `----------> shard N-1
 *
 *  - Client connections are the `ClientFrontEnd` of net/front_end.hpp,
 *    the same code that serves `NetServer`'s clients: accept,
 *    framing, protocol errors and request-order write-back behave
 *    identically on both front doors. The router's policy is the
 *    handler it gives the front end, which routes each decoded
 *    request; shard connections share the `EventLoop` (see
 *    net/event_loop.hpp) with it.
 *  - One persistent pipelined connection per shard, opened at start.
 *  - Each forwarded request pushes a shared answer *slot* onto both
 *    its client connection's pending queue and its shard connection's
 *    outstanding queue. Shards answer per connection in request order
 *    (the NetServer re-sequencing contract), so each shard response
 *    line fills that shard's oldest outstanding slot — no id matching
 *    needed, and the router never reparses responses.
 *
 * Requests the router answers itself:
 *  - lines that fail to parse (typed protocol error, connection lives);
 *  - `fleet` queries (shard health + per-shard routed counters — ask a
 *    shard's port directly for *its* counters);
 *  - `stats` queries (ISSUE-8): scatter-gathered, not routed. The
 *    router fans `{"query":"stats"}` to every alive shard over the
 *    normal outstanding queues, slices the flat stats object out of
 *    each response byte-verbatim, and answers one merged document —
 *    `{"router":{...own registry...},"shards":{"<name>":{...},...}}` —
 *    with `null` for a shard that died mid-scrape. Internal stats
 *    fetches never count as forwarded/routed traffic;
 *  - anything routed while no shard is alive (`Unavailable`).
 *
 * Shard failure — retry/failover (ISSUE-7): every planning query is
 * pure and replayable, and each slot retains its original request
 * line, so a dying shard no longer poisons its in-flight requests.
 * The dead shard's ring points are removed (consistent hashing moves
 * only its keys) and every outstanding slot is *re-forwarded* to the
 * surviving owner of its key — bounded by `retryBudget` attempts per
 * request — so a kill mid-pipeline yields zero wrong and zero lost
 * answers, byte-identical to a single-service run. A typed
 * `Unavailable` remains only for budget exhaustion or an empty fleet.
 * `requestDeadlineMs` arms a per-attempt answer deadline: an alive
 * shard that sits on a request longer is declared wedged and handled
 * exactly like a death (failover included).
 *
 * Shard healing — supervised reconnect and warm rejoin: with
 * `reconnectBackoffMs` set, a dead shard enters a heartbeat loop
 * (exponential backoff, capped, driven by the injectable `clock`) that
 * re-dials its endpoint without ever blocking the event loop
 * (non-blocking connect + POLLOUT). Once the dial lands, the shard is
 * *warmed before it serves*: the router fetches a live `snapshot` from
 * every survivor and pushes each to the rejoiner as a `load_snapshot`
 * query, so the rejoined shard compiles zero plans for fleet-seen
 * configs. Only then do its ring points return. `respawnCommand`
 * optionally spawns a replacement worker process on the dead
 * endpoint (children are reaped while running and SIGTERM'd at
 * shutdown) — the `ftsim_router --respawn` supervisor mode.
 * Shard lifecycle:
 *
 *     alive --death--> backoff --dial--> connecting --> warming
 *       ^                 ^-------------- any failure ----|
 *       `----------------- warm pushes acked -------------'
 *
 * (`down` is terminal when healing is disabled.)
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "common/stats_registry.hpp"

namespace ftsim {

/** One upstream shard address. */
struct ShardEndpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Ring placement identity; defaults to "host:port". Must be
     *  unique across the fleet. */
    std::string name;
};

/** Construction knobs for a RouterServer. */
struct RouterConfig {
    /** Bind address for the client-facing listener. */
    std::string host = "127.0.0.1";
    /** Bind port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;
    /** Upstream shards; all must connect at start(). */
    std::vector<ShardEndpoint> shards;
    /** Open client connections served at once (cap as NetServer). */
    std::size_t maxConnections = 64;
    /** Frame cap on client request lines, bytes. */
    std::size_t maxLineBytes = 1 << 20;
    /** Ring points per shard (see router/hash_ring.hpp). */
    std::size_t virtualNodes = 64;
    /** Extra forwarding attempts per request after its shard dies;
     *  each re-route lands on the surviving ring owner of the key.
     *  0 restores the pre-ISSUE-7 answer-`Unavailable` behavior. */
    std::size_t retryBudget = 2;
    /** Per-attempt answer deadline, ms (0 = none): an alive shard
     *  holding a request longer is declared wedged and its outstanding
     *  requests fail over, exactly as if it had died. */
    double requestDeadlineMs = 0.0;
    /** First re-dial delay after a shard death, ms; doubles per failed
     *  heal up to reconnectBackoffMaxMs. <= 0 disables healing (a dead
     *  shard stays down, the pre-ISSUE-7 contract). */
    double reconnectBackoffMs = 0.0;
    /** Backoff ceiling for the heal heartbeat, ms. */
    double reconnectBackoffMaxMs = 5000.0;
    /** Deadline for one whole heal attempt — dial + snapshot fetches +
     *  warm pushes — before it aborts back to backoff, ms. */
    double healTimeoutMs = 5000.0;
    /** Executable spawned as `cmd --host H --port P` to replace a
     *  dead shard on its endpoint (empty = reconnect-only). Spawned
     *  children are reaped while running and SIGTERM'd at shutdown. */
    std::string respawnCommand;
    /** Monotonic clock in ms for deadlines/backoff; unset = wall
     *  steady_clock. Tests inject virtual time here. */
    std::function<double()> clock;
    /** Registry the router publishes its `router.*` cells into; null =
     *  the server creates a private one (statsRegistry() exposes it).
     *  Per-shard health rows join every snapshot as
     *  `router.shard.<name>.routed/dials/heals/alive` provider rows. */
    std::shared_ptr<StatsRegistry> statsRegistry;
};

/** Consistent-hash fleet router (see file comment). */
class RouterServer {
  public:
    explicit RouterServer(RouterConfig config);

    /** Stops the loop (dropping unflushed writes), joins, closes. */
    ~RouterServer();

    RouterServer(const RouterServer&) = delete;
    RouterServer& operator=(const RouterServer&) = delete;

    /** Binds + listens the client-facing socket. */
    Result<bool> bindListener();

    /** The bound client-facing port (after bindListener; 0 before). */
    std::uint16_t port() const;

    /**
     * Opens the persistent upstream connection to every configured
     * shard. Fails — naming the shard — if any is unreachable: a
     * router told to front N shards should not quietly start with
     * fewer (mid-flight deaths are handled; a bad config is not).
     */
    Result<bool> connectShards();

    /** Runs the event loop on this thread until requestStop(). */
    void run();

    /** bindListener() + connectShards() + run() on a background
     *  thread. */
    Result<bool> start();

    /** Graceful stop: no new clients, no new input, every outstanding
     *  answer (or shard-death error) still flushes. Signal-safe. */
    void requestStop();

    /** requestStop() + join the start() thread (no-op without one). */
    void stop();

    /** True once run() has returned. */
    bool stopped() const { return loop_done_.load(); }

    /** The router's stats registry (`router.*` cells + per-shard
     *  provider rows). Shared from RouterConfig::statsRegistry when
     *  set; otherwise a private instance. */
    const std::shared_ptr<StatsRegistry>& statsRegistry() const;

  private:
    struct Impl;  ///< Loop, front end, ring and shards.
    std::unique_ptr<Impl> impl_;
    std::thread loop_thread_;
    std::atomic<bool> loop_done_{false};
};

}  // namespace ftsim

#endif  // FTSIM_ROUTER_ROUTER_HPP
