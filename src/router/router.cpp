#include "router/router.hpp"

#include <algorithm>
#include <csignal>
#include <deque>
#include <map>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "net/front_end.hpp"
#include "router/hash_ring.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {

namespace {

/** Frame cap on shard *response* lines, bytes — reports and snapshots
 *  are far larger than any request. */
constexpr std::size_t kMaxShardLineBytes = 1 << 26;

/** Client connections: no idle timeout, no drain deadline. */
FrontEndSettings
frontEndSettings(const RouterConfig& config)
{
    FrontEndSettings settings;
    settings.prefix = "router";
    settings.maxConnections = config.maxConnections;
    settings.maxLineBytes = config.maxLineBytes;
    return settings;
}

/** Where a shard is in its death/heal lifecycle (see router.hpp). */
enum class ShardState {
    Alive,       ///< Serving; ring points placed.
    Backoff,     ///< Dead; next re-dial scheduled.
    Connecting,  ///< Non-blocking dial in flight.
    Warming,     ///< Connected; survivor snapshots being pushed.
    Down,        ///< Dead with healing disabled (terminal).
};

/** Wire/report spelling of a ShardState (the `fleet` answer's). */
const char*
shardStateName(ShardState state)
{
    switch (state) {
    case ShardState::Alive: return "alive";
    case ShardState::Backoff: return "backoff";
    case ShardState::Connecting: return "connecting";
    case ShardState::Warming: return "warming";
    case ShardState::Down: return "down";
    }
    return "?";
}

}  // namespace

/** Loop-thread state; the loop's stop flag and wake pipe, and the
 *  atomics, are the only members other threads touch. */
struct RouterServer::Impl {
    /**
     * One answer owed to a client, shared between the client
     * connection's pending queue (write-back order) and — while the
     * request is upstream — its shard's outstanding queue (fill
     * order). The shared_ptr is the lifetime glue: a client that
     * disconnects mid-flight just drops its queue, and the shard-side
     * fill lands in an orphaned slot instead of freed memory.
     *
     * ISSUE-7: the slot also *retains* the original request line and
     * its routing key until the answer arrives — planning queries are
     * pure, so a dead shard's outstanding slots re-forward verbatim to
     * the surviving ring owner instead of failing. Router-originated
     * heal traffic (survivor snapshot fetches, warm pushes to a
     * rejoiner) rides the same outstanding queues as internal slots
     * that never touch a client connection.
     */
    struct StatsGather;

    struct Slot : ClientAnswer {
        /** Who consumes the answer. */
        enum class Purpose {
            Client,         ///< A client connection's pending queue.
            SnapshotFetch,  ///< Heal: survivor `snapshot` probe.
            WarmPush,       ///< Heal: `load_snapshot` to the rejoiner.
            StatsFetch,     ///< Scrape: `stats` probe for a gather.
        };

        QueryKind query = QueryKind::MaxBatch;
        Purpose purpose = Purpose::Client;
        /** The original request bytes, byte-verbatim — a JSON line
         *  (no terminator) or a complete binary frame — the failover
         *  replay payload. */
        std::string requestLine;
        /** canonicalKey(): where the ring re-routes it. */
        std::string key;
        /** Forward attempts so far (1 = first send). */
        std::size_t attempts = 0;
        /** Injectable-clock deadline of the current attempt; 0 = none. */
        double deadlineAt = 0.0;
        /** Internal slots: which shard this heal step is for, and the
         *  heal attempt it belongs to (stale probes are dropped). */
        std::size_t healTarget = 0;
        std::uint64_t healGen = 0;
        /** StatsFetch slots: the scrape this probe reports into, and
         *  the shard name its piece files under. */
        std::shared_ptr<StatsGather> gather;
        std::string shardName;
    };

    /**
     * One in-flight fleet-wide `stats` scrape (ISSUE-8). The client's
     * slot stays unready until every alive shard's probe reports back
     * — with its sliced stats object, or empty if the shard died
     * mid-scrape (rendered as `null`; a scrape must never hang on a
     * death the router already failed over). Multiple scrapes coexist:
     * each probe slot holds a shared_ptr to its own gather.
     */
    struct StatsGather {
        std::shared_ptr<Slot> client;
        /** Shard name -> sliced flat stats JSON ("" = unreachable).
         *  std::map so the merged document lists shards sorted. */
        std::map<std::string, std::string> pieces;
        std::size_t awaited = 0;
    };

    /** One upstream shard, its persistent pipelined connection, and
     *  its death/heal lifecycle state. */
    struct Shard {
        ShardEndpoint endpoint;
        Connection socket;
        WireFramer framer;
        /** Requests sent (or queued to send), oldest first. The shard
         *  answers per connection in request order, so each response
         *  line fills the front slot — no correlation ids needed. */
        std::deque<std::shared_ptr<Slot>> outstanding;
        OutBuffer out;
        /** This round's watch index; kUnwatched when not polled. */
        std::size_t watch = EventLoop::kUnwatched;
        std::atomic<ShardState> state{ShardState::Down};
        std::atomic<std::uint64_t> routed{0};
        std::atomic<std::uint64_t> dialAttempts{0};
        std::atomic<std::uint64_t> heals{0};
        // Heal bookkeeping, loop-thread-owned:
        double backoffMs = 0.0;       ///< Current re-dial delay.
        double nextDialAtMs = 0.0;    ///< Backoff: when to dial.
        double healDeadlineMs = 0.0;  ///< Whole-attempt abort time.
        std::uint64_t healGen = 0;    ///< Bumped per heal attempt.
        std::size_t snapshotsAwaited = 0;  ///< Survivor fetches open.
        std::size_t pushesAwaited = 0;     ///< Warm pushes unacked.
        /** Survivor snapshots (base64, verbatim off the wire) waiting
         *  to be pushed. */
        std::vector<std::string> snapshots;

        explicit Shard(ShardEndpoint e)
            : endpoint(std::move(e)), framer(kMaxShardLineBytes)
        {
        }

        /** The socket carries protocol traffic (vs. dialing/dead). */
        bool active() const
        {
            const ShardState s = state.load();
            return s == ShardState::Alive || s == ShardState::Warming;
        }
    };

    explicit Impl(RouterConfig cfg)
        : config(std::move(cfg)),
          stats(config.statsRegistry
                    ? config.statsRegistry
                    : std::make_shared<StatsRegistry>()),
          loop(config.clock),
          front(frontEndSettings(config), loop, *stats,
                [this](const std::string&, PlanRequest& request,
                       WireFramer::Frame& frame) {
                    return route(request, frame);
                }),
          ring(config.virtualNodes),
          forwarded(stats->counter("router.forwarded")),
          shardFailures(stats->counter("router.shard_failures")),
          retried(stats->counter("router.retried")),
          deadlineExpired(stats->counter("router.deadline_expired")),
          healed(stats->counter("router.healed")),
          respawned(stats->counter("router.respawned")),
          fleetQueries(stats->counter("router.fleet_queries")),
          statsQueries(stats->counter("router.stats_queries")),
          lastHealMs(stats->gauge("router.last_heal_ms"))
    {
        lastHealMs.set(-1.0);
        for (ShardEndpoint endpoint : config.shards) {
            if (endpoint.name.empty())
                endpoint.name =
                    strCat(endpoint.host, ':', endpoint.port);
            shards.push_back(
                std::make_unique<Shard>(std::move(endpoint)));
        }
        // The shards vector is fixed from here on, and the rows read
        // only atomics — safe from any snapshotting thread.
        statsProvider =
            stats->addProvider([this](StatsRegistry::Sink& sink) {
                publishShardRows(sink);
            });
    }

    ~Impl() { stats->removeProvider(statsProvider); }

    /** Per-shard health rows, contributed to every snapshot. */
    void publishShardRows(StatsRegistry::Sink& sink) const
    {
        std::size_t alive = 0;
        for (const auto& shard : shards) {
            const std::string base =
                strCat("router.shard.", shard->endpoint.name, '.');
            const bool up =
                shard->state.load() == ShardState::Alive;
            alive += up ? 1 : 0;
            sink.counter(base + "routed", shard->routed.load());
            sink.counter(base + "dials",
                         shard->dialAttempts.load());
            sink.counter(base + "heals", shard->heals.load());
            sink.gauge(base + "alive", up ? 1.0 : 0.0);
        }
        sink.gauge("router.shards_alive",
                   static_cast<double>(alive));
    }

    Result<bool> connectShards()
    {
        for (std::size_t i = 0; i < shards.size(); ++i)
            for (std::size_t j = i + 1; j < shards.size(); ++j)
                if (shards[i]->endpoint.name ==
                    shards[j]->endpoint.name)
                    return Error{ErrorCode::InvalidArgument,
                                 strCat("duplicate shard name \"",
                                        shards[i]->endpoint.name,
                                        '"')};
        if (shards.empty())
            return Error{ErrorCode::InvalidArgument,
                         "router needs at least one shard"};
        for (std::size_t i = 0; i < shards.size(); ++i) {
            Shard& shard = *shards[i];
            Result<Connection> conn = Connection::connectTo(
                shard.endpoint.host, shard.endpoint.port);
            if (!conn)
                return Error{
                    ErrorCode::Unavailable,
                    strCat("shard \"", shard.endpoint.name,
                           "\" unreachable: ", conn.error().message)};
            shard.socket = std::move(conn.value());
            // connectTo leaves the fd blocking (the client-side
            // contract); the poll loop needs it non-blocking.
            setNonBlocking(shard.socket.fd());
            shard.state.store(ShardState::Alive);
            ring.addShard(i, shard.endpoint.name);
        }
        return true;
    }

    /** Fills @p slot with a typed error response — the only answers
     *  the router composes (everything else is shard bytes). */
    void answerError(Slot& slot, ErrorCode code, std::string message)
    {
        PlanRequest request;
        request.id = slot.id;
        request.query = slot.query;
        slot.complete(errorResponse(
                             request, Error{code, std::move(message)}));
    }

    /** Queues @p slot's retained request line on @p shard. Client
     *  slots get a fresh per-attempt deadline; internal slots keep the
     *  heal deadline their caller stamped. */
    void enqueueSlot(Shard& shard, const std::shared_ptr<Slot>& slot)
    {
        shard.out.append(slot->requestLine);
        if (!slot->binary)
            shard.out.append("\n");  // Binary frames self-delimit.
        ++slot->attempts;
        // Client and stats-scrape slots get a fresh per-attempt
        // deadline (a wedged shard must not hang a scrape either);
        // heal slots keep the heal deadline their caller stamped.
        if (slot->purpose == Slot::Purpose::Client ||
            slot->purpose == Slot::Purpose::StatsFetch)
            slot->deadlineAt =
                config.requestDeadlineMs > 0.0
                    ? loop.nowMs() + config.requestDeadlineMs
                    : 0.0;
        shard.outstanding.push_back(slot);
    }

    /**
     * Failover for one orphaned client slot: planning queries are pure
     * and the slot kept its request line, so re-forward it to the
     * surviving ring owner of its key — until the retry budget or the
     * fleet runs out, which is the only remaining `Unavailable`.
     */
    void retryOrFail(const std::shared_ptr<Slot>& slot,
                     const Shard& deadShard, const std::string& why)
    {
        const bool budgetLeft =
            slot->attempts < 1 + config.retryBudget;
        const int target =
            budgetLeft ? ring.shardFor(slot->key) : -1;
        if (budgetLeft && target >= 0) {
            Shard& next = *shards[static_cast<std::size_t>(target)];
            enqueueSlot(next, slot);
            next.routed.fetch_add(1);
            retried.inc();
            return;
        }
        shardFailures.inc();
        answerError(*slot, ErrorCode::Unavailable,
                    strCat("shard \"", deadShard.endpoint.name, "\" ",
                           why,
                           budgetLeft ? " (no live shards)"
                                      : " (retry budget exhausted)"));
    }

    /**
     * Takes an alive @p shard out of the fleet: close the socket, drop
     * its ring points (only *its* keys re-route — consistent hashing's
     * whole point), fail its outstanding requests over to the
     * survivors, and hand it to the heal machinery (respawn + backoff
     * re-dial) when that is enabled.
     */
    void markShardDead(Shard& shard, std::size_t index,
                       const std::string& why)
    {
        if (shard.state.load() != ShardState::Alive)
            return;
        shard.state.store(ShardState::Down);
        shard.socket.close();
        shard.out.clear();
        shard.framer = WireFramer(kMaxShardLineBytes);
        ring.removeShard(index);
        std::deque<std::shared_ptr<Slot>> orphans;
        orphans.swap(shard.outstanding);
        for (const std::shared_ptr<Slot>& slot : orphans) {
            if (slot->purpose == Slot::Purpose::Client) {
                retryOrFail(slot, shard, why);
            } else if (slot->purpose == Slot::Purpose::StatsFetch) {
                // The scrape reports this shard as null rather than
                // hanging on (or failing) the whole document.
                noteStatsPiece(*slot, std::string());
            } else if (slot->healGen ==
                       shards[slot->healTarget]->healGen) {
                // A heal probe was riding this (now dead) survivor:
                // that heal attempt cannot complete.
                failHeal(*shards[slot->healTarget], slot->healTarget);
            }
        }
        if (!config.respawnCommand.empty())
            spawnReplacement(shard);
        scheduleHeal(shard, /*firstDeath=*/true);
    }

    /** Routes a broken-socket event by lifecycle state: an alive shard
     *  dies (failover), a dialing/warming one aborts to backoff. */
    void shardBroken(Shard& shard, std::size_t index,
                     const std::string& why)
    {
        if (shard.state.load() == ShardState::Alive)
            markShardDead(shard, index, why);
        else
            failHeal(shard, index);
    }

    // ---- Heal machinery (ISSUE-7) ------------------------------------

    /** Parks @p shard in Backoff for its next re-dial (exponential,
     *  capped), or Down when healing is disabled. */
    void scheduleHeal(Shard& shard, bool firstDeath)
    {
        if (config.reconnectBackoffMs <= 0.0) {
            shard.state.store(ShardState::Down);
            return;
        }
        shard.backoffMs =
            firstDeath || shard.backoffMs <= 0.0
                ? config.reconnectBackoffMs
                : std::min(shard.backoffMs * 2.0,
                           config.reconnectBackoffMaxMs);
        shard.nextDialAtMs = loop.nowMs() + shard.backoffMs;
        shard.state.store(ShardState::Backoff);
    }

    /** Aborts the in-flight heal attempt and schedules the next one
     *  (backoff doubled). Stale survivor probes are stranded by the
     *  healGen bump and dropped on arrival. */
    void failHeal(Shard& shard, std::size_t index)
    {
        (void)index;
        const ShardState st = shard.state.load();
        if (st != ShardState::Connecting && st != ShardState::Warming)
            return;
        shard.socket.close();
        shard.out.clear();
        shard.outstanding.clear();  // Unacked warm pushes, ours only.
        ++shard.healGen;
        shard.snapshots.clear();
        shard.snapshotsAwaited = 0;
        shard.pushesAwaited = 0;
        scheduleHeal(shard, /*firstDeath=*/false);
    }

    /** Backoff expired: begin the non-blocking re-dial. */
    void startDial(Shard& shard)
    {
        shard.dialAttempts.fetch_add(1);
        Result<Connection> conn = Connection::connectStart(
            shard.endpoint.host, shard.endpoint.port);
        if (!conn) {
            scheduleHeal(shard, /*firstDeath=*/false);
            return;
        }
        shard.socket = std::move(conn.value());
        shard.healDeadlineMs = loop.nowMs() + config.healTimeoutMs;
        shard.state.store(ShardState::Connecting);
    }

    /**
     * Dial landed: warm the rejoiner before its ring points return.
     * Fetch a live `snapshot` from every alive survivor (their union
     * covers every fleet-seen config), then push each payload as a
     * `load_snapshot`; ring re-entry waits for the acks. No survivors
     * = nothing to warm from: a cold rejoin beats no fleet.
     */
    void beginWarm(Shard& shard, std::size_t index)
    {
        shard.framer = WireFramer(kMaxShardLineBytes);
        shard.out.clear();
        shard.outstanding.clear();
        ++shard.healGen;
        shard.snapshots.clear();
        shard.snapshotsAwaited = 0;
        shard.pushesAwaited = 0;
        shard.state.store(ShardState::Warming);
        for (std::size_t j = 0; j < shards.size(); ++j) {
            if (j == index ||
                shards[j]->state.load() != ShardState::Alive)
                continue;
            auto fetch = std::make_shared<Slot>();
            fetch->purpose = Slot::Purpose::SnapshotFetch;
            fetch->healTarget = index;
            fetch->healGen = shard.healGen;
            fetch->deadlineAt = shard.healDeadlineMs;
            fetch->requestLine = "{\"query\":\"snapshot\"}";
            enqueueSlot(*shards[j], fetch);
            ++shard.snapshotsAwaited;
        }
        if (shard.snapshotsAwaited == 0)
            completeHeal(shard, index);
    }

    /** Warm pushes acked: the shard rejoins the ring. */
    void completeHeal(Shard& shard, std::size_t index)
    {
        shard.state.store(ShardState::Alive);
        ring.addShard(index, shard.endpoint.name);
        shard.backoffMs = 0.0;
        shard.heals.fetch_add(1);
        healed.inc();
        lastHealMs.set(loop.nowMs());
    }

    /**
     * A response line filled an internal (heal) slot. The base64
     * snapshot payload is sliced out of the survivor's response and
     * re-sent verbatim — the router never decodes registry bytes.
     */
    void onInternalResponse(const Slot& slot, const std::string& line)
    {
        if (slot.purpose == Slot::Purpose::StatsFetch) {
            // Before the heal bookkeeping: a stats probe has no heal
            // target, so slot.healTarget must not be dereferenced.
            noteStatsPiece(slot, sliceStatsObject(line));
            return;
        }
        Shard& target = *shards[slot.healTarget];
        if (slot.healGen != target.healGen ||
            target.state.load() != ShardState::Warming)
            return;  // A stale probe from an abandoned heal attempt.
        const bool ok =
            line.find("\"ok\":true") != std::string::npos;
        if (slot.purpose == Slot::Purpose::SnapshotFetch) {
            std::string payload;
            if (ok) {
                // base64 never contains escapes, so the quote after
                // the key closes the payload.
                static const std::string kField = "\"snapshot\":\"";
                const std::size_t at = line.find(kField);
                if (at != std::string::npos) {
                    const std::size_t start = at + kField.size();
                    const std::size_t end = line.find('"', start);
                    if (end != std::string::npos)
                        payload = line.substr(start, end - start);
                }
            }
            if (!ok || payload.empty()) {
                failHeal(target, slot.healTarget);
                return;
            }
            target.snapshots.push_back(std::move(payload));
            if (--target.snapshotsAwaited > 0)
                return;
            target.pushesAwaited = target.snapshots.size();
            for (const std::string& b64 : target.snapshots) {
                auto push = std::make_shared<Slot>();
                push->purpose = Slot::Purpose::WarmPush;
                push->healTarget = slot.healTarget;
                push->healGen = target.healGen;
                push->deadlineAt = target.healDeadlineMs;
                push->requestLine =
                    strCat("{\"query\":\"load_snapshot\","
                           "\"snapshot\":\"",
                           b64, "\"}");
                enqueueSlot(target, push);
            }
            target.snapshots.clear();
            return;
        }
        // WarmPush ack.
        if (!ok) {
            failHeal(target, slot.healTarget);
            return;
        }
        if (--target.pushesAwaited == 0)
            completeHeal(target, slot.healTarget);
    }

    /**
     * Spawns `respawnCommand --host H --port P` to replace a dead shard
     * on its own endpoint (the supervisor mode). The child starts with
     * SIGTERM/SIGINT at their defaults and no signal blocked: a
     * shutdown SIGTERM that reached a fork+exec child before its exec
     * would run the router's inherited handler instead, leaving the
     * child serving forever and the reap in waitpid hanging.
     */
    void spawnReplacement(const Shard& shard)
    {
        const std::string port = std::to_string(shard.endpoint.port);
        const char* argv[] = {config.respawnCommand.c_str(), "--host",
                              shard.endpoint.host.c_str(), "--port",
                              port.c_str(), nullptr};
        sigset_t defaults;
        sigemptyset(&defaults);
        sigaddset(&defaults, SIGTERM);
        sigaddset(&defaults, SIGINT);
        sigset_t none;
        sigemptyset(&none);
        posix_spawnattr_t attr;
        posix_spawnattr_init(&attr);
        posix_spawnattr_setsigdefault(&attr, &defaults);
        posix_spawnattr_setsigmask(&attr, &none);
        posix_spawnattr_setflags(
            &attr, POSIX_SPAWN_SETSIGDEF | POSIX_SPAWN_SETSIGMASK);
        pid_t pid = -1;
        const int rc = ::posix_spawn(&pid, argv[0], nullptr, &attr,
                                     const_cast<char* const*>(argv),
                                     environ);
        posix_spawnattr_destroy(&attr);
        if (rc != 0)
            return;  // Reconnect alone still heals a restarted shard.
        children.push_back(pid);
        respawned.inc();
    }

    void reapChildren()
    {
        for (auto it = children.begin(); it != children.end();) {
            int status = 0;
            it = ::waitpid(*it, &status, WNOHANG) == *it
                     ? children.erase(it)
                     : it + 1;
        }
    }

    // ---- Fleet-wide stats scrape (ISSUE-8) ----------------------------

    /**
     * Slices the flat `"stats":{...}` object out of a shard's `stats`
     * response line, byte-verbatim. Unlike the snapshot payload
     * (base64), stats JSON contains quoted names that may hold escapes,
     * so this is a string-aware brace matcher, not a find('}'). Returns
     * "" when the line carries no well-formed stats object (e.g. the
     * shard answered an error) — rendered as `null` in the merge.
     */
    static std::string sliceStatsObject(const std::string& line)
    {
        static const std::string kField = "\"stats\":";
        const std::size_t at = line.find(kField);
        if (at == std::string::npos)
            return std::string();
        const std::size_t open = at + kField.size();
        if (open >= line.size() || line[open] != '{')
            return std::string();
        bool inString = false;
        bool escaped = false;
        int depth = 0;
        for (std::size_t i = open; i < line.size(); ++i) {
            const char c = line[i];
            if (inString) {
                if (escaped)
                    escaped = false;
                else if (c == '\\')
                    escaped = true;
                else if (c == '"')
                    inString = false;
            } else if (c == '"') {
                inString = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}' && --depth == 0) {
                return line.substr(open, i - open + 1);
            }
        }
        return std::string();
    }

    /**
     * Fans `{"query":"stats"}` to every alive shard and parks the
     * client's slot on the resulting gather. Probes ride the normal
     * outstanding queues (request-order fill, shard-death orphaning,
     * answer deadlines) but are *not* client traffic: they bump neither
     * `forwarded` nor the per-shard `routed` ledger — a scrape must
     * never perturb the counters it reads. An empty fleet answers
     * immediately with only the router's own registry.
     */
    void beginStatsGather(const std::shared_ptr<Slot>& slot)
    {
        statsQueries.inc();
        auto gather = std::make_shared<StatsGather>();
        gather->client = slot;
        for (const auto& shard : shards) {
            if (shard->state.load() != ShardState::Alive)
                continue;
            auto fetch = std::make_shared<Slot>();
            fetch->purpose = Slot::Purpose::StatsFetch;
            fetch->gather = gather;
            fetch->shardName = shard->endpoint.name;
            fetch->requestLine = "{\"query\":\"stats\"}";
            enqueueSlot(*shard, fetch);
            ++gather->awaited;
        }
        if (gather->awaited == 0)
            finishStatsGather(*gather);
    }

    /** One probe reported (piece, or "" for a shard lost mid-scrape);
     *  the last one in completes the client's answer. */
    void noteStatsPiece(const Slot& probe, std::string piece)
    {
        StatsGather& gather = *probe.gather;
        gather.pieces[probe.shardName] = std::move(piece);
        if (--gather.awaited == 0)
            finishStatsGather(gather);
    }

    /** Composes the merged scrape document and readies the client's
     *  slot: the router's own registry snapshot under "router", each
     *  shard's sliced stats object (or null) under "shards". */
    void finishStatsGather(StatsGather& gather)
    {
        std::string merged =
            strCat("{\"router\":", stats->snapshot().toJson(),
                   ",\"shards\":{");
        bool first = true;
        for (const auto& [name, piece] : gather.pieces) {
            if (!first)
                merged += ',';
            first = false;
            merged += jsonQuote(name);
            merged += ':';
            merged += piece.empty() ? "null" : piece;
        }
        merged += "}}";
        Slot& slot = *gather.client;
        PlanResponse response;
        response.id = slot.id;
        response.query = QueryKind::Stats;
        response.ok = true;
        response.value =
            static_cast<double>(gather.pieces.size());
        response.statsJson = std::move(merged);
        slot.complete(response);
    }

    // ---- Event handlers -----------------------------------------------

    /** The router's own `fleet` answer: lifecycle state, routing, and
     *  the ISSUE-7 failover/heal ledger. */
    void answerFleet(Slot& slot)
    {
        fleetQueries.inc();
        PlanResponse response;
        response.id = slot.id;
        response.query = QueryKind::Fleet;
        response.ok = true;
        std::size_t alive = 0;
        for (const auto& shard : shards)
            alive +=
                shard->state.load() == ShardState::Alive ? 1 : 0;
        response.value = static_cast<double>(alive);
        response.report = strCat(
            "router: shards=", shards.size(), " alive=", alive,
            " retried=", retried.load(),
            " unavailable=", shardFailures.load(),
            " healed=", healed.load(),
            " respawned=", respawned.load(),
            " last_heal_ms=", Exact{lastHealMs.load()});
        for (const auto& shard : shards)
            strAppend(response.report, "; ", shard->endpoint.name, '=',
                      shardStateName(shard->state.load()),
                      " routed=", shard->routed.load(),
                      " heals=", shard->heals.load());
        slot.complete(response);
    }

    /**
     * The front end's handler: answers `fleet` and `stats` itself and
     * forwards everything else, byte-verbatim, to the ring owner of
     * its canonical key.
     */
    std::shared_ptr<ClientAnswer> route(PlanRequest& request,
                                        WireFramer::Frame& frame)
    {
        auto slot = std::make_shared<Slot>();
        slot->binary = frame.binary;
        slot->id = request.id;
        slot->query = request.query;
        if (slot->query == QueryKind::Fleet) {
            // Intercepted: the fleet question is about the router's
            // view. (Ask a shard's own port for per-shard counters.)
            answerFleet(*slot);
            return slot;
        }
        if (slot->query == QueryKind::Stats) {
            // Intercepted: scatter-gathered across the fleet instead
            // of routed to one shard (see beginStatsGather).
            beginStatsGather(slot);
            return slot;
        }
        slot->key = request.canonicalKey();
        // Forward byte-verbatim in the request's own format: the
        // shard stamps the echoed id itself, and re-serializing here
        // could only risk perturbing the bytes the golden gate diffs.
        // Re-wrapping the binary payload in its 8-byte header is
        // deterministic — identical to the bytes the client sent.
        slot->requestLine = frame.binary ? wireFrame(frame.payload)
                                         : std::move(frame.payload);
        const int target = ring.shardFor(slot->key);
        if (target < 0) {
            shardFailures.inc();
            answerError(*slot, ErrorCode::Unavailable, "no live shards");
            return slot;
        }
        Shard& shard = *shards[static_cast<std::size_t>(target)];
        enqueueSlot(shard, slot);
        shard.routed.fetch_add(1);
        forwarded.inc();
        return slot;
    }

    void readShard(Shard& shard, std::size_t index)
    {
        char buf[16384];
        while (shard.active()) {
            const IoResult io =
                shard.socket.readSome(buf, sizeof(buf));
            if (io.status == IoStatus::Ok) {
                shard.framer.feed(buf, io.bytes);
                WireFramer::Frame frame;
                while (shard.framer.next(frame)) {
                    if (frame.overflow) {
                        // A response we cannot frame poisons the
                        // pipelined stream — nothing after it can be
                        // matched to a slot.
                        shardBroken(shard, index,
                                    "answered an oversized line");
                        return;
                    }
                    if (!frame.binary && isBlankLine(frame.payload))
                        continue;
                    if (shard.outstanding.empty()) {
                        shardBroken(shard, index,
                                    "sent an unsolicited response");
                        return;
                    }
                    const std::shared_ptr<Slot> slot =
                        shard.outstanding.front();
                    shard.outstanding.pop_front();
                    // Positional fill only works if the shard kept
                    // the response-follows-request-format contract;
                    // a format flip means the streams desynced.
                    if (frame.binary != slot->binary) {
                        shardBroken(
                            shard, index,
                            "answered in the wrong wire format");
                        return;
                    }
                    if (slot->purpose == Slot::Purpose::Client) {
                        slot->bytes =
                            frame.binary
                                ? wireFrame(frame.payload)
                                : std::move(frame.payload);
                        slot->ready = true;
                    } else {
                        onInternalResponse(*slot, frame.payload);
                        if (!shard.active())
                            return;  // This shard's heal just failed.
                    }
                }
                if (shard.framer.poisoned()) {
                    shardBroken(shard, index,
                                strCat("answered undecodable bytes (",
                                       shard.framer.poisonReason(),
                                       ')'));
                    return;
                }
            } else if (io.status == IoStatus::WouldBlock) {
                return;
            } else {
                shardBroken(shard, index,
                            io.status == IoStatus::Eof
                                ? "closed the connection"
                                : "died with the request in flight");
                return;
            }
        }
    }

    void flushShard(Shard& shard, std::size_t index)
    {
        if (shard.active() && !shard.out.flush(shard.socket))
            shardBroken(shard, index, "died with the request in flight");
    }

    /** Deadline/backoff timers, on the injectable clock. */
    void runTimers()
    {
        const double now = loop.nowMs();
        for (std::size_t i = 0; i < shards.size(); ++i) {
            Shard& shard = *shards[i];
            switch (shard.state.load()) {
            case ShardState::Alive:
                if (!shard.outstanding.empty()) {
                    const Slot& front = *shard.outstanding.front();
                    // Fill order = enqueue order, so deadlines are
                    // monotonic per shard: the front slot is always
                    // the next to expire.
                    if (front.deadlineAt > 0.0 &&
                        now >= front.deadlineAt) {
                        deadlineExpired.inc();
                        markShardDead(
                            shard, i,
                            "missed its answer deadline (wedged)");
                    }
                }
                break;
            case ShardState::Backoff:
                if (!loop.stopRequested() && now >= shard.nextDialAtMs)
                    startDial(shard);
                break;
            case ShardState::Connecting:
            case ShardState::Warming:
                if (now >= shard.healDeadlineMs)
                    failHeal(shard, i);
                break;
            case ShardState::Down:
                break;
            }
        }
        reapChildren();
    }

    /** True while any deadline/backoff timer is armed — the loop then
     *  polls with a short tick so injectable clocks get re-read (the
     *  NetServer drain-deadline idiom). */
    bool timersArmed() const
    {
        for (const auto& shard : shards) {
            switch (shard->state.load()) {
            case ShardState::Backoff:
            case ShardState::Connecting:
            case ShardState::Warming:
                return true;
            case ShardState::Alive:
                if (!shard->outstanding.empty() &&
                    shard->outstanding.front()->deadlineAt > 0.0)
                    return true;
                break;
            case ShardState::Down:
                break;
            }
        }
        return false;
    }

    void run()
    {
        while (front.sweep()) {
            front.watch();
            for (auto& shard : shards) {
                const ShardState st = shard->state.load();
                short events = 0;
                if (st == ShardState::Alive || st == ShardState::Warming) {
                    // Always POLLIN: shard death must surface even
                    // while nothing is outstanding.
                    events = POLLIN;
                    if (!shard->out.flushed())
                        events |= POLLOUT;
                } else if (st == ShardState::Connecting) {
                    events = POLLOUT;
                } else {
                    // Backoff/Down: no socket to watch.
                    shard->watch = EventLoop::kUnwatched;
                    continue;
                }
                shard->watch = loop.watch(shard->socket.fd(), events);
            }

            // The front end arms no timers here (idle timeout and drain
            // deadline are off); ours need a short tick so injectable
            // clocks get re-read.
            loop.poll(timersArmed() ? 10 : front.timeoutMs());

            front.onPolled();
            for (std::size_t i = 0; i < shards.size(); ++i) {
                Shard& shard = *shards[i];
                if (shard.watch == EventLoop::kUnwatched)
                    continue;
                const short revents = loop.revents(shard.watch);
                if (shard.state.load() == ShardState::Connecting) {
                    if (revents & (POLLOUT | POLLERR | POLLHUP)) {
                        Result<bool> up = shard.socket.finishConnect();
                        if (!up)
                            failHeal(shard, i);
                        else
                            beginWarm(shard, i);
                    }
                    continue;
                }
                if (revents & (POLLERR | POLLNVAL)) {
                    shardBroken(shard, i,
                                "died with the request in flight");
                    continue;
                }
                if (revents & (POLLIN | POLLHUP))
                    readShard(shard, i);
                if (revents & POLLOUT)
                    flushShard(shard, i);
            }

            runTimers();

            // New work may have been queued onto shards this round
            // (client requests, failover replays, heal probes); try
            // the write now instead of waiting a poll cycle.
            for (std::size_t i = 0; i < shards.size(); ++i)
                flushShard(*shards[i], i);

            front.flush();
        }
        for (auto& shard : shards) {
            shard->state.store(ShardState::Down);
            shard->socket.close();
        }
        // The supervisor owns its respawned workers: take them along.
        for (pid_t pid : children)
            ::kill(pid, SIGTERM);
        for (pid_t pid : children) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        children.clear();
    }

    RouterConfig config;
    /** The registry behind every counter below (+ provider rows);
     *  shared with the daemon when RouterConfig supplied one. */
    std::shared_ptr<StatsRegistry> stats;
    EventLoop loop;
    ClientFrontEnd front;
    HashRing ring;
    std::vector<std::unique_ptr<Shard>> shards;
    std::vector<pid_t> children;  ///< Respawned workers (loop-owned).
    std::size_t statsProvider = 0;

    // Registry cells under `router.*` (loop-thread maintained); the
    // client-side ones live in the front end.
    StatsCounter& forwarded;
    StatsCounter& shardFailures;
    StatsCounter& retried;
    StatsCounter& deadlineExpired;
    StatsCounter& healed;
    StatsCounter& respawned;
    StatsCounter& fleetQueries;
    StatsCounter& statsQueries;
    StatsGauge& lastHealMs;
};

RouterServer::RouterServer(RouterConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

RouterServer::~RouterServer()
{
    stop();
}

Result<bool>
RouterServer::bindListener()
{
    return impl_->front.bind(impl_->config.host, impl_->config.port);
}

std::uint16_t
RouterServer::port() const
{
    return impl_->front.port();
}

Result<bool>
RouterServer::connectShards()
{
    return impl_->connectShards();
}

void
RouterServer::run()
{
    impl_->run();
    loop_done_.store(true);
}

Result<bool>
RouterServer::start()
{
    Result<bool> bound = bindListener();
    if (!bound)
        return bound;
    Result<bool> shards = connectShards();
    if (!shards)
        return shards;
    loop_thread_ = std::thread([this] { run(); });
    return true;
}

void
RouterServer::requestStop()
{
    impl_->loop.requestStop();
}

void
RouterServer::stop()
{
    requestStop();
    if (loop_thread_.joinable())
        loop_thread_.join();
}

const std::shared_ptr<StatsRegistry>&
RouterServer::statsRegistry() const
{
    return impl_->stats;
}

}  // namespace ftsim
