#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

#include "common/logging.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/wire.hpp"

namespace ftsim {

namespace {

double
monotonicMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
futureReady(const std::shared_future<PlanResponse>& future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

/** Blank lines are not requests (mirrors ftsim_serve). */
bool
isBlank(const std::string& line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

/** Poll-loop internals: every member is loop-thread-owned except the
 *  stop flag, the wake pipe's write end, and the atomics. */
struct NetServer::Impl {
    /** One response slot awaiting write-back, in request order. */
    struct Pending {
        std::string id;
        /** The request arrived as a binary frame; its answer goes
         *  back binary too (a response always follows its request's
         *  format). */
        bool binary = false;
        /** True for answers produced without the service (protocol
         *  errors): the bytes are ready at enqueue time. */
        bool immediate = false;
        /** Complete JSON line (no '\n') or complete binary frame. */
        std::string immediateLine;
        std::shared_future<PlanResponse> future;
    };

    /** One open connection and its per-connection state. */
    struct Conn {
        Connection socket;
        /** SubmitOptions::source label ("peer#n") — the service's
         *  per-connection stats bucket. */
        std::string label;
        WireFramer framer;
        /** Answers owed to this connection, oldest first. Write-back
         *  order == request order, whatever order workers finish in. */
        std::deque<Pending> pending;
        std::string out;
        std::size_t outOff = 0;
        bool inputClosed = false;
        bool closeAfterFlush = false;
        /** Hard socket error: remove without flushing. */
        bool dead = false;
        double lastActiveMs = 0.0;

        Conn(Connection s, std::string l, std::size_t max_line,
             double now)
            : socket(std::move(s)), label(std::move(l)),
              framer(max_line), lastActiveMs(now)
        {
        }

        bool flushed() const { return outOff >= out.size(); }

        bool drained() const { return pending.empty() && flushed(); }
    };

    explicit Impl(NetServerConfig cfg)
        : config(std::move(cfg)),
          stats(config.service.statsRegistry
                    ? config.service.statsRegistry
                    : std::make_shared<StatsRegistry>()),
          accepted(stats->counter("net.conn.accepted")),
          closed(stats->counter("net.conn.closed")),
          requests(stats->counter("net.requests")),
          responses(stats->counter("net.responses")),
          protocolErrors(stats->counter("net.protocol_errors")),
          oversized(stats->counter("net.oversized_lines")),
          idleClosed(stats->counter("net.idle_closed")),
          forcedClosed(stats->counter("net.forced_closed")),
          binaryRequests(stats->counter("net.wire.requests")),
          wirePoisoned(stats->counter("net.wire.poisoned"))
    {
        // One registry covers both layers of a shard: the service
        // publishes serve.*/planner.* into the same instance this
        // front end publishes net.* into, so a single `stats` scrape
        // (or dump file) is the whole process.
        config.service.statsRegistry = stats;
        service = std::make_unique<PlanService>(config.service);
        int fds[2] = {-1, -1};
        if (::pipe(fds) != 0)
            fatal("NetServer: cannot create wake pipe");
        setNonBlocking(fds[0]);
        setNonBlocking(fds[1]);
        wakeRead = fds[0];
        wakeWrite = fds[1];
    }

    ~Impl()
    {
        // Drain the service *before* closing the wake pipe: worker
        // tasks still finishing (a dead connection's orphaned
        // requests) fire notify callbacks that write to it.
        service.reset();
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
    }

    /** Async-signal-safe: one non-blocking write; a full pipe means a
     *  wake is already pending, so EAGAIN is success. */
    void wake()
    {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakeWrite, &byte, 1);
    }

    void drainWakePipe()
    {
        char buf[256];
        while (::read(wakeRead, buf, sizeof(buf)) > 0) {
        }
    }

    /** The loop's timer clock: injected (tests) or real monotonic. */
    double clockMs() const
    {
        return config.clock ? config.clock() : monotonicMs();
    }

    void acceptPending(double now)
    {
        while (conns.size() < config.maxConnections) {
            Connection socket = listener.accept();
            if (!socket.valid())
                break;
            if (config.sendBufferBytes > 0) {
                const int bytes = config.sendBufferBytes;
                ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF,
                             &bytes, sizeof(bytes));
            }
            accepted.inc();
            const std::string label =
                strCat(socket.peer(), '#', accepted.load());
            conns.push_back(std::make_unique<Conn>(
                std::move(socket), label, config.maxLineBytes, now));
        }
    }

    void submitRequest(Conn& conn, const PlanRequest& request,
                       bool binary)
    {
        requests.inc();
        if (binary)
            binaryRequests.inc();
        SubmitOptions options;
        options.source = conn.label;
        options.notify = [this] { wake(); };
        Pending slot;
        slot.id = request.id;
        slot.binary = binary;
        slot.future = service->submit(request, options);
        conn.pending.push_back(std::move(slot));
    }

    void answerImmediate(Conn& conn, bool binary, std::string bytes)
    {
        Pending slot;
        slot.binary = binary;
        slot.immediate = true;
        slot.immediateLine = std::move(bytes);
        conn.pending.push_back(std::move(slot));
    }

    void handleFrame(Conn& conn, WireFramer::Frame& frame)
    {
        if (frame.binary) {
            Result<WireMessage> decoded =
                decodeWirePayload(frame.payload);
            if (!decoded.ok()) {
                protocolErrors.inc();
                answerImmediate(conn, true,
                                encodeProtocolErrorFrame(
                                    "", decoded.error().message));
                return;
            }
            if (decoded.value().type != WireMsg::Request) {
                protocolErrors.inc();
                answerImmediate(
                    conn, true,
                    encodeProtocolErrorFrame(
                        "", "expected a request frame"));
                return;
            }
            submitRequest(conn, decoded.value().request, true);
            return;
        }
        if (frame.overflow) {
            oversized.inc();
            protocolErrors.inc();
            answerImmediate(conn, false,
                            writeProtocolError(
                                "", strCat("request line exceeds ",
                                           config.maxLineBytes,
                                           " bytes")));
            return;
        }
        if (isBlank(frame.payload))
            return;
        Result<PlanRequest> request = parsePlanRequest(frame.payload);
        if (!request) {
            protocolErrors.inc();
            answerImmediate(
                conn, false,
                writeProtocolError("", request.error().message));
            return;
        }
        submitRequest(conn, request.value(), false);
    }

    /** Binary framing damage: answer one final error frame, then
     *  close — a poisoned binary stream has no resync point. */
    void killPoisonedConn(Conn& conn, const std::string& reason)
    {
        wirePoisoned.inc();
        protocolErrors.inc();
        answerImmediate(conn, true,
                        encodeProtocolErrorFrame(
                            "", strCat("bad frame: ", reason)));
        conn.inputClosed = true;
        conn.closeAfterFlush = true;
    }

    void readInput(Conn& conn, double now)
    {
        char buf[16384];
        while (!conn.inputClosed && !conn.dead) {
            const IoResult io = conn.socket.readSome(buf, sizeof(buf));
            if (io.status == IoStatus::Ok) {
                conn.lastActiveMs = now;
                conn.framer.feed(buf, io.bytes);
                WireFramer::Frame frame;
                while (conn.framer.next(frame))
                    handleFrame(conn, frame);
                if (conn.framer.poisoned())
                    killPoisonedConn(conn,
                                     conn.framer.poisonReason());
            } else if (io.status == IoStatus::WouldBlock) {
                break;
            } else if (io.status == IoStatus::Eof) {
                // Half-close: the peer finished sending; answer
                // everything already admitted, flush, then close.
                if (conn.framer.midBinaryFrame()) {
                    // EOF inside a binary frame: the peer truncated
                    // it. Same containment as a bad header.
                    killPoisonedConn(conn, "truncated frame at EOF");
                }
                conn.inputClosed = true;
                conn.closeAfterFlush = true;
            } else {
                conn.dead = true;
            }
        }
    }

    /** Moves ready answers (in request order) into the write buffer. */
    void pump(Conn& conn, double now)
    {
        while (!conn.pending.empty()) {
            Pending& slot = conn.pending.front();
            std::string bytes;
            if (slot.immediate) {
                bytes = std::move(slot.immediateLine);
            } else if (futureReady(slot.future)) {
                PlanResponse response = slot.future.get();
                response.id = slot.id;  // Coalesced futures share ids.
                bytes = slot.binary ? encodeResponseFrame(response)
                                    : writePlanResponse(response);
            } else {
                break;  // Request order: never skip past a slot.
            }
            conn.out += bytes;
            if (!slot.binary)
                conn.out += '\n';  // Binary frames self-delimit.
            conn.pending.pop_front();
            conn.lastActiveMs = now;
            responses.inc();
        }
    }

    void flush(Conn& conn)
    {
        while (!conn.flushed() && !conn.dead) {
            const IoResult io =
                conn.socket.writeSome(conn.out.data() + conn.outOff,
                                      conn.out.size() - conn.outOff);
            if (io.status == IoStatus::Ok) {
                conn.outOff += io.bytes;
            } else if (io.status == IoStatus::WouldBlock) {
                return;  // POLLOUT will resume this.
            } else {
                conn.dead = true;  // Peer is gone; answers die with it.
            }
        }
        if (conn.flushed()) {
            conn.out.clear();
            conn.outOff = 0;
        }
    }

    void loop()
    {
        std::vector<pollfd> fds;
        std::vector<Conn*> polled;
        bool stop_seen = false;
        double drain_start_ms = 0.0;
        while (true) {
            const bool stopping = stopRequested.load();
            if (stopping && !stop_seen) {
                stop_seen = true;
                drain_start_ms = clockMs();
                // Graceful drain: no new connections, no new input —
                // but every admitted request still answers and every
                // answer still flushes before its connection closes.
                listener.close();
                for (auto& conn : conns) {
                    conn->inputClosed = true;
                    conn->closeAfterFlush = true;
                }
            }

            // Sweep closed connections.
            for (auto it = conns.begin(); it != conns.end();) {
                Conn& conn = **it;
                const bool done =
                    conn.dead ||
                    (conn.closeAfterFlush && conn.drained());
                if (done) {
                    closed.inc();
                    it = conns.erase(it);
                } else {
                    ++it;
                }
            }
            if (stop_seen && conns.empty())
                break;

            fds.clear();
            polled.clear();
            fds.push_back({wakeRead, POLLIN, 0});
            const bool accepting = !stop_seen && listener.valid() &&
                                   conns.size() < config.maxConnections;
            if (accepting)
                fds.push_back({listener.fd(), POLLIN, 0});
            for (auto& conn : conns) {
                short events = 0;
                if (!conn->inputClosed)
                    events |= POLLIN;
                if (!conn->flushed())
                    events |= POLLOUT;
                fds.push_back({conn->socket.fd(), events, 0});
                polled.push_back(conn.get());
            }

            int timeout = -1;
            // A drained peer that stopped reading never raises a
            // poll event, so the deadline must be re-checked on a
            // short real-time tick (the clock itself may be virtual).
            if (stop_seen && config.drainDeadlineMs > 0.0)
                timeout = 20;
            if (config.idleTimeoutMs > 0.0 && !stop_seen) {
                const double now = clockMs();
                double nearest = -1.0;
                for (auto& conn : conns) {
                    if (!conn->drained())
                        continue;  // Busy connections never idle out.
                    const double deadline =
                        conn->lastActiveMs + config.idleTimeoutMs;
                    if (nearest < 0.0 || deadline < nearest)
                        nearest = deadline;
                }
                if (nearest >= 0.0)
                    timeout = static_cast<int>(
                        std::max(1.0, nearest - now + 1.0));
            }

            const int rc = ::poll(fds.data(),
                                  static_cast<nfds_t>(fds.size()),
                                  timeout);
            const double now = clockMs();
            if (rc < 0 && errno != EINTR)
                fatal("NetServer: poll() failed");

            std::size_t index = 0;
            if (fds[index].revents & POLLIN)
                drainWakePipe();
            ++index;
            if (accepting) {
                if (fds[index].revents & POLLIN)
                    acceptPending(now);
                ++index;
            }
            for (std::size_t c = 0; c < polled.size(); ++c, ++index) {
                Conn& conn = *polled[c];
                const short revents = fds[index].revents;
                if (revents & (POLLERR | POLLNVAL))
                    conn.dead = true;
                if (!conn.dead && (revents & (POLLIN | POLLHUP)))
                    readInput(conn, now);
            }

            // Pump + flush every connection each round: the wake pipe
            // says "some answer somewhere is ready", not which one.
            for (auto& conn : conns) {
                if (conn->dead)
                    continue;
                pump(*conn, now);
                flush(*conn);
            }

            // Drain deadline: connections that still owe bytes (or
            // answers) this long after the stop request are cut off —
            // after the flush above gave them one more chance. Their
            // unflushed answers die with them; the alternative is a
            // shutdown a stalled peer controls.
            if (stop_seen && config.drainDeadlineMs > 0.0 &&
                now - drain_start_ms >= config.drainDeadlineMs) {
                for (auto& conn : conns) {
                    if (conn->dead || conn->drained())
                        continue;
                    forcedClosed.inc();
                    conn->dead = true;
                }
            }

            // Idle sweep (only quiet, fully-drained connections).
            if (config.idleTimeoutMs > 0.0 && !stop_seen) {
                for (auto& conn : conns) {
                    if (conn->dead || conn->closeAfterFlush ||
                        !conn->drained())
                        continue;
                    if (now - conn->lastActiveMs >=
                        config.idleTimeoutMs) {
                        idleClosed.inc();
                        conn->closeAfterFlush = true;
                        conn->inputClosed = true;
                    }
                }
            }
        }
        listener.close();
    }

    NetServerConfig config;
    /** Shard-wide registry, shared with the fronted service (declared
     *  before the cells below that reference into it). */
    std::shared_ptr<StatsRegistry> stats;
    /** unique_ptr so ~Impl can drain it before the wake pipe closes. */
    std::unique_ptr<PlanService> service;
    TcpListener listener;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::atomic<bool> stopRequested{false};
    std::vector<std::unique_ptr<Conn>> conns;

    // Registry cells under `net.*` (loop-thread maintained; snapshot
    // after stop() for exact values, mid-run for a live
    // approximation).
    StatsCounter& accepted;
    StatsCounter& closed;
    StatsCounter& requests;
    StatsCounter& responses;
    StatsCounter& protocolErrors;
    StatsCounter& oversized;
    StatsCounter& idleClosed;
    StatsCounter& forcedClosed;
    StatsCounter& binaryRequests;
    StatsCounter& wirePoisoned;
};

NetServer::NetServer(NetServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

NetServer::~NetServer()
{
    stop();
}

Result<bool>
NetServer::bindListener()
{
    Result<TcpListener> listener =
        TcpListener::bind(impl_->config.host, impl_->config.port);
    if (!listener)
        return listener.error();
    impl_->listener = std::move(listener.value());
    return true;
}

std::uint16_t
NetServer::port() const
{
    return impl_->listener.port();
}

void
NetServer::run()
{
    impl_->loop();
    loop_done_.store(true);
}

Result<bool>
NetServer::start()
{
    Result<bool> bound = bindListener();
    if (!bound)
        return bound;
    loop_thread_ = std::thread([this] { run(); });
    return true;
}

void
NetServer::requestStop()
{
    impl_->stopRequested.store(true);
    impl_->wake();
}

void
NetServer::stop()
{
    requestStop();
    if (loop_thread_.joinable())
        loop_thread_.join();
}

PlanService&
NetServer::service()
{
    return *impl_->service;
}

const std::shared_ptr<StatsRegistry>&
NetServer::statsRegistry() const
{
    return impl_->stats;
}

}  // namespace ftsim
