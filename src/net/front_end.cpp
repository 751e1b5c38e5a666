#include "net/front_end.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <sys/socket.h>

#include "common/logging.hpp"
#include "serve/wire.hpp"

namespace ftsim {

namespace {

bool
futureReady(const std::shared_future<PlanResponse>& future)
{
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

}  // namespace

void
ClientAnswer::complete(const PlanResponse& response)
{
    bytes = binary ? encodeResponseFrame(response)
                   : writePlanResponse(response);
    ready = true;
}

/** One open client connection. */
struct ClientFrontEnd::Conn {
    Connection socket;
    /** Handler source label ("peer#n"): NetServer's per-connection
     *  stats bucket. */
    std::string label;
    WireFramer framer;
    /** Answers owed, oldest first: write-back order is request order,
     *  whatever order they complete in. */
    std::deque<std::shared_ptr<ClientAnswer>> pending;
    OutBuffer out;
    bool inputClosed = false;
    bool closeAfterFlush = false;
    /** Hard socket error: remove without flushing. */
    bool dead = false;
    double lastActiveMs = 0.0;
    /** This round's watch index; kUnwatched if accepted this round. */
    std::size_t watch = EventLoop::kUnwatched;

    Conn(Connection s, std::string l, std::size_t max_line, double now)
        : socket(std::move(s)), label(std::move(l)), framer(max_line),
          lastActiveMs(now)
    {
    }

    bool drained() const { return pending.empty() && out.flushed(); }
};

ClientFrontEnd::ClientFrontEnd(FrontEndSettings settings, EventLoop& loop,
                               StatsRegistry& stats, Handler handler)
    : settings_(std::move(settings)), loop_(loop),
      handler_(std::move(handler)),
      accepted_(stats.counter(settings_.prefix + ".conn.accepted")),
      closed_(stats.counter(settings_.prefix + ".conn.closed")),
      responses_(stats.counter(settings_.prefix + ".responses")),
      protocolErrors_(
          stats.counter(settings_.prefix + ".protocol_errors")),
      oversized_(stats.counter(settings_.prefix + ".oversized_lines")),
      poisoned_(stats.counter(settings_.prefix + ".wire.poisoned")),
      idleClosed_(stats.counter(settings_.prefix + ".idle_closed")),
      forcedClosed_(stats.counter(settings_.prefix + ".forced_closed")),
      drainingGauge_(stats.gauge(settings_.prefix + ".draining"))
{
}

ClientFrontEnd::~ClientFrontEnd() = default;

Result<bool>
ClientFrontEnd::bind(const std::string& host, std::uint16_t port)
{
    Result<TcpListener> listener = TcpListener::bind(host, port);
    if (!listener)
        return listener.error();
    listener_ = std::move(listener.value());
    return true;
}

bool
ClientFrontEnd::sweep()
{
    if (loop_.stopRequested() && !draining_) {
        draining_ = true;
        drainStartMs_ = loop_.nowMs();
        drainingGauge_.set(1.0);
        listener_.close();
        for (auto& conn : conns_) {
            conn->inputClosed = true;
            conn->closeAfterFlush = true;
        }
    }
    for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& conn = **it;
        if (conn.dead || (conn.closeAfterFlush && conn.drained())) {
            closed_.inc();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
    return !(draining_ && conns_.empty());
}

void
ClientFrontEnd::watch()
{
    accepting_ = !draining_ && listener_.valid() &&
                 conns_.size() < settings_.maxConnections;
    if (accepting_)
        listenerWatch_ = loop_.watch(listener_.fd(), POLLIN);
    for (auto& conn : conns_) {
        short events = 0;
        if (!conn->inputClosed)
            events |= POLLIN;
        if (!conn->out.flushed())
            events |= POLLOUT;
        conn->watch = loop_.watch(conn->socket.fd(), events);
    }
}

int
ClientFrontEnd::timeoutMs() const
{
    // A drained peer that stopped reading never raises a poll event,
    // so the drain deadline is re-checked on a short real-time tick
    // (the clock itself may be virtual).
    if (draining_)
        return settings_.drainDeadlineMs > 0.0 ? 20 : -1;
    if (settings_.idleTimeoutMs <= 0.0)
        return -1;
    const double now = loop_.nowMs();
    double nearest = -1.0;
    for (const auto& conn : conns_) {
        if (!conn->drained())
            continue;  // Busy connections never idle out.
        const double deadline = conn->lastActiveMs + settings_.idleTimeoutMs;
        if (nearest < 0.0 || deadline < nearest)
            nearest = deadline;
    }
    if (nearest < 0.0)
        return -1;
    return static_cast<int>(std::max(1.0, nearest - now + 1.0));
}

void
ClientFrontEnd::onPolled()
{
    const double now = loop_.nowMs();
    if (accepting_ && (loop_.revents(listenerWatch_) & POLLIN))
        acceptPending(now);
    for (auto& conn : conns_) {
        if (conn->watch == EventLoop::kUnwatched)
            continue;
        const short revents = loop_.revents(conn->watch);
        conn->watch = EventLoop::kUnwatched;
        if (revents & (POLLERR | POLLNVAL))
            conn->dead = true;
        if (!conn->dead && (revents & (POLLIN | POLLHUP)))
            readInput(*conn, now);
    }
}

void
ClientFrontEnd::flush()
{
    const double now = loop_.nowMs();
    // Every connection each round: a wake says "some answer somewhere
    // is ready", not which one.
    for (auto& conn : conns_) {
        if (conn->dead)
            continue;
        pump(*conn, now);
        if (!conn->out.flush(conn->socket))
            conn->dead = true;  // Peer is gone; answers die with it.
    }

    // Connections that still owe bytes (or answers) this long after
    // the stop are cut off, after the flush above gave them one more
    // chance: the alternative is a shutdown a stalled peer controls.
    if (draining_ && settings_.drainDeadlineMs > 0.0 &&
        now - drainStartMs_ >= settings_.drainDeadlineMs) {
        for (auto& conn : conns_) {
            if (conn->dead || conn->drained())
                continue;
            forcedClosed_.inc();
            conn->dead = true;
        }
    }

    if (!draining_ && settings_.idleTimeoutMs > 0.0) {
        for (auto& conn : conns_) {
            if (conn->dead || conn->closeAfterFlush || !conn->drained())
                continue;
            if (now - conn->lastActiveMs >= settings_.idleTimeoutMs) {
                idleClosed_.inc();
                conn->closeAfterFlush = true;
                conn->inputClosed = true;
            }
        }
    }
}

void
ClientFrontEnd::acceptPending(double now)
{
    while (conns_.size() < settings_.maxConnections) {
        Connection socket = listener_.accept();
        if (!socket.valid())
            break;
        if (settings_.sendBufferBytes > 0) {
            const int bytes = settings_.sendBufferBytes;
            ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &bytes,
                         sizeof(bytes));
        }
        accepted_.inc();
        std::string label = strCat(socket.peer(), '#', accepted_.load());
        conns_.push_back(std::make_unique<Conn>(
            std::move(socket), std::move(label), settings_.maxLineBytes,
            now));
    }
}

void
ClientFrontEnd::readInput(Conn& conn, double now)
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
                poison(conn, conn.framer.poisonReason());
        } else if (io.status == IoStatus::WouldBlock) {
            break;
        } else if (io.status == IoStatus::Eof) {
            // Half-close: the peer finished sending; answer everything
            // already admitted, flush, then close.
            if (conn.framer.midBinaryFrame())
                poison(conn, "truncated frame at EOF");
            conn.inputClosed = true;
            conn.closeAfterFlush = true;
        } else {
            conn.dead = true;
        }
    }
}

void
ClientFrontEnd::handleFrame(Conn& conn, WireFramer::Frame& frame)
{
    if (frame.binary) {
        Result<WireMessage> decoded = decodeWirePayload(frame.payload);
        if (!decoded.ok()) {
            answerError(conn, true, decoded.error().message);
            return;
        }
        if (decoded.value().type != WireMsg::Request) {
            answerError(conn, true, "expected a request frame");
            return;
        }
        conn.pending.push_back(
            handler_(conn.label, decoded.value().request, frame));
        return;
    }
    if (frame.overflow) {
        oversized_.inc();
        answerError(conn, false,
                    strCat("request line exceeds ",
                           settings_.maxLineBytes, " bytes"));
        return;
    }
    if (isBlankLine(frame.payload))
        return;
    Result<PlanRequest> parsed = parsePlanRequest(frame.payload);
    if (!parsed) {
        answerError(conn, false, parsed.error().message);
        return;
    }
    conn.pending.push_back(handler_(conn.label, parsed.value(), frame));
}

void
ClientFrontEnd::answerError(Conn& conn, bool binary,
                            const std::string& message)
{
    protocolErrors_.inc();
    auto answer = std::make_shared<ClientAnswer>();
    answer->binary = binary;
    answer->ready = true;
    answer->bytes = binary ? encodeProtocolErrorFrame("", message)
                           : writeProtocolError("", message);
    conn.pending.push_back(std::move(answer));
}

void
ClientFrontEnd::poison(Conn& conn, const std::string& reason)
{
    // A binary stream has no resync point past framing damage: answer
    // one final error frame, then close.
    poisoned_.inc();
    answerError(conn, true, strCat("bad frame: ", reason));
    conn.inputClosed = true;
    conn.closeAfterFlush = true;
}

void
ClientFrontEnd::pump(Conn& conn, double now)
{
    while (!conn.pending.empty()) {
        ClientAnswer& answer = *conn.pending.front();
        if (!answer.ready && answer.future.valid() &&
            futureReady(answer.future)) {
            PlanResponse response = answer.future.get();
            response.id = answer.id;
            answer.complete(response);
        }
        if (!answer.ready)
            break;  // Request order: never skip past a slot.
        conn.out.append(answer.bytes);
        if (!answer.binary)
            conn.out.append("\n");  // Binary frames self-delimit.
        conn.pending.pop_front();
        conn.lastActiveMs = now;
        responses_.inc();
    }
}

}  // namespace ftsim
