#include "net/fault_proxy.hpp"

#include <algorithm>
#include <mutex>
#include <random>
#include <sys/socket.h>
#include <vector>

#include "net/event_loop.hpp"

namespace ftsim {

namespace {

constexpr std::size_t kC2S = 0;  ///< flow index: client -> server
constexpr std::size_t kS2C = 1;  ///< flow index: server -> client

std::size_t
flowIndex(FaultDirection direction)
{
    return direction == FaultDirection::ClientToServer ? kC2S : kS2C;
}

}  // namespace

/** Loop internals; forwarding state is loop-thread-owned, the
 *  controls cross via controlMutex + the loop's wake, stats via
 *  atomics. */
struct FaultProxy::Impl {
    /** One forwarded direction of a link. */
    struct Flow {
        std::string buf;       ///< Bytes read but not yet written.
        std::size_t off = 0;   ///< Written prefix of buf.
        std::uint64_t forwarded = 0;  ///< Bytes delivered downstream.
        bool srcEof = false;   ///< Source half-closed toward us.
        bool sinkShut = false; ///< We SHUT_WR'd the sink.
        bool discarding = false;  ///< Truncate/HalfClose fired: source
                                  ///< bytes are read and dropped.

        std::size_t pending() const { return buf.size() - off; }
    };

    /** One proxied connection pair. */
    struct Link {
        Connection client;
        Connection upstream;
        bool connecting = true;  ///< Upstream handshake in flight.
        bool dead = false;
        bool faultFired = false;
        Flow flow[2];
        std::mt19937_64 rng;
        /** Watch index of the client fd this round (the upstream's is
         *  the next one); kUnwatched if accepted this round. */
        std::size_t watch = EventLoop::kUnwatched;
    };

    explicit Impl(FaultProxyConfig cfg) : config(std::move(cfg)) {}

    void fireFault(Link& link)
    {
        if (!link.faultFired) {
            link.faultFired = true;
            faultsInjected.fetch_add(1);
        }
    }

    void killLink(Link& link, bool counted)
    {
        if (link.dead)
            return;
        link.dead = true;
        // Count BEFORE closing: the peer observes the death the moment
        // the fds close, and may read stats() right away.
        if (counted)
            killed.fetch_add(1);
        link.client.close();
        link.upstream.close();
    }

    void shutSink(Link& link, std::size_t d)
    {
        Flow& flow = link.flow[d];
        Connection& sink = d == kC2S ? link.upstream : link.client;
        if (!flow.sinkShut && sink.valid()) {
            ::shutdown(sink.fd(), SHUT_WR);
            flow.sinkShut = true;
        }
    }

    /** Reads from direction @p d's source into its bounded buffer
     *  (or the void, once the direction is discarding). */
    void pumpRead(Link& link, std::size_t d)
    {
        Flow& flow = link.flow[d];
        Connection& src = d == kC2S ? link.client : link.upstream;
        while (!link.dead && !flow.srcEof) {
            char tmp[16384];
            std::size_t cap = sizeof(tmp);
            if (!flow.discarding) {
                if (flow.pending() >= config.maxBufferBytes)
                    return;  // Backpressure: stop reading, stay bounded.
                cap = std::min(
                    cap, config.maxBufferBytes - flow.pending());
            }
            const IoResult io = src.readSome(tmp, cap);
            if (io.status == IoStatus::Ok) {
                if (flow.discarding)
                    continue;  // Truncated direction: bytes vanish.
                flow.buf.append(tmp, io.bytes);
                std::uint64_t peakNow = flow.pending();
                std::uint64_t peak = peakBuffered.load();
                while (peakNow > peak &&
                       !peakBuffered.compare_exchange_weak(peak,
                                                           peakNow)) {
                }
            } else if (io.status == IoStatus::WouldBlock) {
                return;
            } else if (io.status == IoStatus::Eof) {
                flow.srcEof = true;
                if (flow.pending() == 0)
                    shutSink(link, d);
                return;
            } else {
                killLink(link, false);
                return;
            }
        }
    }

    /** True when direction @p d is parked by an armed Stall (so the
     *  loop must not poll POLLOUT for it — buffered bytes wait). */
    bool stalled(const Link& link, std::size_t d,
                 const FaultScript& script) const
    {
        return script.kind == FaultKind::Stall &&
               flowIndex(script.direction) == d &&
               link.flow[d].forwarded >= script.afterBytes;
    }

    /** Writes direction @p d's buffered bytes to its sink, applying
     *  the armed fault at its exact byte offset. */
    void pumpWrite(Link& link, std::size_t d,
                   const FaultScript& script)
    {
        Flow& flow = link.flow[d];
        Connection& sink = d == kC2S ? link.upstream : link.client;
        const bool scripted = script.kind != FaultKind::None &&
                              flowIndex(script.direction) == d;
        if (scripted && flow.forwarded >= script.afterBytes) {
            switch (script.kind) {
            case FaultKind::Close:
                fireFault(link);
                killLink(link, true);
                return;
            case FaultKind::Stall:
                // Hold the bytes; the link stays open. Observably
                // fired once something is actually being withheld.
                if (flow.pending() > 0)
                    fireFault(link);
                return;
            case FaultKind::HalfClose:
                fireFault(link);
                shutSink(link, d);
                flow.discarding = true;
                flow.buf.clear();
                flow.off = 0;
                return;
            case FaultKind::Truncate:
                fireFault(link);
                flow.discarding = true;
                flow.buf.clear();
                flow.off = 0;
                return;
            case FaultKind::None:
                break;
            }
        }
        while (!link.dead && flow.pending() > 0 && sink.valid() &&
               !flow.sinkShut) {
            std::uint64_t want = flow.pending();
            if (scripted)
                want = std::min(want,
                                script.afterBytes - flow.forwarded);
            if (config.seed != 0 && config.maxChunkBytes > 0)
                want = std::min(
                    want, 1 + link.rng() % config.maxChunkBytes);
            const IoResult io = sink.writeSome(
                flow.buf.data() + flow.off,
                static_cast<std::size_t>(want));
            if (io.status == IoStatus::Ok) {
                flow.off += io.bytes;
                flow.forwarded += io.bytes;
                (d == kC2S ? bytesC2S : bytesS2C)
                    .fetch_add(io.bytes);
                if (scripted && flow.forwarded >= script.afterBytes)
                    return;  // Fault fires on the next sweep.
                if (config.seed != 0 && config.maxChunkBytes > 0)
                    return;  // One chunk per pass: real short writes.
            } else if (io.status == IoStatus::WouldBlock) {
                break;
            } else {
                killLink(link, false);
                return;
            }
        }
        if (flow.pending() == 0) {
            flow.buf.clear();
            flow.off = 0;
            if (flow.srcEof)
                shutSink(link, d);
        }
    }

    void run()
    {
        while (true) {
            FaultScript script;
            std::string host;
            std::uint16_t port = 0;
            std::uint64_t killGen = 0;
            {
                std::lock_guard<std::mutex> lock(controlMutex);
                script = currentScript;
                host = targetHost;
                port = targetPort;
                killGen = killGeneration;
            }
            if (killGen != killGenSeen) {
                killGenSeen = killGen;
                for (auto& link : links)
                    killLink(*link, true);
            }
            if (loop.stopRequested())
                break;

            for (auto it = links.begin(); it != links.end();) {
                Link& link = **it;
                const bool done =
                    link.dead ||
                    (link.flow[kC2S].srcEof && link.flow[kS2C].srcEof &&
                     link.flow[kC2S].pending() == 0 &&
                     link.flow[kS2C].pending() == 0);
                it = done ? links.erase(it) : it + 1;
            }
            linksOpen.store(links.size());

            const bool listening = listener.valid();
            std::size_t listenerWatch = 0;
            if (listening)
                listenerWatch = loop.watch(listener.fd(), POLLIN);
            for (auto& linkPtr : links) {
                Link& link = *linkPtr;
                short clientEvents = 0;
                short upstreamEvents = 0;
                const Flow& c2s = link.flow[kC2S];
                const Flow& s2c = link.flow[kS2C];
                if (!c2s.srcEof &&
                    (c2s.discarding ||
                     c2s.pending() < config.maxBufferBytes))
                    clientEvents |= POLLIN;
                if (s2c.pending() > 0 && !s2c.sinkShut &&
                    !stalled(link, kS2C, script))
                    clientEvents |= POLLOUT;
                if (link.connecting) {
                    upstreamEvents |= POLLOUT;
                } else {
                    if (!s2c.srcEof &&
                        (s2c.discarding ||
                         s2c.pending() < config.maxBufferBytes))
                        upstreamEvents |= POLLIN;
                    if (c2s.pending() > 0 && !c2s.sinkShut &&
                        !stalled(link, kC2S, script))
                        upstreamEvents |= POLLOUT;
                }
                link.watch = loop.watch(link.client.fd(), clientEvents);
                loop.watch(link.upstream.fd(), upstreamEvents);
            }

            loop.poll(-1);

            if (listening && (loop.revents(listenerWatch) & POLLIN))
                acceptPending(host, port);
            for (auto& linkPtr : links) {
                Link& link = *linkPtr;
                if (link.watch == EventLoop::kUnwatched)
                    continue;
                const short clientRe = loop.revents(link.watch);
                const short upstreamRe = loop.revents(link.watch + 1);
                link.watch = EventLoop::kUnwatched;
                if (clientRe & (POLLERR | POLLNVAL)) {
                    killLink(link, false);
                    continue;
                }
                if (link.connecting &&
                    (upstreamRe & (POLLOUT | POLLERR | POLLHUP))) {
                    Result<bool> up = link.upstream.finishConnect();
                    if (!up) {
                        killLink(link, true);
                        continue;
                    }
                    link.connecting = false;
                }
                if (!link.connecting &&
                    (upstreamRe & (POLLERR | POLLNVAL))) {
                    killLink(link, false);
                    continue;
                }
                if (clientRe & (POLLIN | POLLHUP))
                    pumpRead(link, kC2S);
                if (!link.connecting &&
                    (upstreamRe & (POLLIN | POLLHUP)))
                    pumpRead(link, kS2C);
            }

            // Progress sweep: new bytes were buffered above, faults
            // may be due at their exact offset — don't wait a poll
            // round to act on either.
            for (auto& link : links) {
                if (link->dead || link->connecting)
                    continue;
                pumpWrite(*link, kC2S, script);
                if (!link->dead)
                    pumpWrite(*link, kS2C, script);
            }
        }
        listener.close();
        for (auto& link : links)
            killLink(*link, false);
        links.clear();
        linksOpen.store(0);
    }

    void acceptPending(const std::string& host, std::uint16_t port)
    {
        while (true) {
            Connection socket = listener.accept();
            if (!socket.valid())
                break;
            accepted.fetch_add(1);
            auto link = std::make_unique<Link>();
            link->client = std::move(socket);
            link->rng.seed(config.seed ^ accepted.load());
            Result<Connection> upstream =
                Connection::connectStart(host, port);
            if (!upstream) {
                killed.fetch_add(1);
                continue;  // Link dies before it exists.
            }
            link->upstream = std::move(upstream.value());
            links.push_back(std::move(link));
        }
    }

    FaultProxyConfig config;
    EventLoop loop;
    TcpListener listener;

    std::mutex controlMutex;
    FaultScript currentScript;   ///< Guarded by controlMutex.
    std::string targetHost;      ///< Guarded by controlMutex.
    std::uint16_t targetPort = 0;  ///< Guarded by controlMutex.
    std::uint64_t killGeneration = 0;  ///< Guarded by controlMutex.
    std::uint64_t killGenSeen = 0;     ///< Loop-thread only.

    std::vector<std::unique_ptr<Link>> links;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> killed{0};
    std::atomic<std::uint64_t> faultsInjected{0};
    std::atomic<std::uint64_t> bytesC2S{0};
    std::atomic<std::uint64_t> bytesS2C{0};
    std::atomic<std::uint64_t> peakBuffered{0};
    std::atomic<std::size_t> linksOpen{0};
};

FaultProxy::FaultProxy(FaultProxyConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
    impl_->targetHost = impl_->config.targetHost;
    impl_->targetPort = impl_->config.targetPort;
}

FaultProxy::~FaultProxy()
{
    stop();
}

Result<bool>
FaultProxy::start()
{
    Result<TcpListener> listener = TcpListener::bind(
        impl_->config.listenHost, impl_->config.listenPort);
    if (!listener)
        return listener.error();
    impl_->listener = std::move(listener.value());
    loop_thread_ = std::thread([this] { impl_->run(); });
    return true;
}

std::uint16_t
FaultProxy::port() const
{
    return impl_->listener.port();
}

void
FaultProxy::stop()
{
    impl_->loop.requestStop();
    if (loop_thread_.joinable())
        loop_thread_.join();
}

void
FaultProxy::setFault(const FaultScript& script)
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        impl_->currentScript = script;
    }
    impl_->loop.wake();
}

void
FaultProxy::clearFault()
{
    setFault(FaultScript{});
}

void
FaultProxy::setTarget(const std::string& host, std::uint16_t port)
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        impl_->targetHost = host;
        impl_->targetPort = port;
    }
    impl_->loop.wake();
}

void
FaultProxy::killConnections()
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        ++impl_->killGeneration;
    }
    impl_->loop.wake();
}

FaultProxyStats
FaultProxy::stats() const
{
    FaultProxyStats out;
    out.connectionsAccepted = impl_->accepted.load();
    out.connectionsKilled = impl_->killed.load();
    out.faultsInjected = impl_->faultsInjected.load();
    out.bytesClientToServer = impl_->bytesC2S.load();
    out.bytesServerToClient = impl_->bytesS2C.load();
    out.peakBufferedBytes = impl_->peakBuffered.load();
    out.linksOpen = impl_->linksOpen.load();
    return out;
}

}  // namespace ftsim
