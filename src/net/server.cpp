#include "net/server.hpp"

#include "net/front_end.hpp"

namespace ftsim {

namespace {

FrontEndSettings
frontEndSettings(const NetServerConfig& config)
{
    FrontEndSettings settings;
    settings.prefix = "net";
    settings.maxConnections = config.maxConnections;
    settings.maxLineBytes = config.maxLineBytes;
    settings.idleTimeoutMs = config.idleTimeoutMs;
    settings.drainDeadlineMs = config.drainDeadlineMs;
    settings.sendBufferBytes = config.sendBufferBytes;
    return settings;
}

}  // namespace

/** Loop-thread state; the loop's stop flag and wake pipe, and the
 *  counters, are the only members other threads touch. */
struct NetServer::Impl {
    explicit Impl(NetServerConfig cfg)
        : config(std::move(cfg)),
          stats(config.service.statsRegistry
                    ? config.service.statsRegistry
                    : std::make_shared<StatsRegistry>()),
          loop(config.clock),
          front(frontEndSettings(config), loop, *stats,
                [this](const std::string& source, PlanRequest& request,
                       WireFramer::Frame& frame) {
                    return submit(source, request, frame.binary);
                }),
          requests(stats->counter("net.requests")),
          binaryRequests(stats->counter("net.wire.requests"))
    {
        // One registry covers both layers of a shard: the service
        // publishes serve.*/planner.* into the same instance this
        // front end publishes net.* into, so a single `stats` scrape
        // (or dump file) is the whole process.
        config.service.statsRegistry = stats;
        service = std::make_unique<PlanService>(config.service);
    }

    ~Impl()
    {
        // Drain the service *before* the loop closes its wake pipe:
        // worker tasks still finishing (a dead connection's orphaned
        // requests) fire notify callbacks that write to it.
        service.reset();
    }

    /** The handler: admits one request to the service. Its answer
     *  slot completes from the returned future; the completion
     *  callback only wakes the loop, which polls the future. */
    std::shared_ptr<ClientAnswer> submit(const std::string& source,
                                         const PlanRequest& request,
                                         bool binary)
    {
        requests.inc();
        if (binary)
            binaryRequests.inc();
        SubmitOptions options;
        options.source = source;
        options.notify = [this] { loop.wake(); };
        auto answer = std::make_shared<ClientAnswer>();
        answer->id = request.id;
        answer->binary = binary;
        answer->future = service->submit(request, options);
        return answer;
    }

    void run()
    {
        while (front.sweep()) {
            front.watch();
            loop.poll(front.timeoutMs());
            front.onPolled();
            front.flush();
        }
    }

    NetServerConfig config;
    /** Shard-wide registry, shared with the fronted service (declared
     *  before the cells that reference into it). */
    std::shared_ptr<StatsRegistry> stats;
    EventLoop loop;
    ClientFrontEnd front;
    /** unique_ptr so ~Impl can drain it before the wake pipe closes. */
    std::unique_ptr<PlanService> service;
    StatsCounter& requests;
    StatsCounter& binaryRequests;
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
    return impl_->front.bind(impl_->config.host, impl_->config.port);
}

std::uint16_t
NetServer::port() const
{
    return impl_->front.port();
}

void
NetServer::run()
{
    impl_->run();
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
    impl_->loop.requestStop();
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
