#include "net/event_loop.hpp"

#include <cerrno>
#include <chrono>
#include <unistd.h>

#include "common/logging.hpp"

namespace ftsim {

EventLoop::EventLoop(std::function<double()> clock)
    : clock_(std::move(clock))
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0)
        fatal("EventLoop: cannot create wake pipe");
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
    wakeRead_ = fds[0];
    wakeWrite_ = fds[1];
    fds_.push_back({wakeRead_, POLLIN, 0});
}

EventLoop::~EventLoop()
{
    ::close(wakeRead_);
    ::close(wakeWrite_);
}

void
EventLoop::wake()
{
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &byte, 1);
}

void
EventLoop::requestStop()
{
    stop_.store(true);
    wake();
}

double
EventLoop::nowMs() const
{
    if (clock_)
        return clock_();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::size_t
EventLoop::watch(int fd, short events)
{
    fds_.push_back({fd, events, 0});
    return fds_.size() - 2;
}

void
EventLoop::poll(int timeoutMs)
{
    const int rc =
        ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), timeoutMs);
    if (rc < 0 && errno != EINTR)
        fatal("EventLoop: poll() failed");
    if (fds_[0].revents & POLLIN) {
        char buf[256];
        while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
        }
    }
    revents_.resize(fds_.size() - 1);
    for (std::size_t i = 0; i < revents_.size(); ++i)
        revents_[i] = fds_[i + 1].revents;
    fds_.resize(1);
}

bool
OutBuffer::flush(Connection& socket)
{
    while (!flushed()) {
        const IoResult io =
            socket.writeSome(buf_.data() + off_, buf_.size() - off_);
        if (io.status == IoStatus::Ok)
            off_ += io.bytes;
        else if (io.status == IoStatus::WouldBlock)
            return true;
        else
            return false;
    }
    clear();
    return true;
}

void
OutBuffer::clear()
{
    buf_.clear();
    off_ = 0;
}

}  // namespace ftsim
