#ifndef FTSIM_NET_EVENT_LOOP_HPP
#define FTSIM_NET_EVENT_LOOP_HPP

/**
 * @file
 * The poll(2) loop under every daemon (`NetServer`, `RouterServer`,
 * `FaultProxy`) and the write buffer they share.
 *
 * `EventLoop` owns what a single-threaded daemon needs to wait on its
 * sockets and be woken from other threads: the wake pipe (worker
 * completions, control calls and signal handlers write one byte to
 * it), the stop flag, and the timer clock (an injected virtual clock
 * or steady_clock). Each round the daemon registers its (fd, events)
 * watches, calls `poll()`, and reads each watch's revents back by the
 * index `watch()` returned. The wake pipe is watched and drained
 * inside `poll()`; callers never see it.
 *
 * `OutBuffer` is the bytes owed to one socket: appended as answers or
 * requests are produced, flushed until the kernel pushes back, resumed
 * on POLLOUT.
 */

#include <atomic>
#include <cstddef>
#include <functional>
#include <poll.h>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace ftsim {

/** One daemon's poll(2) loop state (see file comment). */
class EventLoop {
  public:
    /** A watch index meaning "not watched this round". */
    static constexpr std::size_t kUnwatched = static_cast<std::size_t>(-1);

    /** @param clock timer clock in ms; null = steady_clock. */
    explicit EventLoop(std::function<double()> clock = {});
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /** Interrupts the current (or next) poll(). Async-signal-safe:
     *  one non-blocking write; a full pipe means a wake is already
     *  pending, so EAGAIN is success. */
    void wake();

    /** Sets the stop flag, then wakes. Async-signal-safe. */
    void requestStop();

    bool stopRequested() const { return stop_.load(); }

    /** The timer clock, ms. */
    double nowMs() const;

    /** Adds @p fd to the next poll() round; returns the index its
     *  revents are read back by. Watches last one round. */
    std::size_t watch(int fd, short events);

    /** Waits up to @p timeoutMs (-1 = no limit) for a watched fd or a
     *  wake, then clears the watch list for the next round. */
    void poll(int timeoutMs);

    /** The last poll()'s revents for the watch at @p index. */
    short revents(std::size_t index) const { return revents_[index]; }

  private:
    std::function<double()> clock_;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stop_{false};
    /** [0] is the wake pipe; watch i sits at [i + 1]. */
    std::vector<pollfd> fds_;
    std::vector<short> revents_;
};

/** Bytes owed to one non-blocking socket, written in order. */
class OutBuffer {
  public:
    void append(std::string_view bytes) { buf_.append(bytes); }

    /** Writes until empty or WouldBlock (POLLOUT resumes it). False on
     *  a hard socket error: the peer is gone. */
    bool flush(Connection& socket);

    bool flushed() const { return off_ >= buf_.size(); }

    /** Drops every unwritten byte. */
    void clear();

  private:
    std::string buf_;
    std::size_t off_ = 0;  ///< Written prefix of buf_.
};

}  // namespace ftsim

#endif  // FTSIM_NET_EVENT_LOOP_HPP
