#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "fleet.hpp"

namespace perfbench {

bool
LoadGen::connect(std::uint16_t port, std::size_t connections)
{
    close();
    for (std::size_t i = 0; i < connections; ++i) {
        Conn c;
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof addr) != 0) {
            if (c.fd >= 0)
                ::close(c.fd);
            close();
            return false;
        }
        const int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        conns_.push_back(std::move(c));
    }
    return true;
}

void
LoadGen::close()
{
    for (Conn& c : conns_)
        if (c.fd >= 0)
            ::close(c.fd);
    conns_.clear();
}

PhaseStats
LoadGen::batch(const std::vector<std::uint32_t>& seq,
               const std::string& idPrefix, double timeoutMs)
{
    Phase phase{Mode::Batch, seq, idPrefix};
    phase.timeoutMs = timeoutMs;
    return run(phase);
}

PhaseStats
LoadGen::open(const std::vector<std::uint32_t>& seq, double rate,
              const std::string& idPrefix)
{
    Phase phase{Mode::Open, seq, idPrefix};
    phase.rate = rate;
    phase.timeoutMs = 10000.0;  // Drain allowance after the last due time.
    return run(phase);
}

PhaseStats
LoadGen::closed(const std::vector<std::uint32_t>& pool, bool cyclic,
                double seconds, std::size_t window,
                const std::string& idPrefix)
{
    Phase phase{Mode::Closed, pool, idPrefix};
    phase.seconds = seconds;
    phase.window = window;
    phase.cyclic = cyclic;
    phase.timeoutMs = 10000.0;
    return run(phase);
}

void
LoadGen::issue(Conn& c, const Phase& phase, std::uint64_t n, double dueMs,
               PhaseStats& stats)
{
    const std::uint32_t q = phase.seq[n % phase.seq.size()];
    ++stats.attempted;
    if (c.fd < 0) {
        ++stats.lost;
        return;
    }
    const std::string bytes = plan_.encode(q, phase.prefix + std::to_string(n), wire_);
    c.out.append(bytes);
    stats.bytesOut += bytes.size();
    c.inflight.push_back({q, n, dueMs});
    flush(c, stats);
    if (phase.mode == Mode::Open)
        stats.lateMs.push_back(nowMs() - dueMs);
}

void
LoadGen::flush(Conn& c, PhaseStats& stats)
{
    while (c.fd >= 0 && c.outOff < c.out.size()) {
        const ssize_t n =
            ::send(c.fd, c.out.data() + c.outOff, c.out.size() - c.outOff,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
            c.outOff += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
            return;
        } else {
            kill(c, stats);
            return;
        }
    }
    c.out.clear();
    c.outOff = 0;
}

void
LoadGen::kill(Conn& c, PhaseStats& stats)
{
    stats.lost += c.inflight.size();
    c.inflight.clear();
    if (c.fd >= 0)
        ::close(c.fd);
    c.fd = -1;
}

void
LoadGen::complete(Conn& c, const Phase& phase, std::string_view payload,
                  double now, double endMs, PhaseStats& stats)
{
    if (c.inflight.empty()) {
        ++stats.wrong;
        if (stats.firstWrong.empty())
            stats.firstWrong = "answer with no request outstanding";
        return;
    }
    const Inflight req = c.inflight.front();
    c.inflight.pop_front();
    const std::string id = phase.prefix + std::to_string(req.n);
    const Verdict verdict =
        wire_ == Wire::Binary
            ? oracle_.checkFrame(req.question, id, payload)
            : oracle_.checkLine(req.question, id, payload);
    if (phase.mode == Mode::Open)
        stats.latencyMs.push_back(now - req.dueMs);
    switch (verdict) {
    case Verdict::Ok:
        ++stats.ok;
        if (phase.mode == Mode::Closed && now <= endMs) {
            ++stats.okInWindow;
            stats.okAtMs.push_back(now - start_);
        }
        break;
    case Verdict::Refused:
        ++stats.refused;
        break;
    case Verdict::Wrong:
        ++stats.wrong;
        if (stats.firstWrong.empty())
            stats.firstWrong =
                "request " + id + "\n  expected: " +
                oracle_.expected(req.question, id).substr(0, 400) +
                "\n  received: " +
                (wire_ == Wire::Binary ? std::string("(binary frame)")
                                       : std::string(payload.substr(0, 400)));
        break;
    }
}

void
LoadGen::drain(Conn& c, const Phase& phase, double endMs, PhaseStats& stats)
{
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            stats.bytesIn += static_cast<std::size_t>(n);
            if (static_cast<std::size_t>(n) < sizeof buf)
                break;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            break;
        kill(c, stats);  // EOF or error: whatever is in flight is lost.
        return;
    }
    const double now = nowMs();
    std::string_view in(c.in);
    for (;;) {
        std::string_view rest = in.substr(c.inOff);
        if (wire_ == Wire::Json) {
            const std::size_t eol = rest.find('\n');
            if (eol == std::string_view::npos)
                break;
            complete(c, phase, rest.substr(0, eol), now, endMs, stats);
            c.inOff += eol + 1;
        } else {
            if (rest.size() < 8)
                break;
            if (static_cast<unsigned char>(rest[0]) != 0xF7) {
                ++stats.wrong;
                if (stats.firstWrong.empty())
                    stats.firstWrong = "answer frame with a bad header";
                kill(c, stats);
                return;
            }
            std::uint32_t len = 0;
            for (int b = 3; b >= 0; --b)
                len = (len << 8) | static_cast<unsigned char>(rest[4 + b]);
            if (rest.size() < 8 + static_cast<std::size_t>(len))
                break;
            complete(c, phase, rest.substr(8, len), now, endMs, stats);
            c.inOff += 8 + static_cast<std::size_t>(len);
        }
    }
    if (c.inOff > 0 && c.inOff * 2 >= c.in.size()) {
        c.in.erase(0, c.inOff);
        c.inOff = 0;
    }
}

PhaseStats
LoadGen::run(const Phase& phase)
{
    PhaseStats stats;
    const std::size_t count = phase.seq.size();
    const double start = nowMs() + 1.0;
    start_ = start;
    double end = start;
    if (phase.mode == Mode::Open)
        end = start + 1000.0 * static_cast<double>(count) / phase.rate;
    else if (phase.mode == Mode::Closed)
        end = start + 1000.0 * phase.seconds;
    const double hard_deadline = end + phase.timeoutMs;
    double last_ok = start;
    std::uint64_t next = 0;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
        double now = nowMs();
        std::size_t inflight = 0;
        if (phase.mode == Mode::Batch) {
            for (; next < count; ++next)
                issue(conns_[next % conns_.size()], phase, next, start,
                      stats);
        } else if (phase.mode == Mode::Open) {
            for (; next < count; ++next) {
                const double due =
                    start + 1000.0 * static_cast<double>(next) / phase.rate;
                if (due > now)
                    break;
                issue(conns_[next % conns_.size()], phase, next, due, stats);
                now = nowMs();
            }
        } else if (now < end) {
            for (Conn& c : conns_)
                while (c.fd >= 0 && c.inflight.size() < phase.window &&
                       (phase.cyclic || next < count))
                    issue(c, phase, next++, now, stats);
        }
        for (const Conn& c : conns_)
            inflight += c.inflight.size();
        const bool issued_all =
            phase.mode == Mode::Closed
                ? now >= end || (!phase.cyclic && next >= count)
                : next >= count;
        if (issued_all && inflight == 0) {
            stats.exhausted = phase.mode == Mode::Closed && now < end;
            break;
        }
        if (now > hard_deadline) {
            for (Conn& c : conns_)
                kill(c, stats);
            break;
        }

        double wait_ms = 50.0;
        if (phase.mode == Mode::Open && next < count)
            wait_ms = start +
                      1000.0 * static_cast<double>(next) / phase.rate - now;
        else if (phase.mode == Mode::Closed && now < end)
            wait_ms = std::min(wait_ms, end - now);
        wait_ms = std::max(0.0, wait_ms);
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            fds[i].fd = conns_[i].fd;
            fds[i].events = static_cast<short>(
                POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        timespec ts;
        ts.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
        ts.tv_nsec = static_cast<long>(
            (wait_ms - 1000.0 * static_cast<double>(ts.tv_sec)) * 1e6);
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            Conn& c = conns_[i];
            if (c.fd < 0 || fds[i].revents == 0)
                continue;
            if (fds[i].revents & POLLOUT)
                flush(c, stats);
            if (c.fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
                const std::size_t before = stats.ok;
                drain(c, phase, end, stats);
                if (stats.ok != before)
                    last_ok = nowMs();
            }
        }
    }
    if (phase.mode == Mode::Closed)
        stats.windowS =
            (stats.exhausted ? std::min(last_ok, end) : end) - start;
    stats.windowS /= 1000.0;
    return stats;
}

}  // namespace perfbench
