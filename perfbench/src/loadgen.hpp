#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

/**
 * @file
 * The load generator: one thread driving a few pipelined TCP
 * connections with poll(2), in the benchmark's own process.
 *
 * Three ways to drive them:
 *  - batch: every request sent at once (the set-up warm-up);
 *  - open loop: request i is due at start + i / rate whatever the
 *    fleet is doing, and its latency runs from that due time to its
 *    complete answer, so a stall is charged to every request it
 *    delays; how late the generator itself sent each request is
 *    recorded beside it;
 *  - closed loop: each connection keeps a fixed window in flight and
 *    sends the next request when an answer arrives.
 *
 * Every answer is checked against the oracle as it arrives. Answers
 * come back per connection in request order, so the front of a
 * connection's in-flight queue is the request an answer belongs to.
 */

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "workload.hpp"

namespace perfbench {

struct PhaseStats {
    std::size_t attempted = 0;
    std::size_t ok = 0;
    /** Typed refusals (RateLimited, Unavailable). */
    std::size_t refused = 0;
    /** Answers that differ from the oracle. */
    std::size_t wrong = 0;
    /** Requests lost to transport errors or the phase timeout. */
    std::size_t lost = 0;
    /** Open loop: due time to complete answer, per answered request. */
    std::vector<double> latencyMs;
    /** Open loop: actual send time minus due time, per request. */
    std::vector<double> lateMs;
    /** Closed loop: correct answers completed inside the window. */
    std::size_t okInWindow = 0;
    /** Closed loop: when each of those completed, ms from the start. */
    std::vector<double> okAtMs;
    double windowS = 0.0;
    /** Closed loop ran out of questions before the window ended. */
    bool exhausted = false;
    std::uint64_t bytesOut = 0;
    std::uint64_t bytesIn = 0;
    /** First wrong answer: expected and received bytes. */
    std::string firstWrong;

    std::size_t failed() const { return refused + wrong + lost; }
};

class LoadGen {
  public:
    LoadGen(const RunPlan& plan, const Oracle& oracle, Wire wire)
        : plan_(plan), oracle_(oracle), wire_(wire)
    {
    }
    ~LoadGen() { close(); }
    LoadGen(const LoadGen&) = delete;
    LoadGen& operator=(const LoadGen&) = delete;

    /** Opens @p connections connections to 127.0.0.1:@p port. */
    bool connect(std::uint16_t port, std::size_t connections);
    void close();

    /** Sends all of @p seq at once; waits up to @p timeoutMs. */
    PhaseStats batch(const std::vector<std::uint32_t>& seq,
                     const std::string& idPrefix, double timeoutMs);
    /** Open loop at @p rate requests/second over @p seq. */
    PhaseStats open(const std::vector<std::uint32_t>& seq, double rate,
                    const std::string& idPrefix);
    /** Closed loop for @p seconds with @p window requests in flight
     *  per connection; @p cyclic reuses @p pool when it runs out. */
    PhaseStats closed(const std::vector<std::uint32_t>& pool, bool cyclic,
                      double seconds, std::size_t window,
                      const std::string& idPrefix);

  private:
    enum class Mode { Batch, Open, Closed };
    struct Inflight {
        std::uint32_t question;
        std::uint64_t n;
        double dueMs;
    };
    struct Conn {
        int fd = -1;
        std::string out;
        std::size_t outOff = 0;
        std::string in;
        std::size_t inOff = 0;
        std::deque<Inflight> inflight;
    };
    struct Phase {
        Mode mode;
        const std::vector<std::uint32_t>& seq;
        std::string prefix;
        double rate = 0.0;
        double seconds = 0.0;
        std::size_t window = 0;
        bool cyclic = false;
        double timeoutMs = 0.0;
    };

    PhaseStats run(const Phase& phase);
    void issue(Conn& c, const Phase& phase, std::uint64_t n, double dueMs,
               PhaseStats& stats);
    void flush(Conn& c, PhaseStats& stats);
    /** Reads what is there and completes whole answers. */
    void drain(Conn& c, const Phase& phase, double endMs,
               PhaseStats& stats);
    void complete(Conn& c, const Phase& phase, std::string_view payload,
                  double nowMs, double endMs, PhaseStats& stats);
    void kill(Conn& c, PhaseStats& stats);

    double start_ = 0.0;  ///< The running phase's start, ms.
    const RunPlan& plan_;
    const Oracle& oracle_;
    Wire wire_;
    std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_HPP
