#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/**
 * @file
 * In-memory spans for the traced replay, their writer, and the
 * self-time summariser.
 *
 * A span has a name, a start, an end, the request it belongs to and
 * the span that caused it. Spans stay in a vector while the replay
 * runs and are written out as JSON lines when it ends.
 *
 * Self time of a span is its duration minus the durations of its
 * children. For the ordinary spans the children lie inside the
 * parent's interval. The `planner` and `simulate` spans of a miss are
 * the exception: they come from a second pass that replays the miss
 * into a fresh Planner and FineTuneSim after the request finished, so
 * they carry `"replay":true` and sit outside their parent's interval.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::uint32_t request = 0;
    const char* name = "";
    /** Index of the parent span; -1 for a request's root. */
    std::int32_t parent = -1;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Timed in the replay pass (see file comment). */
    bool replay = false;
    /** Free-form tag: query kind for `planner`, hit/miss for `submit`. */
    const char* tag = "";

    double durationUs() const { return endUs - startUs; }
};

class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 16);
    }
    bool enabled() const { return enabled_; }

    /** Opens a span; returns its index (-1 when tracing is off). */
    int begin(std::uint32_t request, const char* name, int parent,
              bool replay = false);
    void end(int span);
    void tag(int span, const char* tag)
    {
        if (span >= 0)
            spans_[static_cast<std::size_t>(span)].tag = tag;
    }

    const std::vector<Span>& spans() const { return spans_; }
    /** Writes every span as one JSON line; false on an IO error. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** The layer a span name belongs to (net, serve, router, core,
 *  gpusim), or "request" for the root. */
const char* layerOf(const std::string& span);

/**
 * Per layer and per span name: median and p99 of the per-request self
 * time, plus the roots' unattributed remainder (root duration minus
 * its children), rendered as a table.
 */
std::string summarise(const std::vector<Span>& spans);

/** Median and p99 helpers that tolerate empty input (return 0). */
double median(const std::vector<double>& xs);
double p99(const std::vector<double>& xs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
