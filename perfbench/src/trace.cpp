#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/stats.hpp"

namespace perfbench {

namespace {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int
Tracer::begin(std::uint32_t request, const char* name, int parent,
              bool replay)
{
    if (!enabled_)
        return -1;
    Span span;
    span.request = request;
    span.name = name;
    span.parent = parent;
    span.replay = replay;
    span.startUs = nowUs();
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int span)
{
    if (span >= 0)
        spans_[static_cast<std::size_t>(span)].endUs = nowUs();
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().startUs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"span\":%zu,\"request\":%u,\"name\":\"%s\","
                     "\"layer\":\"%s\",\"parent\":%d,\"start_us\":%.3f,"
                     "\"dur_us\":%.3f,\"replay\":%s,\"tag\":\"%s\"}\n",
                     i, s.request, s.name, layerOf(s.name), s.parent,
                     s.startUs - origin, s.durationUs(),
                     s.replay ? "true" : "false", s.tag);
    }
    return std::fclose(out) == 0;
}

const char*
layerOf(const std::string& span)
{
    static const std::map<std::string, const char*> layers = {
        {"request", "request"}, {"frame", "net"},     {"decode", "serve"},
        {"route", "router"},    {"key", "serve"},     {"submit", "serve"},
        {"encode", "serve"},    {"planner", "core"},  {"simulate", "gpusim"},
    };
    const auto it = layers.find(span);
    return it == layers.end() ? "unknown" : it->second;
}

namespace {

/** Self time of every span: duration minus its children's durations. */
std::vector<double>
selfTimesUs(const std::vector<Span>& spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationUs();
    for (const Span& s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durationUs();
    return self;
}

}  // namespace

double
median(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : ftsim::median(xs);
}

double
p99(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : ftsim::percentile(xs, 99.0);
}

std::string
summarise(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    // Per request: self time summed by layer and by span name.
    std::map<std::string, std::map<std::uint32_t, double>> by_layer;
    std::map<std::string, std::map<std::uint32_t, double>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::string layer = layerOf(s.name);
        by_layer[layer == "request" ? "unattributed" : layer][s.request] +=
            self[i];
        by_name[s.name][s.request] += self[i];
    }
    auto values = [](const std::map<std::uint32_t, double>& m) {
        std::vector<double> v;
        for (const auto& [request, us] : m)
            v.push_back(us);
        return v;
    };
    std::string text;
    char line[256];
    std::snprintf(line, sizeof line, "  %-14s %-10s %8s %12s %12s\n", "layer",
                  "span", "requests", "self_p50_us", "self_p99_us");
    text += line;
    for (const char* layer :
         {"net", "serve", "router", "core", "gpusim", "unattributed"}) {
        const auto it = by_layer.find(layer);
        if (it == by_layer.end())
            continue;
        const std::vector<double> v = values(it->second);
        std::snprintf(line, sizeof line, "  %-14s %-10s %8zu %12.3f %12.3f\n",
                      layer, "(all)", v.size(), median(v), p99(v));
        text += line;
        for (const auto& [name, per_request] : by_name) {
            const std::string span_layer = layerOf(name);
            if (span_layer != layer &&
                !(span_layer == "request" &&
                  std::strcmp(layer, "unattributed") == 0))
                continue;
            const std::vector<double> w = values(per_request);
            std::snprintf(line, sizeof line,
                          "  %-14s %-10s %8zu %12.3f %12.3f\n", "",
                          name == "request" ? "remainder" : name.c_str(),
                          w.size(), median(w), p99(w));
            text += line;
        }
    }
    return text;
}

}  // namespace perfbench
