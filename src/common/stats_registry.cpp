#include "common/stats_registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/logging.hpp"

namespace ftsim {

namespace {

/** Integral doubles print bare; everything else losslessly (%.17g). */
std::string
fmtStatNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15)
        return strCat(static_cast<long long>(v));
    return strExact(v);
}

std::string
entryValue(const StatEntry& e)
{
    if (e.integral)
        return strCat(e.count);
    return fmtStatNumber(e.value);
}

/** CSV field: quoted (with doubled quotes) only when it needs to be. */
std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

}  // namespace

std::string
jsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

const StatEntry*
StatsSnapshot::find(const std::string& name) const
{
    // Entries are sorted by name; binary search.
    auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const StatEntry& e, const std::string& n) { return e.name < n; });
    if (it == entries.end() || it->name != name)
        return nullptr;
    return &*it;
}

std::uint64_t
StatsSnapshot::counter(const std::string& name) const
{
    const StatEntry* e = find(name);
    return e ? e->count : 0;
}

std::string
StatsSnapshot::toJson() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += ',';
        out += jsonQuote(entries[i].name);
        out += ':';
        out += entryValue(entries[i]);
    }
    out += '}';
    return out;
}

std::string
StatsSnapshot::toCsv() const
{
    std::string out = "name,value\n";
    for (const StatEntry& e : entries) {
        out += csvField(e.name);
        out += ',';
        out += entryValue(e);
        out += '\n';
    }
    return out;
}

void
StatsRegistry::Sink::counter(const std::string& name, std::uint64_t v)
{
    StatEntry e;
    e.name = name;
    e.integral = true;
    e.count = v;
    out_.push_back(std::move(e));
}

void
StatsRegistry::Sink::gauge(const std::string& name, double v)
{
    StatEntry e;
    e.name = name;
    e.integral = false;
    e.value = v;
    out_.push_back(std::move(e));
}

StatsCounter&
StatsRegistry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name];
}

StatsGauge&
StatsRegistry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gauges_[name];
}

Histogram&
StatsRegistry::histogram(const std::string& name, double lo, double hi,
                         std::size_t num_bins)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Histogram>& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(lo, hi, num_bins);
    return *slot;
}

std::size_t
StatsRegistry::addProvider(Provider provider)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t token = next_provider_++;
    providers_.emplace(token, std::move(provider));
    return token;
}

void
StatsRegistry::removeProvider(std::size_t token)
{
    std::lock_guard<std::mutex> lock(mutex_);
    providers_.erase(token);
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    StatsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.entries.reserve(counters_.size() + gauges_.size() +
                         3 * histograms_.size());
    for (const auto& [name, cell] : counters_) {
        StatEntry e;
        e.name = name;
        e.integral = true;
        e.count = cell.load();
        snap.entries.push_back(std::move(e));
    }
    for (const auto& [name, cell] : gauges_) {
        StatEntry e;
        e.name = name;
        e.integral = false;
        e.value = cell.load();
        snap.entries.push_back(std::move(e));
    }
    for (const auto& [name, hist] : histograms_) {
        StatEntry c;
        c.name = strCat(name, ".count");
        c.integral = true;
        c.count = hist->count();
        snap.entries.push_back(std::move(c));
        StatEntry p50;
        p50.name = strCat(name, ".p50");
        p50.integral = false;
        p50.value = hist->quantile(0.50);
        snap.entries.push_back(std::move(p50));
        StatEntry p99;
        p99.name = strCat(name, ".p99");
        p99.integral = false;
        p99.value = hist->quantile(0.99);
        snap.entries.push_back(std::move(p99));
    }
    Sink sink(snap.entries);
    for (const auto& [token, provider] : providers_)
        provider(sink);
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const StatEntry& a, const StatEntry& b) {
                  return a.name < b.name;
              });
    return snap;
}

std::string
formatStatsSummary(const StatsSnapshot& snapshot, const std::string& tool)
{
    std::string out;
    std::string group;
    for (const StatEntry& e : snapshot.entries) {
        const std::size_t dot = e.name.find('.');
        const std::string head =
            dot == std::string::npos ? e.name : e.name.substr(0, dot);
        const std::string tail =
            dot == std::string::npos ? e.name : e.name.substr(dot + 1);
        if (head != group) {
            if (!out.empty())
                out += '\n';
            strAppend(out, tool, ": ", head, ':');
            group = head;
        }
        strAppend(out, ' ', tail, '=', entryValue(e));
    }
    if (!out.empty())
        out += '\n';
    return out;
}

Result<bool>
writeStatsJson(const StatsSnapshot& snapshot, const std::string& path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Result<bool>::failure(
            ErrorCode::InvalidArgument,
            strCat("cannot open stats JSON path: ", path));
    out << snapshot.toJson() << '\n';
    out.flush();
    if (!out)
        return Result<bool>::failure(
            ErrorCode::InvalidArgument,
            strCat("short write to stats JSON path: ", path));
    return true;
}

Result<bool>
writeStatsCsv(const StatsSnapshot& snapshot, const std::string& path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Result<bool>::failure(
            ErrorCode::InvalidArgument,
            strCat("cannot open stats CSV path: ", path));
    out << snapshot.toCsv();
    out.flush();
    if (!out)
        return Result<bool>::failure(
            ErrorCode::InvalidArgument,
            strCat("short write to stats CSV path: ", path));
    return true;
}

}  // namespace ftsim
