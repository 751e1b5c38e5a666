#ifndef FTSIM_COMMON_STATS_REGISTRY_HPP
#define FTSIM_COMMON_STATS_REGISTRY_HPP

/**
 * @file
 * Thread-safe registry of named counters, gauges, and histograms.
 *
 * Every serving-stack component (Planner step caches, PlanService,
 * NetServer, RouterServer) publishes its runtime counters into one of
 * these under hierarchical dotted names — `serve.requests`,
 * `net.conn.accepted`, `router.shard.127.0.0.1:9001.routed` — instead
 * of keeping private ad-hoc atomics. The registry is the one read
 * path for those counters: the live `stats` protocol query scrapes it,
 * `--stats-json/--stats-csv` dump it on exit (the DNNsim
 * Statistics/StatsWriter shape), and benches and tests read
 * `snapshot()` under the same cell names.
 *
 * Concurrency contract (mirrors PlannerStats):
 *
 * - `counter()/gauge()/histogram()` return stable references — entries
 *   are never removed, and the owning maps never invalidate references
 *   on insert. Registration takes the registry mutex; do it once at
 *   setup, keep the reference, and publish through it.
 * - Publishing (`StatsCounter::add`, `StatsGauge::set`,
 *   `Histogram::add`) is lock-free relaxed-atomic — safe on hot paths,
 *   no mutex, no fence beyond the atomic op itself.
 * - `snapshot()` is point-in-time consistent the way `Planner::stats()`
 *   is: each cell is read atomically (never torn), but cells racing
 *   with in-flight publishes may disagree by the handful of operations
 *   still in flight. Quiesce writers first if you need exact totals —
 *   tests and the benches snapshot after joining their workers.
 *
 * The registry is deliberately instance-based, not a process singleton:
 * tests build many services per process, and a shared PlanService +
 * NetServer pair share one registry so a shard's `stats` answer covers
 * both layers.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/result.hpp"

namespace ftsim {

class StatsRegistry;

/** Monotonic lock-free counter cell. */
class StatsCounter {
  public:
    StatsCounter() = default;
    StatsCounter(const StatsCounter&) = delete;
    StatsCounter& operator=(const StatsCounter&) = delete;

    void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-write-wins lock-free gauge cell. */
class StatsGauge {
  public:
    StatsGauge() = default;
    StatsGauge(const StatsGauge&) = delete;
    StatsGauge& operator=(const StatsGauge&) = delete;

    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double load() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** One named value inside a snapshot. */
struct StatEntry {
    std::string name;
    /** True for counters (rendered without a decimal point). */
    bool integral = true;
    std::uint64_t count = 0;
    double value = 0.0;

    double num() const
    {
        return integral ? static_cast<double>(count) : value;
    }
};

/** Point-in-time snapshot of a registry; sorted by name. */
struct StatsSnapshot {
    std::vector<StatEntry> entries;

    /** Entry by exact name, or nullptr. */
    const StatEntry* find(const std::string& name) const;

    /** Counter value by name (0 when absent). */
    std::uint64_t counter(const std::string& name) const;

    /** Flat single-line JSON object: {"a.b":1,"c":2.5,...}. */
    std::string toJson() const;

    /** CSV with a name,value header (the DNNsim StatsWriter shape). */
    std::string toCsv() const;
};

/**
 * The registry. See the @file contract; one instance per logical
 * process component tree (service + its net front end share one).
 */
class StatsRegistry {
  public:
    /**
     * Collector handed to providers at snapshot time. Providers
     * contribute dynamic rows — per-tenant tables, LRU sizes, queue
     * depths, latency quantiles — that have no fixed cell to publish
     * into.
     */
    class Sink {
      public:
        void counter(const std::string& name, std::uint64_t v);
        void gauge(const std::string& name, double v);

      private:
        friend class StatsRegistry;
        explicit Sink(std::vector<StatEntry>& out) : out_(out) {}
        std::vector<StatEntry>& out_;
    };

    using Provider = std::function<void(Sink&)>;

    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry&) = delete;
    StatsRegistry& operator=(const StatsRegistry&) = delete;

    /** Counter cell under @p name (registered on first use). */
    StatsCounter& counter(const std::string& name);

    /** Gauge cell under @p name (registered on first use). */
    StatsGauge& gauge(const std::string& name);

    /**
     * Histogram cell under @p name. The shape arguments apply on first
     * registration only; snapshots expose `<name>.count`, `<name>.p50`,
     * and `<name>.p99`.
     */
    Histogram& histogram(const std::string& name, double lo, double hi,
                         std::size_t num_bins);

    /**
     * Registers a snapshot-time provider; returns a token for
     * `removeProvider`. Providers run under the registry mutex — they
     * may take component locks (registry -> component ordering) but
     * must never call back into this registry.
     */
    std::size_t addProvider(Provider provider);

    /** Unregisters a provider; outliving the component is a use-after-free. */
    void removeProvider(std::size_t token);

    /** Collects every cell and provider row into a sorted snapshot. */
    StatsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    // std::map: node-based, so cell references stay valid forever.
    std::map<std::string, StatsCounter> counters_;
    std::map<std::string, StatsGauge> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::size_t, Provider> providers_;
    std::size_t next_provider_ = 0;
};

/** JSON string literal (quotes + escapes) for embedding names. */
std::string jsonQuote(const std::string& s);

/**
 * One-line-per-subsystem stderr summary shared by ftsim_serve,
 * ftsim_served, and ftsim_router: entries grouped by their first dotted
 * segment, `<tool>: <group>: key=value ...` per group.
 */
std::string formatStatsSummary(const StatsSnapshot& snapshot,
                               const std::string& tool);

/** Writes `snapshot.toJson()` (plus trailing newline) to @p path. */
Result<bool> writeStatsJson(const StatsSnapshot& snapshot,
                            const std::string& path);

/** Writes `snapshot.toCsv()` to @p path. */
Result<bool> writeStatsCsv(const StatsSnapshot& snapshot,
                           const std::string& path);

}  // namespace ftsim

#endif  // FTSIM_COMMON_STATS_REGISTRY_HPP
