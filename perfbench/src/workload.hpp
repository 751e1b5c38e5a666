#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

/**
 * @file
 * The benchmark's workloads: which questions a run asks, in which
 * order, in which wire format, and at which offered rate.
 *
 * Everything here is a pure function of (workload, seed): the same
 * seed always yields the same bytes (self-tested in selftest.cpp).
 * The generator has its own SplitMix64 so that a change to the
 * program's RNG can never change the benchmark's inputs.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/** SplitMix64: tiny, seedable, identical on every platform. */
class SplitMix {
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi]. */
    std::int64_t between(std::int64_t lo, std::int64_t hi);

  private:
    std::uint64_t state_;
};

enum class Wire { Json, Binary };

/** One question as the generator sends it (its id is added per request). */
struct Question {
    /** JSON body after the id: `"query":...}` — the wire line is
     *  `{"id":"<id>",` + body. */
    std::string body;
    /** The question as the program parses it (id empty). */
    ftsim::PlanRequest request;
    /** request.canonicalKey(), cached. */
    std::string key;
};

/** Fixed parameters of one workload (see NOTES.md for the reasons). */
struct WorkloadSpec {
    std::string name;
    Wire wire = Wire::Json;
    /** true: every request is a fresh question (cold_unique). */
    bool unique = false;
    /** peak_rps of the commit that introduced the benchmark (4-core
     *  VM, Release build, a quiet period), requests/second. */
    double parentPeak = 0.0;
    /** Open-loop offered rate, requests/second: a fixed number, so
     *  later commits are measured at the same offered load (see
     *  NOTES.md for how it relates to parentPeak). */
    double openRate = 0.0;
};

/** Every workload the benchmark defines. */
const std::vector<WorkloadSpec>& workloads();
/** The named workload, or null. */
const WorkloadSpec* findWorkload(const std::string& name);

/**
 * The questions one run asks, by index. `warmup` is answered during
 * set-up; `open` is the open-loop schedule; `closed` is the pool the
 * closed loop draws from in order (it may not use all of it).
 *
 * Hot runs keep their 64 questions; unique runs hold hundreds of
 * thousands, so question i is regenerated from (seed, i) on demand.
 */
class RunPlan {
  public:
    std::vector<std::uint32_t> warmup;
    std::vector<std::uint32_t> open;
    std::vector<std::uint32_t> closed;

    /** Number of distinct questions. */
    std::size_t size() const { return count_; }
    /** Question @p q, parsed. */
    Question question(std::uint32_t q) const;
    /** The request bytes for question @p q under request id @p id. */
    std::string encode(std::uint32_t q, const std::string& id,
                       Wire wire) const;

  private:
    friend RunPlan buildRunPlan(const WorkloadSpec&, std::uint64_t,
                                std::size_t, std::size_t);
    std::vector<Question> stored_;
    bool unique_ = false;
    std::uint64_t seed_ = 0;
    std::size_t count_ = 0;
};

/**
 * Builds the run's questions. Hot workloads: the 64 hot questions, all
 * warmed, and Zipf-sampled sequences. Unique workloads: every index
 * names a question never asked before in the run.
 */
RunPlan buildRunPlan(const WorkloadSpec& spec, std::uint64_t seed,
                     std::size_t open_count, std::size_t closed_pool);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_HPP
