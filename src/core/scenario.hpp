#ifndef FTSIM_CORE_SCENARIO_HPP
#define FTSIM_CORE_SCENARIO_HPP

/**
 * @file
 * The planning scenario: one fine-tuning run to be priced.
 *
 * A `Scenario` bundles everything the paper's §V workflow needs to
 * answer "what will this run cost on which GPU?": the model, the dataset
 * shape (median length, log-normal spread, size), the sparsity mode, the
 * training hyper-parameters, and the simulator calibration. It is the
 * single source of truth for the defaults that the seed code duplicated
 * across call sites (notably `lengthSigma`, which appeared as both 0.45
 * and 0.40 depending on the entry point).
 *
 * Scenarios are plain values: copy them, tweak a field (or chain the
 * fluent `with*` setters) and hand them to a `Planner`.
 */

#include <cstddef>
#include <string>
#include <utility>

#include "core/result.hpp"
#include "gpusim/exec_model.hpp"
#include "models/spec.hpp"

namespace ftsim {

/** One planned fine-tuning run (model + dataset + hyper-parameters). */
struct Scenario {
    // ----- Canonical defaults (the single copy in the codebase) -----

    /** Log-normal shape of the query-length distribution. */
    static constexpr double kDefaultLengthSigma = 0.40;
    /** GS/MATH median query length (paper Table II). */
    static constexpr std::size_t kDefaultMedianSeqLen = 148;
    /** GS/MATH dataset size (paper Table IV workload). */
    static constexpr double kDefaultNumQueries = 14000.0;
    /** Fine-tuning epochs (paper default). */
    static constexpr double kDefaultEpochs = 10.0;

    // ----- Fields -----

    ModelSpec model = ModelSpec::mixtral8x7b();
    /** Median query length of the dataset, tokens. */
    std::size_t medianSeqLen = kDefaultMedianSeqLen;
    /** Log-normal sigma of the length distribution (0 = no padding). */
    double lengthSigma = kDefaultLengthSigma;
    /** Dataset size in queries (prompt + ground-truth answer). */
    double numQueries = kDefaultNumQueries;
    /** Fine-tuning epochs. */
    double epochs = kDefaultEpochs;
    /** Sparse top-k routing (true) vs. all-experts dense (false). */
    bool sparse = true;
    /** Simulator calibration knobs. */
    SimCalibration calibration = {};

    // ----- Fluent setters (named-parameter construction) -----

    Scenario& withModel(ModelSpec m)
    {
        model = std::move(m);
        return *this;
    }
    Scenario& withMedianSeqLen(std::size_t seq)
    {
        medianSeqLen = seq;
        return *this;
    }
    Scenario& withLengthSigma(double sigma)
    {
        lengthSigma = sigma;
        return *this;
    }
    Scenario& withNumQueries(double n)
    {
        numQueries = n;
        return *this;
    }
    Scenario& withEpochs(double e)
    {
        epochs = e;
        return *this;
    }
    Scenario& withSparse(bool s)
    {
        sparse = s;
        return *this;
    }
    Scenario& withCalibration(const SimCalibration& c)
    {
        calibration = c;
        return *this;
    }

    // ----- Presets (the paper's workloads, Table II) -----

    /** Mixtral on GS/MATH: 14k queries, median 148 — the Table IV run. */
    static Scenario gsMath();

    /** Mixtral on Commonsense-15k: 15k queries, median 79. */
    static Scenario commonsense15k();

    /** The OpenOrca enterprise projection: 2M queries. */
    static Scenario openOrca();

    // ----- Introspection -----

    /**
     * Checks field domains (positive workload, non-negative sigma, ...).
     * Returns the validated scenario, or `InvalidArgument`.
     */
    Result<Scenario> validated() const;

    /** Human-readable one-liner for logs and report headers. */
    std::string describe() const;

    /**
     * Canonical cache identity: every field that affects any planning
     * answer — the full model fingerprint, the dataset shape, the
     * hyper-parameters, and the simulator calibration — serialized.
     * Serving layers key shared `Planner` instances on this, so two
     * tenants planning the same run (however they spelled it) land on
     * one planner and one step cache.
     */
    std::string canonicalKey() const;

    /** Appends canonicalKey() to @p out (for key builders). */
    void appendCanonicalKey(std::string& out) const;
};

}  // namespace ftsim

#endif  // FTSIM_CORE_SCENARIO_HPP
