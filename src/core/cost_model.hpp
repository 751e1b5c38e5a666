#ifndef FTSIM_CORE_COST_MODEL_HPP
#define FTSIM_CORE_COST_MODEL_HPP

/**
 * @file
 * Cloud fine-tuning cost estimation (§V-C, Table IV).
 *
 * Given an estimated throughput (queries/second), a dataset size, an
 * epoch count and a GPU rental rate, the cost is
 *
 *   hours = epochs * queries / qps / 3600
 *   cost  = hours * $/hr
 *
 * The catalog ships the paper's CUDO-Compute rates (A40 $0.79/hr,
 * A100-80GB $1.67/hr, H100 $2.10/hr) and is user-extensible for other
 * providers (AWS, Lambda, ...).
 */

#include <string>
#include <utility>
#include <vector>

#include "core/result.hpp"

namespace ftsim {

/** One GPU rental offering. */
struct CloudOffering {
    std::string provider;
    std::string gpuName;   ///< Must match GpuSpec::name for lookups.
    double dollarsPerHour = 0.0;
};

/** Price list of GPU rentals. */
class CloudCatalog {
  public:
    /** Empty catalog. */
    CloudCatalog() = default;

    /** The paper's CUDO-Compute rates. */
    static CloudCatalog cudoCompute();

    /** Adds an offering. */
    void add(const CloudOffering& offering);

    /**
     * Fluently adds (or overrides downward) a rate for @p gpu_name at
     * @p usd_per_hour under the "user" provider and returns *this* —
     * the extension point for GPUs missing from the built-in CUDO
     * list, e.g. `CloudCatalog::cudoCompute().withRate("L40S", 1.05)`.
     * Serve requests use it to price otherwise-`UnknownGpu` devices.
     * Fatal on a non-positive rate or empty name (same contract as
     * add(); validate first when the inputs are untrusted).
     */
    CloudCatalog& withRate(const std::string& gpu_name,
                           double usd_per_hour);

    /** All offerings. */
    const std::vector<CloudOffering>& offerings() const
    {
        return offerings_;
    }

    /**
     * Cheapest rate for the GPU name (any provider).
     * `UnknownGpu` if the GPU is not listed.
     */
    Result<double> rate(const std::string& gpu_name) const;

    /** True if any offering covers the GPU. */
    bool has(const std::string& gpu_name) const;

    /**
     * Canonical cache identity: every offering serialized in insertion
     * order. Serving layers fold this into their planner keys so two
     * requests with different rate overrides never share a planner.
     */
    std::string fingerprint() const;

  private:
    std::vector<CloudOffering> offerings_;
};

/** A full fine-tuning cost estimate. */
struct CostEstimate {
    std::string gpuName;
    double throughputQps = 0.0;
    double gpuHours = 0.0;
    double dollarsPerHour = 0.0;
    double totalDollars = 0.0;
};

/** Cost estimator over a catalog. */
class CostEstimator {
  public:
    explicit CostEstimator(CloudCatalog catalog);

    /**
     * Estimates fine-tuning cost.
     * @param gpu_name catalog key (`UnknownGpu` when unpriced).
     * @param qps estimated throughput in queries/second.
     * @param num_queries dataset size (the paper's "query" = prompt +
     *        ground-truth answer).
     * @param epochs fine-tuning epochs (paper default: 10).
     */
    Result<CostEstimate> tryEstimate(const std::string& gpu_name,
                                     double qps, double num_queries,
                                     double epochs) const;

    /**
     * Cheapest option among the given (gpu, qps) candidates.
     * `NoViablePlan` on an empty candidate list.
     */
    Result<CostEstimate> tryCheapest(
        const std::vector<std::pair<std::string, double>>& candidates,
        double num_queries, double epochs) const;

    /** The catalog in use. */
    const CloudCatalog& catalog() const { return catalog_; }

  private:
    CloudCatalog catalog_;
};

}  // namespace ftsim

#endif  // FTSIM_CORE_COST_MODEL_HPP
