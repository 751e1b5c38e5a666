#ifndef FTSIM_CORE_PIPELINE_TYPES_HPP
#define FTSIM_CORE_PIPELINE_TYPES_HPP

/**
 * @file
 * Value types returned by the planning facade (core/planner.hpp):
 * fitted analytical models with their training data, and Table IV cost
 * rows.
 */

#include <string>
#include <vector>

#include "core/batch_size_model.hpp"
#include "core/throughput_model.hpp"

namespace ftsim {

/** A fitted throughput model plus its training data and error. */
struct ThroughputFit {
    ThroughputModel model;
    std::vector<ThroughputObservation> observations;
    double rmse = 0.0;
};

/** A fitted batch-size model plus its training data and error. */
struct BatchSizeFit {
    MaxBatchModel model;
    std::vector<BatchSizeObservation> observations;
    double rmse = 0.0;
};

/** One row of the Table IV cost report. */
struct CostRow {
    std::string gpuName;
    double memGB = 0.0;
    int maxBatchSize = 0;
    double throughputQps = 0.0;
    double dollarsPerHour = 0.0;
    double totalDollars = 0.0;
};

}  // namespace ftsim

#endif  // FTSIM_CORE_PIPELINE_TYPES_HPP
