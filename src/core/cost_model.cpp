#include "core/cost_model.hpp"

#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace ftsim {

CloudCatalog
CloudCatalog::cudoCompute()
{
    CloudCatalog catalog;
    catalog.add({"CUDO", "A40", 0.79});
    catalog.add({"CUDO", "A100-80GB", 1.67});
    catalog.add({"CUDO", "H100", 2.10});
    return catalog;
}

void
CloudCatalog::add(const CloudOffering& offering)
{
    if (offering.dollarsPerHour <= 0.0)
        fatal("CloudCatalog::add: non-positive rate");
    if (offering.gpuName.empty())
        fatal("CloudCatalog::add: empty GPU name");
    offerings_.push_back(offering);
}

Result<double>
CloudCatalog::rate(const std::string& gpu_name) const
{
    double best = std::numeric_limits<double>::infinity();
    for (const auto& o : offerings_)
        if (o.gpuName == gpu_name)
            best = std::min(best, o.dollarsPerHour);
    if (!std::isfinite(best))
        return Error{ErrorCode::UnknownGpu,
                     strCat("CloudCatalog: no offering for GPU '",
                            gpu_name, "'")};
    return best;
}

CloudCatalog&
CloudCatalog::withRate(const std::string& gpu_name, double usd_per_hour)
{
    add({"user", gpu_name, usd_per_hour});
    return *this;
}

std::string
CloudCatalog::fingerprint() const
{
    std::string out;
    for (const auto& o : offerings_)
        strAppend(out, o.provider, '=', o.gpuName, '@',
                  Exact{o.dollarsPerHour}, ';');
    return out;
}

bool
CloudCatalog::has(const std::string& gpu_name) const
{
    for (const auto& o : offerings_)
        if (o.gpuName == gpu_name)
            return true;
    return false;
}

CostEstimator::CostEstimator(CloudCatalog catalog)
    : catalog_(std::move(catalog))
{
}

Result<CostEstimate>
CostEstimator::tryEstimate(const std::string& gpu_name, double qps,
                           double num_queries, double epochs) const
{
    if (qps <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "CostEstimator::estimate: non-positive throughput"};
    if (num_queries <= 0.0 || epochs <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "CostEstimator::estimate: non-positive workload"};

    Result<double> rate = catalog_.rate(gpu_name);
    if (!rate)
        return rate.error();

    CostEstimate est;
    est.gpuName = gpu_name;
    est.throughputQps = qps;
    est.dollarsPerHour = rate.value();
    est.gpuHours = epochs * num_queries / qps / 3600.0;
    est.totalDollars = est.gpuHours * est.dollarsPerHour;
    return est;
}

Result<CostEstimate>
CostEstimator::tryCheapest(
    const std::vector<std::pair<std::string, double>>& candidates,
    double num_queries, double epochs) const
{
    if (candidates.empty())
        return Error{ErrorCode::NoViablePlan,
                     "CostEstimator::cheapest: no candidates"};
    CostEstimate best;
    best.totalDollars = std::numeric_limits<double>::infinity();
    for (const auto& [gpu, qps] : candidates) {
        Result<CostEstimate> est =
            tryEstimate(gpu, qps, num_queries, epochs);
        if (!est)
            return est.error();
        if (est.value().totalDollars < best.totalDollars)
            best = est.value();
    }
    return best;
}

}  // namespace ftsim
