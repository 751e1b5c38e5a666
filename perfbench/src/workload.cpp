#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "serve/wire.hpp"

namespace perfbench {

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t
SplitMix::between(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

const std::vector<WorkloadSpec>&
workloads()
{
    // parentPeak is peak_rps of the commit that introduced the
    // benchmark, measured in a quiet period; it sizes cold_unique's
    // closed-loop pool. Every workload is offered the same 2000 req/s,
    // a rate at which requests rarely wait behind one another (NOTES.md
    // says why).
    static const std::vector<WorkloadSpec> specs = {
        {"hot_json", Wire::Json, false, 35000.0, 2000.0},
        {"hot_binary", Wire::Binary, false, 40000.0, 2000.0},
        {"cold_unique", Wire::Json, true, 19000.0, 2000.0},
    };
    return specs;
}

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : workloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

namespace {

/** Builds a Question from its JSON body; aborts on a body the program
 *  rejects (the generator only writes valid questions). */
Question
makeQuestion(const std::string& body)
{
    Question q;
    q.body = body;
    ftsim::Result<ftsim::PlanRequest> parsed =
        ftsim::parsePlanRequest("{" + body);
    if (!parsed) {
        std::fprintf(stderr, "fleetbench: generator wrote a bad question "
                             "{%s: %s\n",
                     body.c_str(), parsed.error().message.c_str());
        std::abort();
    }
    q.request = parsed.value();
    q.key = q.request.canonicalKey();
    return q;
}

const char* const kGpus[] = {"A40", "A100-40GB", "A100-80GB", "H100"};
const char* const kPresets[] = {"gs_math", "commonsense15k", "open_orca"};
const char* const kModels[] = {"mixtral8x7b", "blackmamba2p8b"};

std::string
scenarioJson(int preset, int model)
{
    return std::string("\"scenario\":{\"preset\":\"") + kPresets[preset] +
           "\",\"model\":\"" + kModels[model] + "\"}";
}

/** The hot grid: 6 scenarios x (throughput, max_batch) x 4 GPUs, the
 *  two multi-GPU kinds per scenario, and one report per GPU = 64. */
std::vector<Question>
buildHotQuestions()
{
    std::vector<std::string> bodies;
    for (int p = 0; p < 3; ++p) {
        for (int m = 0; m < 2; ++m) {
            const std::string scenario = scenarioJson(p, m);
            for (const char* gpu : kGpus) {
                bodies.push_back(std::string("\"query\":\"throughput\","
                                             "\"gpu\":\"") +
                                 gpu + "\"," + scenario + "}");
                bodies.push_back(std::string("\"query\":\"max_batch\","
                                             "\"gpu\":\"") +
                                 gpu + "\"," + scenario + "}");
            }
            bodies.push_back("\"query\":\"cost_table\"," + scenario + "}");
            bodies.push_back("\"query\":\"cheapest_plan\"," + scenario +
                             "}");
        }
    }
    for (int g = 0; g < 4; ++g)
        bodies.push_back(std::string("\"query\":\"report\",\"gpu\":\"") +
                         kGpus[g] + "\"," + scenarioJson(g % 3, g % 2) +
                         "}");
    // A fixed popularity order, independent of the run seed: the seed
    // varies the request sequence, not which questions are hot, so
    // every seed loads the two shards in the same proportions.
    SplitMix shuffle(0x5eed0064);
    for (std::size_t i = bodies.size(); i > 1; --i)
        std::swap(bodies[i - 1],
                  bodies[static_cast<std::size_t>(shuffle.next() % i)]);
    std::vector<Question> out;
    for (const std::string& body : bodies)
        out.push_back(makeQuestion(body));
    return out;
}

/** Zipf(s = 1) sampler over ranks [0, n). */
class Zipf {
  public:
    explicit Zipf(std::size_t n) : cdf_(n)
    {
        double total = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            cdf_[k] = (total += 1.0 / static_cast<double>(k + 1));
        for (double& c : cdf_)
            c /= total;
    }
    std::uint32_t sample(SplitMix& rng) const
    {
        const auto it =
            std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
        return static_cast<std::uint32_t>(
            std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
    }

  private:
    std::vector<double> cdf_;
};

/**
 * The JSON body of question @p index of a unique run. num_queries
 * carries the index, so no two indices share a canonicalKey; the other
 * fields are seeded draws that vary model, preset, sequence length,
 * epochs and GPUs.
 */
std::string
uniqueBody(std::uint64_t seed, std::uint64_t index)
{
    SplitMix rng(seed * 0xd1b54a32d192ed03ULL + index);
    static const char* const kinds[] = {"max_batch", "throughput",
                                        "cost_table", "cheapest_plan",
                                        "report"};
    static const double weights[] = {0.20, 0.35, 0.15, 0.15, 0.15};
    double u = rng.uniform();
    std::size_t kind = 0;
    while (kind < 4 && u >= weights[kind])
        u -= weights[kind++];
    const int preset = static_cast<int>(rng.between(0, 2));
    const int model = static_cast<int>(rng.between(0, 1));
    const long seq = static_cast<long>(rng.between(64, 640));
    const long epochs = static_cast<long>(rng.between(1, 5));
    char scenario[200];
    std::snprintf(scenario, sizeof scenario,
                  "\"scenario\":{\"preset\":\"%s\",\"model\":\"%s\","
                  "\"median_seq_len\":%ld,\"num_queries\":%llu,"
                  "\"epochs\":%ld}",
                  kPresets[preset], kModels[model], seq,
                  static_cast<unsigned long long>(20000 + index), epochs);
    std::string body = std::string("\"query\":\"") + kinds[kind] + "\",";
    if (kind == 2 || kind == 3) {
        // A non-empty GPU subset, in catalog order.
        std::uint64_t mask = 0;
        while (mask == 0)
            mask = rng.next() & 0xf;
        body += "\"gpus\":[";
        bool first = true;
        for (int g = 0; g < 4; ++g) {
            if (!(mask & (1u << g)))
                continue;
            body += std::string(first ? "\"" : ",\"") + kGpus[g] + "\"";
            first = false;
        }
        body += "],";
    } else {
        body += std::string("\"gpu\":\"") + kGpus[rng.between(0, 3)] +
                "\",";
    }
    return body + scenario + "}";
}

/** The 64 hot questions, in Zipf rank order (rank 0 most popular). */
const std::vector<Question>&
hotQuestions()
{
    static const std::vector<Question> questions = buildHotQuestions();
    return questions;
}

}  // namespace

RunPlan
buildRunPlan(const WorkloadSpec& spec, std::uint64_t seed,
             std::size_t open_count, std::size_t closed_pool)
{
    RunPlan plan;
    plan.unique_ = spec.unique;
    plan.seed_ = seed;
    if (!spec.unique) {
        plan.stored_ = hotQuestions();
        plan.count_ = plan.stored_.size();
        for (std::uint32_t i = 0; i < plan.count_; ++i)
            plan.warmup.push_back(i);
        const Zipf zipf(plan.count_);
        SplitMix open_rng(seed);
        for (std::size_t i = 0; i < open_count; ++i)
            plan.open.push_back(zipf.sample(open_rng));
        SplitMix closed_rng(seed ^ 0xc105edc105edULL);
        for (std::size_t i = 0; i < closed_pool; ++i)
            plan.closed.push_back(zipf.sample(closed_rng));
        return plan;
    }
    const std::size_t warmup = 8;
    plan.count_ = warmup + open_count + closed_pool;
    for (std::uint32_t i = 0; i < plan.count_; ++i)
        (i < warmup ? plan.warmup
                    : i < warmup + open_count ? plan.open : plan.closed)
            .push_back(i);
    return plan;
}

Question
RunPlan::question(std::uint32_t q) const
{
    return unique_ ? makeQuestion(uniqueBody(seed_, q)) : stored_[q];
}

std::string
RunPlan::encode(std::uint32_t q, const std::string& id, Wire wire) const
{
    if (wire == Wire::Binary) {
        ftsim::PlanRequest request =
            unique_ ? question(q).request : stored_[q].request;
        request.id = id;
        return ftsim::encodeRequestFrame(request);
    }
    std::string line = "{\"id\":\"" + id + "\",";
    line += unique_ ? uniqueBody(seed_, q) : stored_[q].body;
    line += '\n';
    return line;
}

}  // namespace perfbench
