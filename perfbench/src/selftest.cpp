#include "selftest.hpp"

#include <unordered_set>

#include "serve/wire.hpp"

namespace perfbench {

namespace {

const std::vector<std::uint32_t> RunPlan::*const kSequences[] = {
    &RunPlan::warmup, &RunPlan::open, &RunPlan::closed};

/** Same question indices in every sequence, and the same bytes for
 *  every request. */
bool
sameRequests(const RunPlan& a, const RunPlan& b, Wire wire)
{
    for (const auto seq : kSequences) {
        if (a.*seq != b.*seq)
            return false;
        for (std::uint32_t q : a.*seq)
            if (a.encode(q, "x", wire) != b.encode(q, "x", wire))
                return false;
    }
    return true;
}

/** canonicalKey of @p bytes as the program decodes it ("?" if not). */
std::string
decodedKey(const std::string& bytes, Wire wire)
{
    if (wire == Wire::Binary) {
        auto m = ftsim::decodeWirePayload(
            std::string_view(bytes).substr(ftsim::kWireHeaderBytes));
        return m ? m.value().request.canonicalKey() : "?";
    }
    auto r = ftsim::parsePlanRequest(bytes.substr(0, bytes.size() - 1));
    return r ? r.value().canonicalKey() : "?";
}

}  // namespace

std::vector<std::string>
runSelfTests(const WorkloadSpec& spec, std::uint64_t seed,
             std::size_t openCount, std::size_t closedPool,
             const RunPlan& plan)
{
    std::vector<std::string> failures;
    const auto fail = [&](const std::string& what) {
        failures.push_back(spec.name + ": " + what);
    };
    if (!sameRequests(plan, buildRunPlan(spec, seed, openCount, closedPool),
                      spec.wire))
        fail("not deterministic per seed");
    const RunPlan other = buildRunPlan(spec, seed + 1, openCount, closedPool);
    bool differs = plan.open != other.open;
    for (std::size_t i = 0; !differs && i < plan.open.size(); ++i)
        differs = plan.encode(plan.open[i], "x", spec.wire) !=
                  other.encode(other.open[i], "x", spec.wire);
    if (!differs)
        fail("seed does not change the run");

    // Keys of every question, as generated and as decoded from the
    // bytes sent for it.
    std::vector<std::string> keys(plan.size());
    for (std::uint32_t q = 0; q < plan.size(); ++q)
        keys[q] = plan.question(q).key;
    std::size_t asked = 0;
    bool decodes = true;
    for (const auto seq : kSequences)
        for (std::uint32_t q : plan.*seq) {
            ++asked;
            decodes = decodes &&
                      decodedKey(plan.encode(q, "x", spec.wire), spec.wire) ==
                          keys[q];
        }
    if (!decodes)
        fail("the wire bytes decode to other questions");

    if (spec.unique) {
        const std::unordered_set<std::string> distinct(keys.begin(),
                                                       keys.end());
        if (distinct.size() != asked || keys.size() != asked)
            fail("a canonicalKey repeats");
    } else {
        std::unordered_set<std::string> warm;
        for (std::uint32_t q : plan.warmup)
            warm.insert(keys[q]);
        if (warm.size() != plan.size())
            fail("warm-up does not cover every question");
        for (const auto seq : {&RunPlan::open, &RunPlan::closed})
            for (std::uint32_t q : plan.*seq)
                if (!warm.count(keys[q])) {
                    fail("warm-up misses a question asked");
                    return failures;
                }
        // hot_json and hot_binary must ask the same questions in the
        // same order; only the codec may differ.
        for (const WorkloadSpec& twin : workloads()) {
            if (twin.unique || twin.name == spec.name)
                continue;
            const RunPlan t = buildRunPlan(twin, seed, openCount, closedPool);
            bool same = t.size() == plan.size();
            for (const auto seq : kSequences) {
                same = same && t.*seq == plan.*seq;
                for (std::size_t i = 0; same && i < (t.*seq).size(); ++i)
                    same = decodedKey(t.encode((t.*seq)[i], "x", twin.wire),
                                      twin.wire) == keys[(plan.*seq)[i]];
            }
            if (!same)
                fail(twin.name + " asks other questions or another order");
        }
    }
    return failures;
}

}  // namespace perfbench
