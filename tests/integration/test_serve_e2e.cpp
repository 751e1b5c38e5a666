/**
 * @file
 * Golden end-to-end serving test (ISSUE-4): replay the example request
 * file plus the governed (quota + eviction) fixture through a bounded
 * `PlanService`, exactly the way `tools/ftsim_serve.cpp` does — submit
 * every line in input order, then print one response per line with the
 * caller's id restamped — and compare the wire output *byte-exactly*
 * against the checked-in golden file.
 *
 * The same golden gates the CLI itself: ci.sh pipes the same two
 * fixtures through `ftsim_serve --max-answers 4 --max-planners 2
 * --tenant-rps 0.000001` and diffs against it, so the in-process
 * service and the tool can never drift apart on the wire.
 *
 * Determinism: every answer is a pure function of the request (evicted
 * entries recompute identically), and admission decisions happen at
 * submit time on one thread, so the rejection pattern depends only on
 * input order — tenant "mallory" always gets its burst of 1, then
 * RateLimited. Regenerate after an intentional protocol change with:
 *
 *   cat examples/serve_requests.jsonl \
 *       examples/serve_requests_governed.jsonl \
 *     | ./build/ftsim_serve - --max-answers 4 --max-planners 2 \
 *         --tenant-rps 0.000001 \
 *     > tests/integration/golden_serve_e2e.jsonl
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/plan_service.hpp"

#ifndef FTSIM_SOURCE_DIR
#error "FTSIM_SOURCE_DIR must point at the repo root (set by CMake)"
#endif

namespace ftsim {
namespace {

std::string
sourcePath(const std::string& relative)
{
    return std::string(FTSIM_SOURCE_DIR) + "/" + relative;
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** ServiceConfig matching the flags ci.sh passes to ftsim_serve. */
ServiceConfig
goldenConfig()
{
    ServiceConfig config;
    config.maxAnswers = 4;
    config.maxPlanners = 2;
    config.tenantRps = 0.000001;  // Burst-only: 1 request per tenant.
    return config;
}

TEST(ServeE2E, GoldenOutputIsByteExact)
{
    std::vector<std::string> requests =
        readLines(sourcePath("examples/serve_requests.jsonl"));
    const std::vector<std::string> governed = readLines(
        sourcePath("examples/serve_requests_governed.jsonl"));
    requests.insert(requests.end(), governed.begin(), governed.end());
    ASSERT_FALSE(requests.empty());

    const std::vector<std::string> golden = readLines(
        sourcePath("tests/integration/golden_serve_e2e.jsonl"));

    PlanService service(goldenConfig());

    // Mirror ftsim_serve: admit everything up front in input order,
    // then resolve in input order with the caller's id restamped.
    struct Slot {
        std::string id;
        bool parsed = false;
        std::string parseError;
        std::shared_future<PlanResponse> future;
    };
    std::vector<Slot> slots;
    for (const std::string& line : requests) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        Slot slot;
        Result<PlanRequest> request = parsePlanRequest(line);
        if (request) {
            slot.id = request.value().id;
            slot.parsed = true;
            slot.future = service.submit(request.value());
        } else {
            slot.parseError = request.error().message;
        }
        slots.push_back(std::move(slot));
    }

    std::vector<std::string> output;
    for (Slot& slot : slots) {
        if (!slot.parsed) {
            output.push_back(
                writeProtocolError(slot.id, slot.parseError));
            continue;
        }
        PlanResponse response = slot.future.get();
        response.id = slot.id;
        output.push_back(writePlanResponse(response));
    }

    ASSERT_EQ(output.size(), golden.size())
        << "response count diverged from the golden file — "
           "regenerate it if the fixtures changed (see file comment)";
    for (std::size_t i = 0; i < output.size(); ++i)
        EXPECT_EQ(output[i], golden[i]) << "line " << i + 1;

    // The fixture must actually exercise the governance layer, or the
    // golden stops guarding it: quota rejections AND evictions.
    const StatsSnapshot stats = service.statsRegistry()->snapshot();
    // mallory-2, mallory-3.
    EXPECT_GE(stats.counter("serve.rate_limited"), 2u);
    EXPECT_GT(stats.counter("serve.answers.evicted"), 0u);
    EXPECT_LE(stats.counter("serve.answers.peak"), 4u);
    EXPECT_EQ(stats.counter("serve.tenant.mallory.admitted"), 1u);
    EXPECT_EQ(stats.counter("serve.tenant.mallory.rejected_rate"), 2u);
    EXPECT_EQ(stats.counter("serve.tenant.eve.admitted"), 1u);
}

}  // namespace
}  // namespace ftsim
