/**
 * @file
 * The spelling of every cache and routing key, pinned byte for byte.
 *
 * Other tests only compare keys with each other. These bytes are a
 * contract beyond one process: the router places a request on the
 * FNV-1a ring by its canonicalKey(), duplicates coalesce on it, and
 * PlanRegistry snapshots pushed between shards carry keys built by
 * older and newer daemons alike. A formatter change that alters one
 * byte here moves requests between shards and splits a fleet's caches.
 */

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/scenario.hpp"
#include "models/spec.hpp"
#include "serve/protocol.hpp"

namespace ftsim {
namespace {

/** ModelSpec::mixtral8x7b().fingerprint(). */
const std::string kMixtral =
    "Mixtral-8x7B|0|0|32|4096|32|8|14336|8|2|32000|0|16|4|1|16|0.5";

/** The default calibration, every double spelled as %.17g. */
const std::string kDefaultCal =
    "|cal=30,0.20000000000000001,0.75,0.22,0.80000000000000004,2,0.02,50,4";

PlanRequest
parsed(const std::string& line)
{
    Result<PlanRequest> request = parsePlanRequest(line);
    EXPECT_TRUE(request.ok()) << line;
    return request.ok() ? request.value() : PlanRequest{};
}

TEST(KeySpelling, MixtralFingerprint)
{
    EXPECT_EQ(ModelSpec::mixtral8x7b().fingerprint(), kMixtral);
}

TEST(KeySpelling, DefaultScenario)
{
    EXPECT_EQ(Scenario{}.canonicalKey(),
              kMixtral +
                  "|seq=148|sigma=0.40000000000000002|q=14000|ep=10"
                  "|sparse=1" +
                  kDefaultCal);
}

TEST(KeySpelling, CudoCatalog)
{
    EXPECT_EQ(CloudCatalog::cudoCompute().fingerprint(),
              "CUDO=A40@0.79000000000000004;"
              "CUDO=A100-80GB@1.6699999999999999;"
              "CUDO=H100@2.1000000000000001;");
}

TEST(KeySpelling, ThroughputOnOneGpu)
{
    const PlanRequest request =
        parsed(R"({"id":"a-1","query":"throughput","gpu":"A40"})");
    EXPECT_EQ(request.canonicalKey(),
              "throughput|gpu=3:A40|gpus=|" + kMixtral +
                  "|seq=148|sigma=0.40000000000000002|q=14000|ep=10"
                  "|sparse=1" +
                  kDefaultCal + "|rates=");
}

TEST(KeySpelling, CheapestPlanWithRatesAndSigma)
{
    const PlanRequest request = parsed(
        R"({"id":"b-2","tenant":"bob","query":"cheapest_plan",)"
        R"("gpus":["A40","H100"],"rates":{"H100":3.5},)"
        R"("scenario":{"length_sigma":0.55}})");
    const std::string planner_key =
        kMixtral +
        "|seq=148|sigma=0.55000000000000004|q=14000|ep=10|sparse=1" +
        kDefaultCal + "|rates=4:H100@3.5;";
    EXPECT_EQ(request.plannerKey(), planner_key);
    EXPECT_EQ(request.canonicalKey(),
              "cheapest_plan|gpu=0:|gpus=3:A40,4:H100,|" + planner_key);
}

}  // namespace
}  // namespace ftsim
