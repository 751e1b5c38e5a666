/**
 * @file
 * PlanRegistry snapshot tests: the warm-start wire format.
 *
 * Two claims matter. First, fidelity: a plan that round-trips through
 * `saveRegistrySnapshot` / `loadRegistrySnapshot` must be
 * *bit-identical* to its donor — same keys, same SoA arrays, same
 * formula constants, same `evaluate()` output to the last ULP — and a
 * service warm-started from a snapshot must compile zero plans for the
 * donor's configs while answering byte-identically. Second, hostility:
 * snapshot bytes arrive over the wire, so truncation at any offset,
 * corruption anywhere, bad versions/magic/enums/lengths must all be
 * typed `InvalidArgument` rejections that leave the target registry
 * untouched — never UB, never a half-adopted load.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/base64.hpp"
#include "gpusim/plan_registry.hpp"
#include "gpusim/registry_snapshot.hpp"
#include "serve/plan_service.hpp"

namespace ftsim {
namespace {

/** A service that has compiled a few distinct plan shapes (both
 *  models, two datasets), ready to donate a snapshot. */
void
populate(PlanService& service)
{
    PlanRequest maxBatch;
    maxBatch.query = QueryKind::MaxBatch;
    maxBatch.gpu = "A40";
    EXPECT_TRUE(service.ask(maxBatch).ok);

    PlanRequest throughput;
    throughput.query = QueryKind::Throughput;
    throughput.gpu = "H100";
    throughput.scenario = Scenario::commonsense15k();
    EXPECT_TRUE(service.ask(throughput).ok);

    PlanRequest mamba;
    mamba.query = QueryKind::Throughput;
    mamba.gpu = "A40";
    mamba.scenario = Scenario::gsMath();
    mamba.scenario.withModel(ModelSpec::blackMamba2p8b());
    EXPECT_TRUE(service.ask(mamba).ok);
}

using PlanMap =
    std::map<std::string, std::shared_ptr<const StepPlan>>;

PlanMap
plansOf(const PlanRegistry& registry)
{
    PlanMap out;
    registry.forEachReadyPlan(
        [&out](const std::string& key,
               const std::shared_ptr<const StepPlan>& plan) {
            out.emplace(key, plan);
        });
    return out;
}

TEST(RegistrySnapshot, RoundTripIsBitIdentical)
{
    PlanService donor;
    populate(donor);
    const PlanRegistry& source = *donor.planRegistry();
    ASSERT_GT(source.plansCompiled(), 0u);

    const std::string bytes = saveRegistrySnapshot(source);
    PlanRegistry target;
    Result<SnapshotLoadInfo> info =
        loadRegistrySnapshot(target, bytes);
    ASSERT_TRUE(info.ok()) << info.error().message;
    EXPECT_EQ(info.value().plansLoaded, source.plansCompiled());
    EXPECT_EQ(info.value().plansSkipped, 0u);
    EXPECT_EQ(target.plansLoaded(), info.value().plansLoaded);
    EXPECT_EQ(target.plansCompiled(), 0u);

    const PlanMap donorPlans = plansOf(source);
    const PlanMap loadedPlans = plansOf(target);
    ASSERT_EQ(donorPlans.size(), loadedPlans.size());
    for (const auto& [key, donorPlan] : donorPlans) {
        auto it = loadedPlans.find(key);
        ASSERT_NE(it, loadedPlans.end()) << key;
        const StepPlan& a = *donorPlan;
        const StepPlan& b = *it->second;
        ASSERT_EQ(a.size(), b.size()) << key;
        EXPECT_EQ(a.activeExperts, b.activeExperts);
        EXPECT_EQ(a.nExperts, b.nExperts);
        for (std::size_t i = 0; i < a.size(); ++i) {
            // Name ids are interner-local; the spelling must agree.
            EXPECT_EQ(source.names().name(a.nameIds[i]),
                      target.names().name(b.nameIds[i]));
            EXPECT_EQ(a.kinds[i], b.kinds[i]);
            EXPECT_EQ(a.layers[i], b.layers[i]);
            EXPECT_EQ(a.stages[i], b.stages[i]);
            EXPECT_EQ(a.counts[i], b.counts[i]);
            EXPECT_EQ(a.efficiencies[i], b.efficiencies[i]);
            EXPECT_EQ(0, std::memcmp(&a.formulas[i], &b.formulas[i],
                                     sizeof(KernelFormula)));
        }
        // The re-derived aggregation tables evaluate identically:
        // bit-exact flops/bytes/tiles at several (batch, seq) points.
        EvaluatedStep ea;
        EvaluatedStep eb;
        for (const auto& [batch, seq] :
             {std::pair<std::size_t, std::size_t>{1, 128},
              {4, 512},
              {16, 4096}}) {
            a.evaluate(batch, seq, ea);
            b.evaluate(batch, seq, eb);
            ASSERT_EQ(ea.flops.size(), eb.flops.size());
            for (std::size_t i = 0; i < ea.flops.size(); ++i) {
                EXPECT_EQ(ea.flops[i], eb.flops[i]);
                EXPECT_EQ(ea.bytes[i], eb.bytes[i]);
                EXPECT_EQ(ea.tiles[i], eb.tiles[i]);
            }
        }
    }

    // Determinism: the same registry snapshots to the same bytes.
    EXPECT_EQ(bytes, saveRegistrySnapshot(source));
}

TEST(RegistrySnapshot, WarmStartedServiceCompilesZeroPlans)
{
    PlanService donor;
    populate(donor);
    const std::string bytes =
        saveRegistrySnapshot(*donor.planRegistry());

    PlanService warmed;
    Result<SnapshotLoadInfo> info =
        loadRegistrySnapshot(*warmed.planRegistry(), bytes);
    ASSERT_TRUE(info.ok()) << info.error().message;
    ASSERT_GT(info.value().plansLoaded, 0u);

    // Same traffic: every plan lookup hits the warm registry.
    populate(warmed);
    EXPECT_EQ(warmed.planRegistry()->plansCompiled(), 0u);
    EXPECT_GT(warmed.planRegistry()->planHits(), 0u);
    EXPECT_EQ(warmed.statsRegistry()->snapshot().counter(
                  "serve.plans.loaded"),
              info.value().plansLoaded);

    // And the answers are byte-identical to the donor's.
    PlanRequest probe;
    probe.query = QueryKind::Throughput;
    probe.gpu = "H100";
    probe.scenario = Scenario::commonsense15k();
    EXPECT_EQ(writePlanResponse(donor.ask(probe)),
              writePlanResponse(warmed.ask(probe)));
}

TEST(RegistrySnapshot, LoadingTwiceSkipsKnownKeys)
{
    PlanService donor;
    populate(donor);
    const std::string bytes =
        saveRegistrySnapshot(*donor.planRegistry());

    PlanRegistry target;
    Result<SnapshotLoadInfo> first =
        loadRegistrySnapshot(target, bytes);
    ASSERT_TRUE(first.ok());
    Result<SnapshotLoadInfo> second =
        loadRegistrySnapshot(target, bytes);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().plansLoaded, 0u);
    EXPECT_EQ(second.value().plansSkipped,
              first.value().plansLoaded);
}

TEST(RegistrySnapshot, TruncationAtEveryRegionIsRejected)
{
    PlanService donor;
    populate(donor);
    const std::string bytes =
        saveRegistrySnapshot(*donor.planRegistry());
    ASSERT_GT(bytes.size(), 64u);

    // Every header offset, then a sweep across the payload (every
    // prefix would be thousands of loads; 97 is coprime with the
    // record sizes, so the cut lands in every field family).
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n < 32; ++n)
        cuts.push_back(n);
    for (std::size_t n = 32; n < bytes.size(); n += 97)
        cuts.push_back(n);
    cuts.push_back(bytes.size() - 1);
    for (std::size_t n : cuts) {
        PlanRegistry target;
        Result<SnapshotLoadInfo> info =
            loadRegistrySnapshot(target, bytes.substr(0, n));
        EXPECT_FALSE(info.ok()) << "prefix of " << n << " bytes";
        if (!info.ok())
            EXPECT_EQ(info.error().code, ErrorCode::InvalidArgument);
        // All-or-nothing: the failed load adopted nothing.
        EXPECT_EQ(target.plansLoaded(), 0u);
        EXPECT_TRUE(plansOf(target).empty());
    }
}

TEST(RegistrySnapshot, CorruptionAnywhereIsRejected)
{
    PlanService donor;
    populate(donor);
    const std::string bytes =
        saveRegistrySnapshot(*donor.planRegistry());

    // Flip one bit at a sweep of offsets across header and payload.
    for (std::size_t offset = 0; offset < bytes.size();
         offset += 131) {
        std::string corrupt = bytes;
        corrupt[offset] = static_cast<char>(
            static_cast<unsigned char>(corrupt[offset]) ^ 0x20);
        PlanRegistry target;
        Result<SnapshotLoadInfo> info =
            loadRegistrySnapshot(target, corrupt);
        EXPECT_FALSE(info.ok()) << "offset " << offset;
        EXPECT_EQ(target.plansLoaded(), 0u);
    }

    // Trailing garbage breaks the declared length.
    PlanRegistry target;
    EXPECT_FALSE(loadRegistrySnapshot(target, bytes + "x").ok());
}

TEST(RegistrySnapshot, WrongVersionAndMagicAreRejected)
{
    PlanService donor;
    populate(donor);
    const std::string bytes =
        saveRegistrySnapshot(*donor.planRegistry());

    PlanRegistry target;
    EXPECT_FALSE(loadRegistrySnapshot(target, "").ok());
    EXPECT_FALSE(loadRegistrySnapshot(target, "FTSNAP").ok());
    EXPECT_FALSE(
        loadRegistrySnapshot(target, "not a snapshot at all").ok());

    std::string wrongMagic = bytes;
    wrongMagic[0] = 'X';
    Result<SnapshotLoadInfo> magic =
        loadRegistrySnapshot(target, wrongMagic);
    ASSERT_FALSE(magic.ok());
    EXPECT_NE(magic.error().message.find("magic"),
              std::string::npos);

    std::string wrongVersion = bytes;
    wrongVersion[6] = 99;  // u32 version starts after the magic.
    Result<SnapshotLoadInfo> version =
        loadRegistrySnapshot(target, wrongVersion);
    ASSERT_FALSE(version.ok());
    EXPECT_NE(version.error().message.find("version"),
              std::string::npos);
    EXPECT_EQ(target.plansLoaded(), 0u);
}

// ---- Hand-built snapshots: hostile field values behind a valid
// checksum (corruption tests can't reach these — the checksum fires
// first). The helpers mirror the writer's little-endian format.

void
putU8(std::string& out, std::uint8_t v)
{
    out += static_cast<char>(v);
}

void
putU32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
putU64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
putF64(std::string& out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

void
putStr(std::string& out, const std::string& s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

std::uint64_t
fnv1aRef(const std::string& bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Wraps @p payload in a valid FTSNAP v1 header. */
std::string
framed(const std::string& payload)
{
    std::string out = "FTSNAP";
    putU32(out, 1);
    putU64(out, payload.size());
    putU64(out, fnv1aRef(payload));
    return out + payload;
}

/** One plan, one kernel; @p mutate edits fields before framing. */
std::string
syntheticSnapshot(
    const std::function<void(std::string&)>& mutateKernelBytes =
        nullptr)
{
    std::string payload;
    putU32(payload, 1);  // plan count
    putStr(payload, "model|sparse=0|ckpt=0");
    putF64(payload, 2.0);  // activeExperts
    putF64(payload, 8.0);  // nExperts
    putU32(payload, 1);    // kernel count
    std::string kernel;
    putStr(kernel, "gemm_qkv");
    putU8(kernel, 0);  // kind
    putU8(kernel, 0);  // layer
    putU8(kernel, 0);  // stage
    putF64(kernel, 3.0);  // count
    putF64(kernel, 0.5);  // efficiency
    putU8(kernel, 0);  // eval
    putU8(kernel, 0);  // rows
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        putF64(kernel, v);
    if (mutateKernelBytes)
        mutateKernelBytes(kernel);
    return framed(payload + kernel);
}

TEST(RegistrySnapshot, SyntheticMinimalSnapshotLoads)
{
    PlanRegistry target;
    Result<SnapshotLoadInfo> info =
        loadRegistrySnapshot(target, syntheticSnapshot());
    ASSERT_TRUE(info.ok()) << info.error().message;
    EXPECT_EQ(info.value().plansLoaded, 1u);
    const PlanMap plans = plansOf(target);
    ASSERT_EQ(plans.size(), 1u);
    const StepPlan& plan = *plans.begin()->second;
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(target.names().name(plan.nameIds[0]), "gemm_qkv");
    EXPECT_EQ(plan.counts[0], 3.0);
    EXPECT_EQ(plan.formulas[0].e, 5.0);
}

TEST(RegistrySnapshot, OutOfRangeEnumBytesAreRejected)
{
    // Offsets within the kernel record: kind is right after the
    // length-prefixed name (4 + 8 bytes), then layer, stage.
    const std::size_t name_bytes = 4 + std::strlen("gemm_qkv");
    for (std::size_t enumOffset :
         {name_bytes, name_bytes + 1, name_bytes + 2}) {
        PlanRegistry target;
        Result<SnapshotLoadInfo> info = loadRegistrySnapshot(
            target, syntheticSnapshot([&](std::string& kernel) {
                kernel[enumOffset] = static_cast<char>(0xFF);
            }));
        ASSERT_FALSE(info.ok()) << "enum at offset " << enumOffset;
        EXPECT_NE(info.error().message.find("out-of-range"),
                  std::string::npos);
        EXPECT_EQ(target.plansLoaded(), 0u);
    }
}

TEST(RegistrySnapshot, HostileKernelCountIsRejectedBeforeAllocating)
{
    // planCount/kernelCount fields that promise far more data than
    // the payload holds must fail fast, not allocate gigabytes.
    std::string payload;
    putU32(payload, 1);
    putStr(payload, "k");
    putF64(payload, 1.0);
    putF64(payload, 1.0);
    putU32(payload, 0xFFFFFFFFu);  // 4 billion kernels, 0 bytes left.
    PlanRegistry target;
    Result<SnapshotLoadInfo> info =
        loadRegistrySnapshot(target, framed(payload));
    ASSERT_FALSE(info.ok());
    EXPECT_NE(info.error().message.find("kernel count"),
              std::string::npos);
}

TEST(RegistrySnapshot, EmptyPlanKeyIsRejected)
{
    std::string payload;
    putU32(payload, 1);
    putStr(payload, "");
    PlanRegistry target;
    EXPECT_FALSE(loadRegistrySnapshot(target, framed(payload)).ok());
}

TEST(RegistrySnapshot, EmptyRegistrySnapshotsAndLoads)
{
    PlanRegistry empty;
    const std::string bytes = saveRegistrySnapshot(empty);
    PlanRegistry target;
    Result<SnapshotLoadInfo> info =
        loadRegistrySnapshot(target, bytes);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().plansLoaded, 0u);
}

// ---- Base64 (the snapshot's wire armor) ------------------------------

TEST(Base64, RoundTripsBinary)
{
    std::string bytes;
    for (int i = 0; i < 257; ++i)
        bytes += static_cast<char>(i * 31 % 256);
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{2}, std::size_t{3},
                          bytes.size()}) {
        const std::string encoded =
            base64Encode(std::string_view(bytes).substr(0, n));
        Result<std::string> decoded = base64Decode(encoded);
        ASSERT_TRUE(decoded.ok()) << n;
        EXPECT_EQ(decoded.value(), bytes.substr(0, n));
    }
    EXPECT_EQ(base64Encode("foob"), "Zm9vYg==");
    EXPECT_EQ(base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64, RejectsMalformedInput)
{
    EXPECT_FALSE(base64Decode("Zm9vY").ok());    // Bad length.
    EXPECT_FALSE(base64Decode("Zm9v!mFy").ok());  // Bad character.
    EXPECT_FALSE(base64Decode("Zm==9v").ok());    // Padding inside.
    EXPECT_FALSE(base64Decode("====").ok());
    EXPECT_TRUE(base64Decode("").ok());
}

}  // namespace
}  // namespace ftsim
