/**
 * @file
 * Wire-protocol tests: a write->parse round-trip for every request
 * kind, and strict rejection of malformed input (the service must
 * answer garbage with InvalidArgument, never guess or crash).
 */

#include <gtest/gtest.h>

#include "serve/protocol.hpp"

namespace ftsim {
namespace {

PlanRequest
requestOfKind(QueryKind kind)
{
    PlanRequest req;
    req.id = "tenant-7";
    req.query = kind;
    switch (kind) {
    case QueryKind::MaxBatch:
    case QueryKind::Throughput:
    case QueryKind::Report:
        req.gpu = "A40";
        break;
    case QueryKind::CostTable:
    case QueryKind::CheapestPlan:
        req.gpus = {"A40", "H100"};
        break;
    }
    req.scenario = Scenario::commonsense15k().withEpochs(3.0);
    req.rates = {{"user", "L40S", 1.05}};
    return req;
}

TEST(Protocol, RoundTripsEveryRequestKind)
{
    for (QueryKind kind :
         {QueryKind::MaxBatch, QueryKind::Throughput,
          QueryKind::CostTable, QueryKind::CheapestPlan,
          QueryKind::Report}) {
        const PlanRequest original = requestOfKind(kind);
        const std::string line = writePlanRequest(original);
        Result<PlanRequest> parsed = parsePlanRequest(line);
        ASSERT_TRUE(parsed.ok()) << line << " -> "
                                 << parsed.error().describe();
        EXPECT_EQ(parsed.value().id, original.id);
        EXPECT_EQ(parsed.value().query, original.query);
        EXPECT_EQ(parsed.value().gpu, original.gpu);
        EXPECT_EQ(parsed.value().gpus, original.gpus);
        // Identity is what the service coalesces on: it must survive
        // the wire exactly, scenario scalars and rates included.
        EXPECT_EQ(parsed.value().canonicalKey(),
                  original.canonicalKey());
    }
}

TEST(Protocol, RoundTripsBothModels)
{
    PlanRequest req = requestOfKind(QueryKind::Throughput);
    req.scenario.withModel(ModelSpec::blackMamba2p8b());
    Result<PlanRequest> parsed =
        parsePlanRequest(writePlanRequest(req));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().scenario.model.name, "BlackMamba-2.8B");
    EXPECT_EQ(parsed.value().canonicalKey(), req.canonicalKey());
}

TEST(Protocol, ParsesPresetsAndOverrides)
{
    Result<PlanRequest> parsed = parsePlanRequest(
        R"({"query":"throughput","gpu":"H100",)"
        R"("scenario":{"preset":"commonsense15k","epochs":3}})");
    ASSERT_TRUE(parsed.ok());
    const Scenario& s = parsed.value().scenario;
    EXPECT_EQ(s.medianSeqLen, 79u);       // From the preset.
    EXPECT_DOUBLE_EQ(s.epochs, 3.0);      // Overridden.
    EXPECT_DOUBLE_EQ(s.numQueries, 15000.0);
}

TEST(Protocol, DefaultsToGsMathScenario)
{
    Result<PlanRequest> parsed =
        parsePlanRequest(R"({"query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().scenario.canonicalKey(),
              Scenario::gsMath().canonicalKey());
    EXPECT_TRUE(parsed.value().id.empty());
}

TEST(Protocol, DecodesStringEscapes)
{
    Result<PlanRequest> parsed = parsePlanRequest(
        R"({"id":"a\"b\\cA\n","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().id, "a\"b\\cA\n");
}

TEST(Protocol, DecodesAstralPlaneEscapes)
{
    // "\uD83D\uDE00" is U+1F600 (grinning face): the surrogate pair
    // must combine into one 4-byte UTF-8 sequence, not two 3-byte
    // sequences that each encode a surrogate code point (invalid
    // UTF-8 which would then round-trip through escapeJson as
    // garbage).
    Result<PlanRequest> parsed = parsePlanRequest(
        R"({"id":"\uD83D\uDE00","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(parsed.value().id, "\xF0\x9F\x98\x80");

    // The astral-plane bytes must survive write + reparse with the
    // coalescing identity intact (the reparse-identity contract the
    // fuzz suite pins for every accepted line).
    const std::string rewritten = writePlanRequest(parsed.value());
    Result<PlanRequest> reparsed = parsePlanRequest(rewritten);
    ASSERT_TRUE(reparsed.ok())
        << rewritten << ": " << reparsed.error().describe();
    EXPECT_EQ(reparsed.value().id, "\xF0\x9F\x98\x80");
    EXPECT_EQ(reparsed.value().canonicalKey(),
              parsed.value().canonicalKey());

    // The extremes of the astral range: U+10000 and U+10FFFF, plus
    // lowercase hex digits.
    Result<PlanRequest> lo = parsePlanRequest(
        R"({"id":"\uD800\uDC00","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(lo.ok());
    EXPECT_EQ(lo.value().id, "\xF0\x90\x80\x80");
    Result<PlanRequest> hi = parsePlanRequest(
        R"({"id":"\udbff\udfff","query":"max_batch","gpu":"A40"})");
    ASSERT_TRUE(hi.ok());
    EXPECT_EQ(hi.value().id, "\xF4\x8F\xBF\xBF");
}

TEST(Protocol, RoundTripsFullDoublePrecision)
{
    // 0.1 + 0.2 needs all 17 significant digits: a re-serialized
    // request must keep its coalescing identity to the last bit.
    PlanRequest req = requestOfKind(QueryKind::Throughput);
    req.scenario.withLengthSigma(0.1 + 0.2);
    req.scenario.withNumQueries(1234567.0);
    Result<PlanRequest> parsed =
        parsePlanRequest(writePlanRequest(req));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().scenario.lengthSigma,
              req.scenario.lengthSigma);
    EXPECT_EQ(parsed.value().canonicalKey(), req.canonicalKey());
}

TEST(Protocol, KeySeparatorsCannotBeInjected)
{
    // Wire names are arbitrary strings; joined lists must frame each
    // element so one crafted name cannot impersonate two.
    PlanRequest one;
    one.query = QueryKind::CostTable;
    one.gpus = {"A40,H100"};
    PlanRequest two;
    two.query = QueryKind::CostTable;
    two.gpus = {"A40", "H100"};
    EXPECT_NE(one.canonicalKey(), two.canonicalKey());

    PlanRequest crafted;
    crafted.query = QueryKind::MaxBatch;
    crafted.gpu = "A40";
    crafted.rates = {{"user", "X@2;Y", 3.0}};
    PlanRequest honest = crafted;
    honest.rates = {{"user", "X", 2.0}, {"user", "Y", 3.0}};
    EXPECT_NE(crafted.plannerKey(), honest.plannerKey());
}

TEST(Protocol, ProtocolErrorLineOmitsQuery)
{
    const std::string line =
        writeProtocolError("t9", "bad request: unterminated string");
    EXPECT_EQ(line.find("\"query\""), std::string::npos);
    EXPECT_NE(line.find("\"id\":\"t9\""), std::string::npos);
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("\"error\":\"InvalidArgument\""),
              std::string::npos);
    // And with no id, the field disappears entirely.
    EXPECT_EQ(writeProtocolError("", "x").find("\"id\""),
              std::string::npos);
}

TEST(Protocol, RoundTripsTenant)
{
    PlanRequest req = requestOfKind(QueryKind::Throughput);
    req.tenant = "acme-corp";
    Result<PlanRequest> parsed =
        parsePlanRequest(writePlanRequest(req));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().tenant, "acme-corp");
    EXPECT_EQ(parsed.value().canonicalKey(), req.canonicalKey());
}

TEST(Protocol, TenantIsNotPartOfTheCoalescingKey)
{
    // Like the id, the tenant is billing identity around the
    // question: two tenants asking the same thing must coalesce.
    PlanRequest a = requestOfKind(QueryKind::Throughput);
    a.tenant = "acme";
    PlanRequest b = a;
    b.tenant = "globex";
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
    EXPECT_EQ(a.plannerKey(), b.plannerKey());
}

TEST(Protocol, DeepNestingIsAParseErrorNotAStackOverflow)
{
    // Nesting budget: a hostile bracket bomb must answer
    // InvalidArgument instead of recursing the parser off the stack.
    std::string bomb(100000, '[');
    Result<PlanRequest> parsed = parsePlanRequest(bomb);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument);

    std::string object_bomb;
    for (int i = 0; i < 5000; ++i)
        object_bomb += "{\"scenario\":";
    parsed = parsePlanRequest(object_bomb);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument);
}

TEST(Protocol, RateLimitedSerializesOnTheWire)
{
    PlanRequest req = requestOfKind(QueryKind::Throughput);
    req.tenant = "acme";
    PlanResponse resp = errorResponse(
        req, Error{ErrorCode::RateLimited,
                   "tenant \"acme\" exceeded 2 requests/s"});
    const std::string line = writePlanResponse(resp);
    EXPECT_NE(line.find(R"("ok":false)"), std::string::npos);
    EXPECT_NE(line.find(R"("error":"RateLimited")"),
              std::string::npos);
}

TEST(Protocol, CoalescingKeyIgnoresIdOnly)
{
    PlanRequest a = requestOfKind(QueryKind::Throughput);
    PlanRequest b = a;
    b.id = "someone-else";
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
    b.gpu = "H100";
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
    PlanRequest c = requestOfKind(QueryKind::Throughput);
    c.scenario.withEpochs(4.0);
    EXPECT_NE(a.canonicalKey(), c.canonicalKey());
    PlanRequest d = requestOfKind(QueryKind::Throughput);
    d.rates[0].dollarsPerHour = 2.0;
    EXPECT_NE(a.canonicalKey(), d.canonicalKey());
}

TEST(Protocol, MalformedInputIsInvalidArgument)
{
    const char* cases[] = {
        // Not JSON at all / wrong top-level shape.
        "hello",
        "",
        "[1,2]",
        "42",
        R"({"query":"max_batch","gpu":"A40"} trailing)",
        // Broken JSON.
        R"({"query":"max_batch","gpu":"A40")",
        R"({"query":"max_batch",})",
        R"({"query":"max_batch","gpu":"A40)",
        R"({"query":"max_batch","gpu":"A\x40"})",
        R"({"id":"a	b","query":"max_batch","gpu":"A40"})",  // Raw tab.
        R"({"query":"max_batch","query":"report","gpu":"A40"})",
        // Missing / unknown / mistyped fields.
        R"({"gpu":"A40"})",
        R"({"query":"resize_cluster","gpu":"A40"})",
        R"({"query":"max_batch"})",
        R"({"query":"max_batch","gpu":42})",
        R"({"query":"max_batch","gpu":""})",
        R"({"query":"max_batch","gpu":"A40","shard":3})",
        R"({"query":"max_batch","gpus":["A40"]})",
        R"({"query":"cost_table","gpu":"A40"})",
        R"({"query":"cost_table","gpus":["A40",7]})",
        R"({"query":"max_batch","gpu":"A40","id":7})",
        R"({"query":"max_batch","gpu":"A40","tenant":7})",
        R"({"query":"max_batch","gpu":"A40","tenant":""})",
        // Scenario strictness.
        R"({"query":"max_batch","gpu":"A40","scenario":{"preset":"imagenet"}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"model":"gpt5"}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"batch":8}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"median_seq_len":0}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"median_seq_len":1.5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"length_sigma":-1}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":0}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"num_queries":-5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"sparse":"yes"}})",
        // Rates strictness.
        R"({"query":"max_batch","gpu":"A40","rates":{"L40S":0}})",
        R"({"query":"max_batch","gpu":"A40","rates":{"L40S":-1.0}})",
        R"({"query":"max_batch","gpu":"A40","rates":{"L40S":"cheap"}})",
        R"({"query":"max_batch","gpu":"A40","rates":[1.0]})",
        // Unicode strictness: lone / unpaired surrogates would decode
        // to invalid UTF-8, so they are typed errors instead.
        R"({"query":"max_batch","gpu":"A40","id":"\uD800"})",
        R"({"query":"max_batch","gpu":"A40","id":"\uDC00"})",
        R"({"query":"max_batch","gpu":"A40","id":"\uDE00\uD83D"})",
        R"({"query":"max_batch","gpu":"A40","id":"\uD83D x"})",
        R"({"query":"max_batch","gpu":"A40","id":"\uD83DA"})",
        R"({"query":"max_batch","gpu":"A40","id":"\uD83D\uD83D"})",
        // Number strictness: strtod-isms strict JSON rejects.
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":+5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":.5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":5.}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":01}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":1.}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":1e}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":1e+}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":0x5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":--5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":1e99999}})",
    };
    for (const char* line : cases) {
        Result<PlanRequest> parsed = parsePlanRequest(line);
        ASSERT_FALSE(parsed.ok()) << "accepted: " << line;
        EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument) << line;
    }
}

TEST(Protocol, MedianSeqLenIsAnIntegerUpTo2To53)
{
    // 2^53 is the largest integer a JSON number holds exactly; anything
    // larger (or not an integer) is rejected before it is cast.
    const std::string prefix =
        R"({"query":"max_batch","gpu":"A40","scenario":{"median_seq_len":)";
    Result<PlanRequest> edge =
        parsePlanRequest(prefix + "9007199254740992}}");
    ASSERT_TRUE(edge.ok()) << edge.error().describe();
    EXPECT_EQ(edge.value().scenario.medianSeqLen, std::size_t{1} << 53);
    for (const char* seq :
         {"9007199254740994", "1e300", "-1e300", "1e19", "0.5"}) {
        Result<PlanRequest> parsed = parsePlanRequest(prefix + seq + "}}");
        ASSERT_FALSE(parsed.ok()) << "accepted median_seq_len " << seq;
        EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument) << seq;
    }
}

TEST(Protocol, ResponsesSerializeBothOutcomes)
{
    PlanResponse ok;
    ok.id = "r1";
    ok.query = QueryKind::MaxBatch;
    ok.ok = true;
    ok.value = 4.0;
    EXPECT_EQ(writePlanResponse(ok),
              R"({"id":"r1","query":"max_batch","ok":true,"value":4})");

    PlanResponse err = errorResponse(
        requestOfKind(QueryKind::Report),
        Error{ErrorCode::UnknownGpu, "no offering for \"B300\""});
    const std::string line = writePlanResponse(err);
    EXPECT_NE(line.find(R"("ok":false)"), std::string::npos);
    EXPECT_NE(line.find(R"("error":"UnknownGpu")"), std::string::npos);
    // The message's quotes must arrive escaped.
    EXPECT_NE(line.find(R"(no offering for \"B300\")"),
              std::string::npos);
}

TEST(Protocol, ReportResponseEscapesNewlines)
{
    PlanResponse resp;
    resp.query = QueryKind::Report;
    resp.ok = true;
    resp.report = "# line1\nline2";
    const std::string line = writePlanResponse(resp);
    // One physical line on the wire, newline escaped inside.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find(R"(# line1\nline2)"), std::string::npos);
}

TEST(Protocol, LoadSnapshotRoundTripsRawBytes)
{
    // The payload is *raw* bytes in the struct and base64 on the wire
    // — registry snapshots are binary ("FTSNAP"), and JSON strings
    // cannot carry them unencoded.
    PlanRequest req;
    req.id = "warm-1";
    req.query = QueryKind::LoadSnapshot;
    req.snapshot = std::string("FTSNAP\x00\x01\xff binary\n bytes", 23);
    const std::string line = writePlanRequest(req);
    EXPECT_NE(line.find(R"("query":"load_snapshot")"),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find("FTSNAP"), std::string::npos)
        << "raw bytes leaked onto the wire: " << line;
    Result<PlanRequest> parsed = parsePlanRequest(line);
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(parsed.value().id, req.id);
    EXPECT_EQ(parsed.value().query, QueryKind::LoadSnapshot);
    EXPECT_EQ(parsed.value().snapshot, req.snapshot);
}

TEST(Protocol, LoadSnapshotRejectsGarbageBase64)
{
    Result<PlanRequest> parsed = parsePlanRequest(
        R"({"query":"load_snapshot","snapshot":"!!not-base64!!"})");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
}

TEST(Protocol, LoadSnapshotRequiresThePayload)
{
    Result<PlanRequest> parsed =
        parsePlanRequest(R"({"query":"load_snapshot"})");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
}

TEST(Protocol, SnapshotFieldIsRejectedOnOtherKinds)
{
    Result<PlanRequest> parsed = parsePlanRequest(
        R"({"query":"max_batch","gpu":"A40","snapshot":"QQ=="})");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::InvalidArgument);
}

TEST(Protocol, StatsRequestRoundTrips)
{
    Result<PlanRequest> parsed =
        parsePlanRequest(R"({"id":"s1","query":"stats"})");
    ASSERT_TRUE(parsed.ok()) << parsed.error().describe();
    EXPECT_EQ(parsed.value().query, QueryKind::Stats);
    EXPECT_EQ(parsed.value().id, "s1");
    EXPECT_TRUE(isLiveKind(QueryKind::Stats));

    const std::string rewritten = writePlanRequest(parsed.value());
    Result<PlanRequest> reparsed = parsePlanRequest(rewritten);
    ASSERT_TRUE(reparsed.ok())
        << rewritten << ": " << reparsed.error().describe();
    EXPECT_EQ(reparsed.value().query, QueryKind::Stats);
    EXPECT_EQ(reparsed.value().canonicalKey(),
              parsed.value().canonicalKey());
}

TEST(Protocol, StatsRejectsWorkloadKeys)
{
    // A scrape is about the service, not a workload: every
    // workload-shaped key on it is a confused caller.
    const char* cases[] = {
        R"({"query":"stats","tenant":"acme"})",
        R"({"query":"stats","gpu":"A40"})",
        R"({"query":"stats","gpus":["A40"]})",
        R"({"query":"stats","scenario":{"epochs":1}})",
        R"({"query":"stats","rates":{"A40":1.0}})",
        R"({"query":"stats","snapshot":"QQ=="})",
    };
    for (const char* line : cases) {
        Result<PlanRequest> parsed = parsePlanRequest(line);
        ASSERT_FALSE(parsed.ok()) << "accepted: " << line;
        EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument) << line;
    }
}

TEST(Protocol, StatsResponseEmbedsTheSnapshotVerbatim)
{
    PlanResponse resp;
    resp.id = "s1";
    resp.query = QueryKind::Stats;
    resp.ok = true;
    resp.value = 3.0;
    resp.statsJson = R"({"serve.requests":7,"net.requests":7})";
    const std::string line = writePlanResponse(resp);
    EXPECT_NE(line.find(R"("query":"stats")"), std::string::npos)
        << line;
    // The pre-serialized object lands byte-verbatim, not re-escaped.
    EXPECT_NE(
        line.find(R"("stats":{"serve.requests":7,"net.requests":7})"),
        std::string::npos)
        << line;

    PlanResponse empty;
    empty.query = QueryKind::Stats;
    empty.ok = true;
    EXPECT_NE(writePlanResponse(empty).find(R"("stats":{})"),
              std::string::npos);
}

}  // namespace
}  // namespace ftsim
