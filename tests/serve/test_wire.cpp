/**
 * @file
 * Binary wire codec tests: encode->decode round-trips for every
 * message shape, byte-identity of the decoded-then-JSON-written
 * response against the JSON path, and strict typed rejection of
 * hostile payloads (the valid-or-InvalidArgument contract the fuzzer
 * hammers at scale).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {
namespace {

PlanRequest
requestOfKind(QueryKind kind)
{
    PlanRequest req;
    req.id = "wire-9";
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
    default: break;
    }
    if (!isLiveKind(kind)) {
        req.scenario = Scenario::commonsense15k().withEpochs(3.0);
        req.rates = {{"user", "L40S", 1.05}};
    }
    if (kind == QueryKind::LoadSnapshot)
        req.snapshot = std::string("raw\0bytes\xff\n", 11);
    return req;
}

/** Strips the header, asserting it validates. */
std::string
payloadOf(const std::string& frame)
{
    EXPECT_GE(frame.size(), kWireHeaderBytes);
    Result<std::uint32_t> len = parseWireHeader(
        reinterpret_cast<const unsigned char*>(frame.data()));
    EXPECT_TRUE(len.ok()) << len.error().describe();
    EXPECT_EQ(frame.size(), kWireHeaderBytes + len.value());
    return frame.substr(kWireHeaderBytes);
}

Result<WireMessage>
decodeFrame(const std::string& frame)
{
    return decodeWirePayload(payloadOf(frame));
}

TEST(Wire, RoundTripsEveryRequestKind)
{
    for (QueryKind kind :
         {QueryKind::MaxBatch, QueryKind::Throughput,
          QueryKind::CostTable, QueryKind::CheapestPlan,
          QueryKind::Report, QueryKind::Snapshot, QueryKind::Fleet,
          QueryKind::LoadSnapshot, QueryKind::Stats}) {
        const PlanRequest original = requestOfKind(kind);
        const std::string frame = encodeRequestFrame(original);
        Result<WireMessage> decoded = decodeFrame(frame);
        ASSERT_TRUE(decoded.ok())
            << queryKindName(kind) << ": "
            << decoded.error().describe();
        ASSERT_EQ(decoded.value().type, WireMsg::Request);
        const PlanRequest& got = decoded.value().request;
        EXPECT_EQ(got.id, original.id);
        EXPECT_EQ(got.query, original.query);
        EXPECT_EQ(got.gpu, original.gpu);
        EXPECT_EQ(got.gpus, original.gpus);
        EXPECT_EQ(got.snapshot, original.snapshot);
        // Coalescing identity must survive the wire exactly, and the
        // decoded request must re-serialize to the JSON path's bytes.
        EXPECT_EQ(got.canonicalKey(), original.canonicalKey());
        EXPECT_EQ(writePlanRequest(got), writePlanRequest(original));
        // Deterministic encode.
        EXPECT_EQ(encodeRequestFrame(got), frame);
    }
}

TEST(Wire, RoundTripsTenantAndModels)
{
    PlanRequest req = requestOfKind(QueryKind::Throughput);
    req.tenant = "team-a";
    req.scenario.withModel(ModelSpec::blackMamba2p8b());
    Result<WireMessage> decoded = decodeFrame(encodeRequestFrame(req));
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    EXPECT_EQ(decoded.value().request.tenant, "team-a");
    EXPECT_EQ(decoded.value().request.canonicalKey(),
              req.canonicalKey());
}

TEST(Wire, RoundTripsFullDoublePrecision)
{
    PlanRequest req = requestOfKind(QueryKind::MaxBatch);
    req.scenario.withLengthSigma(0.1 + 0.2);  // 0.30000000000000004
    req.scenario.withNumQueries(1.0 / 3.0);
    Result<WireMessage> decoded = decodeFrame(encodeRequestFrame(req));
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    EXPECT_EQ(decoded.value().request.scenario.lengthSigma,
              req.scenario.lengthSigma);
    EXPECT_EQ(decoded.value().request.scenario.numQueries,
              req.scenario.numQueries);
}

/** The tentpole identity: decode + writePlanResponse must reproduce
 *  the JSON path's bytes for every response shape. */
TEST(Wire, ResponseDecodePlusJsonWriteIsByteIdentical)
{
    std::vector<PlanResponse> responses;
    {
        PlanResponse r;
        r.id = "a";
        r.query = QueryKind::MaxBatch;
        r.ok = true;
        r.value = 12.0;
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "b";
        r.query = QueryKind::Throughput;
        r.ok = true;
        r.value = 171.03534942734618;
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "c";
        r.query = QueryKind::CostTable;
        r.ok = true;
        r.rows = {{"A40", 44.98, 12, 101.5, 1.28, 543.21},
                  {"H100", 79.0, 31, 402.125, 4.76, 98.0625}};
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "d";
        r.query = QueryKind::CheapestPlan;
        r.ok = true;
        r.rows = {{"A40", 44.98, 12, 101.5, 1.28, 543.21}};
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "e";
        r.query = QueryKind::Report;
        r.ok = true;
        r.report = "line one\nline \"two\"\n\ttabbed";
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.query = QueryKind::Snapshot;
        r.ok = true;
        r.snapshot = std::string("bin\0\x01\xfe", 6);
        r.value = 6.0;
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "f";
        r.query = QueryKind::Fleet;
        r.ok = true;
        r.value = 3.0;
        r.report = "shard-a: ok\nshard-b: ok";
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.query = QueryKind::LoadSnapshot;
        r.ok = true;
        r.value = 2.0;
        r.report = "restored 2 entries";
        responses.push_back(r);
    }
    {
        PlanResponse r;
        r.id = "g";
        r.query = QueryKind::Stats;
        r.ok = true;
        r.value = 4.0;
        r.statsJson = "{\"net.requests\":17}";
        responses.push_back(r);
    }
    {
        PlanRequest failing;
        failing.id = "h";
        failing.query = QueryKind::Throughput;
        PlanResponse r = errorResponse(
            failing,
            Error{ErrorCode::UnknownGpu, "no such GPU \"B300\""});
        responses.push_back(r);
    }

    for (const PlanResponse& original : responses) {
        const std::string frame = encodeResponseFrame(original);
        Result<WireMessage> decoded = decodeFrame(frame);
        ASSERT_TRUE(decoded.ok())
            << queryKindName(original.query) << ": "
            << decoded.error().describe();
        ASSERT_EQ(decoded.value().type, WireMsg::Response);
        EXPECT_EQ(writePlanResponse(decoded.value().response),
                  writePlanResponse(original))
            << queryKindName(original.query);
        EXPECT_EQ(encodeResponseFrame(decoded.value().response),
                  frame);
    }
}

TEST(Wire, SnapshotResponseValueIsDerivedFromPayloadSize)
{
    PlanResponse r;
    r.query = QueryKind::Snapshot;
    r.ok = true;
    r.snapshot = "0123456789";
    r.value = 10.0;
    Result<WireMessage> decoded =
        decodeFrame(encodeResponseFrame(r));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().response.value, 10.0);
    EXPECT_EQ(decoded.value().response.snapshot, "0123456789");
}

TEST(Wire, ProtocolErrorFrameRoundTrips)
{
    const std::string frame =
        encodeProtocolErrorFrame("req-3", "bad frame: unknown tag 42");
    Result<WireMessage> decoded = decodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    ASSERT_EQ(decoded.value().type, WireMsg::ProtocolError);
    EXPECT_EQ(decoded.value().errorId, "req-3");
    EXPECT_EQ(decoded.value().errorMessage,
              "bad frame: unknown tag 42");

    // Anonymous variant omits the id tag.
    Result<WireMessage> anon =
        decodeFrame(encodeProtocolErrorFrame("", "nope"));
    ASSERT_TRUE(anon.ok());
    EXPECT_EQ(anon.value().errorId, "");
    EXPECT_EQ(anon.value().errorMessage, "nope");
}

TEST(Wire, HeaderValidation)
{
    const std::string frame =
        encodeRequestFrame(requestOfKind(QueryKind::Snapshot));
    auto header = [&](int patchAt, unsigned char value) {
        std::string h = frame.substr(0, kWireHeaderBytes);
        if (patchAt >= 0)
            h[static_cast<std::size_t>(patchAt)] =
                static_cast<char>(value);
        return parseWireHeader(
            reinterpret_cast<const unsigned char*>(h.data()));
    };
    EXPECT_TRUE(header(-1, 0).ok());
    EXPECT_FALSE(header(0, 0x7B).ok());  // '{' — a JSON byte.
    EXPECT_FALSE(header(1, 'X').ok());
    EXPECT_FALSE(header(2, 'X').ok());
    EXPECT_FALSE(header(3, 0x02).ok());  // Future version.
    // Zero payload length.
    std::string h = frame.substr(0, kWireHeaderBytes);
    h[4] = h[5] = h[6] = h[7] = 0;
    EXPECT_FALSE(parseWireHeader(
                     reinterpret_cast<const unsigned char*>(h.data()))
                     .ok());
}

TEST(Wire, HostilePayloadsAreTypedErrors)
{
    // Every one of these must come back InvalidArgument — no crash,
    // no acceptance.
    const std::string good =
        payloadOf(encodeRequestFrame(requestOfKind(QueryKind::MaxBatch)));
    std::vector<std::string> hostile;
    hostile.push_back("");                      // No message type.
    hostile.push_back("\x04");                  // Unknown type.
    hostile.push_back("\x01");                  // Request, no query.
    hostile.push_back("\x01\x01\x09");          // Unknown kind byte.
    hostile.push_back("\x01\x02");              // Tag, no payload.
    hostile.push_back(std::string("\x01\x01\x00\x01", 4));  // Dup tag.
    hostile.push_back(std::string("\x01\x02\x00\x01\x00", 5));
    hostile.push_back(good.substr(0, good.size() - 1));  // Truncated.
    hostile.push_back(good + "x");              // Trailing byte.
    {
        // Tag order violation: id(2) before query(1).
        std::string p("\x01\x02", 2);
        p += std::string("\x01\x00\x00\x00", 4);
        p += "a";
        p += "\x01\x00";
        hostile.push_back(p);
    }
    {
        // String length prefix far past the payload end.
        std::string p("\x01\x01\x00\x02", 4);
        p += std::string("\xff\xff\xff\x7f", 4);
        hostile.push_back(p);
    }
    {
        // max_batch query with no gpu.
        std::string p("\x01\x01\x00", 3);
        hostile.push_back(p);
    }
    {
        // Live kind (snapshot) with a tenant.
        std::string p("\x01\x01\x05\x03\x01\x00\x00\x00", 8);
        p += "t";
        hostile.push_back(p);
    }
    {
        // load_snapshot without its payload.
        std::string p("\x01\x01\x07", 3);
        hostile.push_back(p);
    }
    {
        // Empty tenant string.
        std::string p("\x01\x01\x06\x03\x00\x00\x00\x00", 8);
        hostile.push_back(p);
    }
    {
        // A GPU named twice in rates: its JSON form repeats a key.
        PlanRequest req = requestOfKind(QueryKind::CostTable);
        req.rates = {{"user", "L40S", 1.0}, {"user", "L40S", 2.0}};
        hostile.push_back(payloadOf(encodeRequestFrame(req)));
    }
    {
        // Non-finite double: NaN length_sigma inside a scenario.
        std::string p = good;
        // Scenario block sits after: type(1) query-tag(1) kind(1)
        // id-tag(1) id-len(4) id(6) gpu-tag(1) gpu-len(4) gpu(3)
        // scenario-tag(1) model(1) seqlen(8) -> sigma at offset 32.
        ASSERT_GE(p.size(), 40u);
        for (std::size_t i = 32; i < 40; ++i)
            p[i] = '\xff';
        hostile.push_back(p);
    }

    for (const std::string& payload : hostile) {
        Result<WireMessage> decoded = decodeWirePayload(payload);
        ASSERT_FALSE(decoded.ok())
            << "accepted hostile payload of " << payload.size()
            << " bytes";
        EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
    }
}

TEST(Wire, MedianSeqLenIsAnIntegerUpTo2To53)
{
    // JSON carries numbers as doubles, so 2^53 is the largest length
    // both codecs hold exactly; past it the JSON form changes the key.
    PlanRequest req = requestOfKind(QueryKind::MaxBatch);
    req.scenario.withMedianSeqLen(std::size_t{1} << 53);
    Result<WireMessage> edge = decodeFrame(encodeRequestFrame(req));
    ASSERT_TRUE(edge.ok()) << edge.error().describe();
    EXPECT_EQ(edge.value().request.canonicalKey(), req.canonicalKey());
    for (std::size_t seq :
         {std::size_t{0}, (std::size_t{1} << 53) + 1, ~std::size_t{0}}) {
        req.scenario.withMedianSeqLen(seq);
        Result<WireMessage> decoded = decodeFrame(encodeRequestFrame(req));
        ASSERT_FALSE(decoded.ok()) << "accepted median_seq_len " << seq;
        EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);
    }
}

TEST(Wire, ResponseRequiresQueryAndOk)
{
    // Response with only an id.
    std::string p("\x02\x02\x01\x00\x00\x00", 6);
    p += "x";
    Result<WireMessage> decoded = decodeWirePayload(p);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::InvalidArgument);

    // Protocol error without a message.
    Result<WireMessage> bare = decodeWirePayload(std::string("\x03", 1));
    ASSERT_FALSE(bare.ok());
}

TEST(Wire, SnapshotRidesRawWithoutBase64)
{
    PlanRequest req;
    req.query = QueryKind::LoadSnapshot;
    std::string blob;
    for (int i = 0; i < 256; ++i)
        blob.push_back(static_cast<char>(i));
    req.snapshot = blob;
    const std::string frame = encodeRequestFrame(req);
    // Raw bytes, not base64: the frame embeds the blob verbatim.
    EXPECT_NE(frame.find(std::string("\x7f\x80\x81", 3)),
              std::string::npos);
    Result<WireMessage> decoded = decodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    EXPECT_EQ(decoded.value().request.snapshot, blob);
}

}  // namespace
}  // namespace ftsim
