#include "serve/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hpp"

namespace ftsim {

namespace {

/** Internal decode failure; surfaces as InvalidArgument at the API. */
struct WireErr {
    std::string msg;
};

[[noreturn]] void
bad(std::string msg)
{
    throw WireErr{std::move(msg)};
}

// ---- Field tags ------------------------------------------------------
// Shared between requests and responses where the meaning lines up
// (id, snapshot); encoded in strictly ascending order, decoded with
// the same rule, so a duplicate or shuffled tag is a typed error.

enum ReqTag : unsigned char {
    kReqQuery = 1,     ///< u8 QueryKind (required).
    kReqId = 2,        ///< str.
    kReqTenant = 3,    ///< str, non-empty.
    kReqGpu = 4,       ///< str, non-empty.
    kReqGpus = 5,      ///< u32 count + count x str.
    kReqScenario = 6,  ///< fixed scenario block (see encode).
    kReqRates = 7,     ///< u32 count + count x (str, f64).
    kReqSnapshot = 8,  ///< str, raw bytes (no base64 on this wire).
};

enum RespTag : unsigned char {
    kRespQuery = 1,     ///< u8 QueryKind (required).
    kRespId = 2,        ///< str.
    kRespOk = 3,        ///< u8 bool (required).
    kRespErrorCode = 4, ///< str.
    kRespErrorMsg = 5,  ///< str (also the ProtocolError message tag).
    kRespValue = 6,     ///< f64.
    kRespRows = 7,      ///< u32 count + count x CostRow block.
    kRespReport = 8,    ///< str.
    kRespSnapshot = 9,  ///< str, raw bytes.
    kRespStats = 10,    ///< str, pre-serialized stats JSON.
};

/** Scenario model ids (0 = absent: the preset default, Mixtral). */
enum WireModel : unsigned char {
    kModelDefault = 0,
    kModelMixtral8x7b = 1,
    kModelBlackMamba2p8b = 2,
};

// ---- Little-endian primitive writers ---------------------------------

void
putU8(std::string& out, unsigned char v)
{
    out.push_back(static_cast<char>(v));
}

void
putU32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putF64(std::string& out, double v)
{
    // The bit pattern, not a decimal spelling: doubles round-trip
    // exactly, so a decoded message keeps its coalescing identity and
    // writePlanResponse(decode(x)) reproduces the JSON path's bytes.
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putStr(std::string& out, std::string_view s)
{
    if (s.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("wire: string exceeds the u32 length prefix");
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
}

// ---- Bounds-checked reader -------------------------------------------

class WireReader {
  public:
    explicit WireReader(std::string_view payload) : s_(payload) {}

    bool done() const { return pos_ >= s_.size(); }

    unsigned char u8(const char* what)
    {
        need(1, what);
        return static_cast<unsigned char>(s_[pos_++]);
    }

    std::uint32_t u32(const char* what)
    {
        need(4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(s_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t u64(const char* what)
    {
        need(8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(s_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    double f64(const char* what)
    {
        const std::uint64_t bits = u64(what);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isfinite(v))
            bad(strCat("non-finite number in ", what));
        return v;
    }

    bool boolean(const char* what)
    {
        const unsigned char v = u8(what);
        if (v > 1)
            bad(strCat("bad boolean in ", what));
        return v == 1;
    }

    std::string str(const char* what)
    {
        const std::uint32_t len = u32(what);
        need(len, what);
        std::string out(s_.substr(pos_, len));
        pos_ += len;
        return out;
    }

  private:
    void need(std::size_t n, const char* what)
    {
        if (pos_ + n > s_.size())
            bad(strCat("truncated payload in ", what));
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

QueryKind
readQueryKind(WireReader& in)
{
    const unsigned char raw = in.u8("query kind");
    switch (raw) {
    case 0: return QueryKind::MaxBatch;
    case 1: return QueryKind::Throughput;
    case 2: return QueryKind::CostTable;
    case 3: return QueryKind::CheapestPlan;
    case 4: return QueryKind::Report;
    case 5: return QueryKind::Snapshot;
    case 6: return QueryKind::Fleet;
    case 7: return QueryKind::LoadSnapshot;
    case 8: return QueryKind::Stats;
    default: bad(strCat("unknown query kind byte ", unsigned{raw}));
    }
}

unsigned char
queryKindByte(QueryKind kind)
{
    return static_cast<unsigned char>(kind);
}

// ---- Scenario block --------------------------------------------------

unsigned char
modelWireId(const ModelSpec& model)
{
    if (model.fingerprint() == ModelSpec::mixtral8x7b().fingerprint())
        return kModelMixtral8x7b;
    if (model.fingerprint() ==
        ModelSpec::blackMamba2p8b().fingerprint())
        return kModelBlackMamba2p8b;
    // A foreign spec has no wire spelling (same as the JSON writer,
    // which omits "model"): the decoder keeps the preset default.
    return kModelDefault;
}

void
putScenario(std::string& out, const Scenario& scenario)
{
    putU8(out, modelWireId(scenario.model));
    putU64(out, static_cast<std::uint64_t>(scenario.medianSeqLen));
    putF64(out, scenario.lengthSigma);
    putF64(out, scenario.numQueries);
    putF64(out, scenario.epochs);
    putU8(out, scenario.sparse ? 1 : 0);
}

Scenario
readScenario(WireReader& in)
{
    // Like parseScenario: scalars apply on top of the protocol default
    // (GS/MATH), and the result must pass the same domain validation.
    Scenario scenario = Scenario::gsMath();
    const unsigned char model = in.u8("scenario model");
    switch (model) {
    case kModelDefault: break;
    case kModelMixtral8x7b:
        scenario.withModel(ModelSpec::mixtral8x7b());
        break;
    case kModelBlackMamba2p8b:
        scenario.withModel(ModelSpec::blackMamba2p8b());
        break;
    default: bad(strCat("unknown model id ", unsigned{model}));
    }
    const std::uint64_t seq = in.u64("scenario median_seq_len");
    if (seq < 1)
        bad("\"median_seq_len\" must be a positive integer");
    scenario.withMedianSeqLen(static_cast<std::size_t>(seq));
    scenario.withLengthSigma(in.f64("scenario length_sigma"));
    scenario.withNumQueries(in.f64("scenario num_queries"));
    scenario.withEpochs(in.f64("scenario epochs"));
    scenario.withSparse(in.boolean("scenario sparse"));
    Result<Scenario> valid = scenario.validated();
    if (!valid)
        bad(valid.error().message);
    return scenario;
}

// ---- Request decode --------------------------------------------------

PlanRequest
readRequest(WireReader& in)
{
    PlanRequest req;
    bool sawQuery = false, sawGpu = false, sawGpus = false;
    bool sawTenant = false, sawScenario = false, sawRates = false;
    bool sawSnapshot = false;
    int lastTag = 0;
    while (!in.done()) {
        const unsigned char tag = in.u8("field tag");
        if (tag <= lastTag)
            bad(strCat("duplicate or out-of-order tag ",
                       unsigned{tag}));
        lastTag = tag;
        switch (tag) {
        case kReqQuery:
            req.query = readQueryKind(in);
            sawQuery = true;
            break;
        case kReqId: req.id = in.str("id"); break;
        case kReqTenant:
            req.tenant = in.str("tenant");
            if (req.tenant.empty())
                bad("\"tenant\" must not be empty (omit it instead)");
            sawTenant = true;
            break;
        case kReqGpu:
            req.gpu = in.str("gpu");
            if (req.gpu.empty())
                bad("\"gpu\" must not be empty");
            sawGpu = true;
            break;
        case kReqGpus: {
            const std::uint32_t count = in.u32("gpus count");
            for (std::uint32_t i = 0; i < count; ++i) {
                std::string gpu = in.str("gpus entry");
                if (gpu.empty())
                    bad("\"gpus\" entries must be non-empty strings");
                req.gpus.push_back(std::move(gpu));
            }
            sawGpus = true;
            break;
        }
        case kReqScenario:
            req.scenario = readScenario(in);
            sawScenario = true;
            break;
        case kReqRates: {
            const std::uint32_t count = in.u32("rates count");
            for (std::uint32_t i = 0; i < count; ++i) {
                std::string name = in.str("rate gpu name");
                const double rate = in.f64("rate value");
                if (rate <= 0.0)
                    bad(strCat("rate for \"", name,
                               "\" must be a positive number"));
                req.rates.push_back({"user", std::move(name), rate});
            }
            sawRates = true;
            break;
        }
        case kReqSnapshot:
            req.snapshot = in.str("snapshot");
            sawSnapshot = true;
            break;
        default: bad(strCat("unknown request tag ", unsigned{tag}));
        }
    }
    // The tag before query decoded under the default kind — the kind
    // byte must come first (tag 1 sorts lowest), so enforce presence
    // *and* that kind-dependent checks run against the real kind.
    if (!sawQuery)
        bad("missing required query field");
    const char* kindName = queryKindName(req.query);
    if (isLiveKind(req.query)) {
        // Live queries are about the service, not a workload: any of
        // the workload-shaped fields on one is a confused caller.
        if (sawTenant || sawGpu || sawGpus || sawScenario || sawRates)
            bad(strCat("workload fields are not valid for query \"",
                       kindName, '"'));
    }
    if (req.query == QueryKind::LoadSnapshot) {
        if (!sawSnapshot)
            bad("query \"load_snapshot\" requires a snapshot");
    } else if (sawSnapshot) {
        bad(strCat("\"snapshot\" is not valid for query \"", kindName,
                   '"'));
    }
    if (isPerGpuKind(req.query)) {
        if (!sawGpu)
            bad(strCat("query \"", kindName, "\" requires a \"gpu\""));
        if (sawGpus)
            bad(strCat("\"gpus\" is not valid for query \"", kindName,
                       "\"; use \"gpu\""));
    } else if (sawGpu) {
        bad(strCat("\"gpu\" is not valid for query \"", kindName,
                   "\"; use \"gpus\""));
    }
    return req;
}

// ---- Response decode -------------------------------------------------

PlanResponse
readResponse(WireReader& in)
{
    PlanResponse resp;
    bool sawQuery = false, sawOk = false;
    int lastTag = 0;
    while (!in.done()) {
        const unsigned char tag = in.u8("field tag");
        if (tag <= lastTag)
            bad(strCat("duplicate or out-of-order tag ",
                       unsigned{tag}));
        lastTag = tag;
        switch (tag) {
        case kRespQuery:
            resp.query = readQueryKind(in);
            sawQuery = true;
            break;
        case kRespId: resp.id = in.str("id"); break;
        case kRespOk:
            resp.ok = in.boolean("ok");
            sawOk = true;
            break;
        case kRespErrorCode:
            resp.errorCode = in.str("error code");
            break;
        case kRespErrorMsg:
            resp.errorMessage = in.str("error message");
            break;
        case kRespValue: resp.value = in.f64("value"); break;
        case kRespRows: {
            const std::uint32_t count = in.u32("rows count");
            for (std::uint32_t i = 0; i < count; ++i) {
                CostRow row;
                row.gpuName = in.str("row gpu");
                row.memGB = in.f64("row mem_gb");
                const std::uint64_t raw = in.u64("row max_batch");
                const std::int64_t batch =
                    static_cast<std::int64_t>(raw);
                if (batch < std::numeric_limits<int>::min() ||
                    batch > std::numeric_limits<int>::max())
                    bad("row max_batch out of range");
                row.maxBatchSize = static_cast<int>(batch);
                row.throughputQps = in.f64("row qps");
                row.dollarsPerHour = in.f64("row usd_per_hour");
                row.totalDollars = in.f64("row total_usd");
                resp.rows.push_back(std::move(row));
            }
            break;
        }
        case kRespReport: resp.report = in.str("report"); break;
        case kRespSnapshot:
            resp.snapshot = in.str("snapshot");
            break;
        case kRespStats: resp.statsJson = in.str("stats"); break;
        default: bad(strCat("unknown response tag ", unsigned{tag}));
        }
    }
    if (!sawQuery)
        bad("missing required query field");
    if (!sawOk)
        bad("missing required ok field");
    // The writer derives the snapshot answer's `value` from the
    // payload size instead of encoding it; restore the invariant for
    // binary-native consumers.
    if (resp.ok && resp.query == QueryKind::Snapshot)
        resp.value = static_cast<double>(resp.snapshot.size());
    return resp;
}

}  // namespace

std::string
wireFrame(std::string_view payload)
{
    if (payload.empty())
        fatal("wire: refusing to frame an empty payload");
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("wire: payload exceeds the u32 length prefix");
    std::string out;
    out.reserve(kWireHeaderBytes + payload.size());
    putU8(out, kWireMagic);
    putU8(out, kWireMagic2);
    putU8(out, kWireMagic3);
    putU8(out, kWireVersion);
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload.data(), payload.size());
    return out;
}

Result<std::uint32_t>
parseWireHeader(const unsigned char* header)
{
    if (header[0] != kWireMagic || header[1] != kWireMagic2 ||
        header[2] != kWireMagic3)
        return Error{ErrorCode::InvalidArgument, "bad frame magic"};
    if (header[3] != kWireVersion)
        return Error{ErrorCode::InvalidArgument,
                     strCat("unsupported wire version ",
                            unsigned{header[3]}, " (expected ",
                            unsigned{kWireVersion}, ')')};
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
    if (len == 0)
        return Error{ErrorCode::InvalidArgument,
                     "empty frame payload"};
    return len;
}

std::string
encodeRequestFrame(const PlanRequest& request)
{
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::Request));
    putU8(p, kReqQuery);
    putU8(p, queryKindByte(request.query));
    if (!request.id.empty()) {
        putU8(p, kReqId);
        putStr(p, request.id);
    }
    if (!request.tenant.empty()) {
        putU8(p, kReqTenant);
        putStr(p, request.tenant);
    }
    if (!request.gpu.empty()) {
        putU8(p, kReqGpu);
        putStr(p, request.gpu);
    }
    if (!request.gpus.empty()) {
        putU8(p, kReqGpus);
        putU32(p, static_cast<std::uint32_t>(request.gpus.size()));
        for (const std::string& gpu : request.gpus)
            putStr(p, gpu);
    }
    if (isLiveKind(request.query)) {
        // Live kinds carry no workload fields (the decoder, like the
        // JSON parser, rejects them); load_snapshot ships its payload
        // as raw bytes — the binary wire needs no base64.
        if (request.query == QueryKind::LoadSnapshot) {
            putU8(p, kReqSnapshot);
            putStr(p, request.snapshot);
        }
        return wireFrame(p);
    }
    putU8(p, kReqScenario);
    putScenario(p, request.scenario);
    if (!request.rates.empty()) {
        putU8(p, kReqRates);
        putU32(p, static_cast<std::uint32_t>(request.rates.size()));
        for (const CloudOffering& rate : request.rates) {
            putStr(p, rate.gpuName);
            putF64(p, rate.dollarsPerHour);
        }
    }
    return wireFrame(p);
}

std::string
encodeResponseFrame(const PlanResponse& response)
{
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::Response));
    putU8(p, kRespQuery);
    putU8(p, queryKindByte(response.query));
    if (!response.id.empty()) {
        putU8(p, kRespId);
        putStr(p, response.id);
    }
    putU8(p, kRespOk);
    putU8(p, response.ok ? 1 : 0);
    if (!response.ok) {
        putU8(p, kRespErrorCode);
        putStr(p, response.errorCode);
        putU8(p, kRespErrorMsg);
        putStr(p, response.errorMessage);
        return wireFrame(p);
    }
    // Field selection per kind mirrors writePlanResponse exactly, so
    // decode + writePlanResponse is byte-identical to the JSON path.
    switch (response.query) {
    case QueryKind::MaxBatch:
    case QueryKind::Throughput:
        putU8(p, kRespValue);
        putF64(p, response.value);
        break;
    case QueryKind::CostTable:
    case QueryKind::CheapestPlan:
        putU8(p, kRespRows);
        putU32(p, static_cast<std::uint32_t>(response.rows.size()));
        for (const CostRow& row : response.rows) {
            putStr(p, row.gpuName);
            putF64(p, row.memGB);
            putU64(p, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(
                              row.maxBatchSize)));
            putF64(p, row.throughputQps);
            putF64(p, row.dollarsPerHour);
            putF64(p, row.totalDollars);
        }
        break;
    case QueryKind::Report:
        putU8(p, kRespReport);
        putStr(p, response.report);
        break;
    case QueryKind::Snapshot:
        // `value` is derived from the payload size on both wires.
        putU8(p, kRespSnapshot);
        putStr(p, response.snapshot);
        break;
    case QueryKind::Fleet:
    case QueryKind::LoadSnapshot:
        putU8(p, kRespValue);
        putF64(p, response.value);
        putU8(p, kRespReport);
        putStr(p, response.report);
        break;
    case QueryKind::Stats:
        putU8(p, kRespValue);
        putF64(p, response.value);
        putU8(p, kRespStats);
        putStr(p, response.statsJson);
        break;
    }
    return wireFrame(p);
}

std::string
encodeProtocolErrorFrame(const std::string& id,
                         const std::string& message)
{
    // No query field, like writeProtocolError: the request kind was
    // never established.
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::ProtocolError));
    if (!id.empty()) {
        putU8(p, kRespId);
        putStr(p, id);
    }
    putU8(p, kRespErrorMsg);
    putStr(p, message);
    return wireFrame(p);
}

Result<WireMessage>
decodeWirePayload(std::string_view payload)
{
    try {
        WireReader in(payload);
        WireMessage msg;
        const unsigned char type = in.u8("message type");
        switch (type) {
        case static_cast<unsigned char>(WireMsg::Request):
            msg.type = WireMsg::Request;
            msg.request = readRequest(in);
            return msg;
        case static_cast<unsigned char>(WireMsg::Response):
            msg.type = WireMsg::Response;
            msg.response = readResponse(in);
            return msg;
        case static_cast<unsigned char>(WireMsg::ProtocolError): {
            msg.type = WireMsg::ProtocolError;
            bool sawMessage = false;
            int lastTag = 0;
            while (!in.done()) {
                const unsigned char tag = in.u8("field tag");
                if (tag <= lastTag)
                    bad(strCat("duplicate or out-of-order tag ",
                               unsigned{tag}));
                lastTag = tag;
                if (tag == kRespId) {
                    msg.errorId = in.str("id");
                } else if (tag == kRespErrorMsg) {
                    msg.errorMessage = in.str("error message");
                    sawMessage = true;
                } else {
                    bad(strCat("unknown protocol-error tag ",
                               unsigned{tag}));
                }
            }
            if (!sawMessage)
                bad("missing required error message field");
            return msg;
        }
        default:
            bad(strCat("unknown message type ", unsigned{type}));
        }
    } catch (const WireErr& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad frame: ", err.msg)};
    }
}

}  // namespace ftsim
