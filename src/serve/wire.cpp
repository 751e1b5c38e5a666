#include "serve/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hpp"
#include "serve/schema.hpp"

namespace ftsim {

namespace {

// ---- Little-endian primitive writers ---------------------------------

void
putU8(std::string& out, unsigned char v)
{
    out.push_back(static_cast<char>(v));
}

/** Appends @p v in sizeof(T) little-endian bytes. */
template <class T>
void
putLe(std::string& out, T v)
{
    for (std::size_t i = 0; i < sizeof v; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
put(std::string& out, double v)
{
    // The bit pattern, not a decimal spelling: doubles round-trip
    // exactly, so a decoded message keeps its coalescing identity and
    // writePlanResponse(decode(x)) reproduces the JSON path's bytes.
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    putLe(out, bits);
}

void
put(std::string& out, std::string_view s)
{
    if (s.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("wire: string exceeds the u32 length prefix");
    putLe(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
}

// ---- Bounds-checked reader -------------------------------------------

class WireReader {
  public:
    explicit WireReader(std::string_view payload) : s_(payload) {}

    bool done() const { return pos_ >= s_.size(); }

    /** Reads sizeof(T) little-endian bytes. */
    template <class T>
    T le(const char* what)
    {
        need(sizeof(T), what);
        T v = 0;
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<T>(static_cast<unsigned char>(s_[pos_ + i]))
                 << (8 * i);
        pos_ += sizeof v;
        return v;
    }

    std::string_view bytes(std::uint32_t len, const char* what)
    {
        need(len, what);
        pos_ += len;
        return s_.substr(pos_ - len, len);
    }

  private:
    void need(std::size_t n, const char* what)
    {
        if (pos_ + n > s_.size())
            reject(strCat("truncated payload in ", what));
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

void
put(std::string& out, QueryKind kind)
{
    putU8(out, kindSpec(kind).byte);
}

void
put(std::string& out, bool b)
{
    putU8(out, b ? 1 : 0);
}

void
put(std::string& out, const std::vector<std::string>& list)
{
    putLe(out, static_cast<std::uint32_t>(list.size()));
    for (const std::string& s : list)
        put(out, s);
}

void
put(std::string& out, const Scenario& scenario)
{
    const WireModel* model = wireModelOf(scenario.model);
    putU8(out, model != nullptr ? model->id : 0);
    putLe(out, static_cast<std::uint64_t>(scenario.medianSeqLen));
    put(out, scenario.lengthSigma);
    put(out, scenario.numQueries);
    put(out, scenario.epochs);
    put(out, scenario.sparse);
}

void
put(std::string& out, const std::vector<CloudOffering>& rates)
{
    putLe(out, static_cast<std::uint32_t>(rates.size()));
    for (const CloudOffering& rate : rates) {
        put(out, rate.gpuName);
        put(out, rate.dollarsPerHour);
    }
}

void
put(std::string& out, const std::vector<CostRow>& rows)
{
    putLe(out, static_cast<std::uint32_t>(rows.size()));
    for (const CostRow& row : rows) {
        put(out, row.gpuName);
        put(out, row.memGB);
        putLe(out, static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(row.maxBatchSize)));
        put(out, row.throughputQps);
        put(out, row.dollarsPerHour);
        put(out, row.totalDollars);
    }
}

void
read(WireReader& in, QueryKind& kind, const char* what)
{
    const unsigned char byte = in.le<std::uint8_t>(what);
    const KindSpec* spec = findRow(kQueryKinds, &KindSpec::byte, byte);
    if (spec == nullptr)
        reject(strCat("unknown query kind byte ", unsigned{byte}));
    kind = spec->kind;
}

void
read(WireReader& in, bool& b, const char* what)
{
    const unsigned char v = in.le<std::uint8_t>(what);
    if (v > 1)
        reject(strCat("bad boolean in ", what));
    b = v == 1;
}

void
read(WireReader& in, double& x, const char* what)
{
    const std::uint64_t bits = in.le<std::uint64_t>(what);
    std::memcpy(&x, &bits, sizeof x);
    if (!std::isfinite(x))
        reject(strCat("non-finite number in ", what));
}

void
read(WireReader& in, std::string& s, const char* what)
{
    s = in.bytes(in.le<std::uint32_t>(what), what);
}

void
read(WireReader& in, std::vector<std::string>& list, const char* what)
{
    const std::uint32_t count = in.le<std::uint32_t>(what);
    for (std::uint32_t i = 0; i < count; ++i)
        read(in, list.emplace_back(), what);
}

void
read(WireReader& in, Scenario& scenario, const char*)
{
    // Model id 0 keeps the protocol default's model (GS/MATH: Mixtral).
    const unsigned char id = in.le<std::uint8_t>("scenario model");
    if (id != 0) {
        const WireModel* model = findRow(kWireModels, &WireModel::id, id);
        if (model == nullptr)
            reject(strCat("unknown model id ", unsigned{id}));
        scenario.withModel(model->spec());
    }
    scenario.withMedianSeqLen(
        medianSeqLenOf(in.le<std::uint64_t>("scenario median_seq_len")));
    read(in, scenario.lengthSigma, "scenario length_sigma");
    read(in, scenario.numQueries, "scenario num_queries");
    read(in, scenario.epochs, "scenario epochs");
    read(in, scenario.sparse, "scenario sparse");
}

void
read(WireReader& in, std::vector<CloudOffering>& rates, const char*)
{
    const std::uint32_t count = in.le<std::uint32_t>("rates count");
    for (std::uint32_t i = 0; i < count; ++i) {
        CloudOffering& rate = rates.emplace_back();
        rate.provider = "user";
        read(in, rate.gpuName, "rate gpu name");
        read(in, rate.dollarsPerHour, "rate value");
    }
}

void
read(WireReader& in, std::vector<CostRow>& rows, const char*)
{
    const std::uint32_t count = in.le<std::uint32_t>("rows count");
    for (std::uint32_t i = 0; i < count; ++i) {
        CostRow& row = rows.emplace_back();
        read(in, row.gpuName, "row gpu");
        read(in, row.memGB, "row mem_gb");
        const std::int64_t batch =
            static_cast<std::int64_t>(in.le<std::uint64_t>("row max_batch"));
        if (batch < std::numeric_limits<int>::min() ||
            batch > std::numeric_limits<int>::max())
            reject("row max_batch out of range");
        row.maxBatchSize = static_cast<int>(batch);
        read(in, row.throughputQps, "row qps");
        read(in, row.dollarsPerHour, "row usd_per_hour");
        read(in, row.totalDollars, "row total_usd");
    }
}

/** Appends the fields @p kTable selects for the message's kind and
 *  outcome, among @p rows, in ascending tag order. */
template <const auto& kTable, class Msg>
void
putFields(std::string& out, const Msg& msg, bool ok,
          FieldSet rows = ~FieldSet{0})
{
    static constexpr auto kByTag = rowsByTag(kTable);
    for (const std::size_t row : kByTag) {
        const auto& field = kTable[row];
        if ((rows >> row & 1) == 0 || !emits(field, msg, ok) ||
            (field.derived & kindBit(msg.query)) != 0)
            continue;
        putU8(out, field.tag);
        std::visit([&](auto m) { put(out, msg.*m); }, field.member);
    }
}

/** Reads tagged fields into @p msg until the payload ends; returns
 *  which rows were present. Tags must strictly ascend, so a duplicate
 *  or shuffled tag is a typed error. */
template <const auto& kTable, class Msg>
FieldSet
readFields(WireReader& in, Msg& msg)
{
    static constexpr auto kByTag = rowsByTag(kTable);
    FieldSet present = 0;
    unsigned last = 0;
    while (!in.done()) {
        const unsigned tag = in.le<std::uint8_t>("field tag");
        if (tag <= last)
            reject(strCat("duplicate or out-of-order tag ", tag));
        if (tag > kByTag.size())
            reject(strCat("unknown tag ", tag));
        last = tag;
        const std::size_t row = kByTag[tag - 1];
        const auto& field = kTable[row];
        std::visit([&](auto m) { read(in, msg.*m, field.key); },
                   field.member);
        present |= FieldSet{1} << row;
    }
    return present;
}

/** A protocol-error frame carries a response's message and its id. */
constexpr FieldSet kIdBit = FieldSet{1} << rowOf(kResponseFields, "id");
constexpr FieldSet kMessageBit =
    FieldSet{1} << rowOf(kResponseFields, "message");

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
    putLe(out, static_cast<std::uint32_t>(payload.size()));
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
    putFields<kRequestFields>(p, request, true);
    return wireFrame(p);
}

std::string
encodeResponseFrame(const PlanResponse& response)
{
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::Response));
    putFields<kResponseFields>(p, response, response.ok);
    return wireFrame(p);
}

std::string
encodeProtocolErrorFrame(const std::string& id,
                         const std::string& message)
{
    // Like writeProtocolError, no query: the request kind was never
    // established.
    PlanResponse fields;
    fields.id = id;
    fields.errorMessage = message;
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::ProtocolError));
    putFields<kResponseFields>(p, fields, false, kIdBit | kMessageBit);
    return wireFrame(p);
}

Result<WireMessage>
decodeWirePayload(std::string_view payload)
{
    try {
        WireReader in(payload);
        WireMessage msg;
        const unsigned char type = in.le<std::uint8_t>("message type");
        switch (type) {
        case static_cast<unsigned char>(WireMsg::Request):
            msg.type = WireMsg::Request;
            checkRequest(msg.request,
                         readFields<kRequestFields>(in, msg.request));
            return msg;
        case static_cast<unsigned char>(WireMsg::Response):
            msg.type = WireMsg::Response;
            checkResponse(msg.response,
                          readFields<kResponseFields>(in, msg.response));
            return msg;
        case static_cast<unsigned char>(WireMsg::ProtocolError): {
            msg.type = WireMsg::ProtocolError;
            const FieldSet present =
                readFields<kResponseFields>(in, msg.response);
            if ((present & ~(kIdBit | kMessageBit)) != 0 ||
                (present & kMessageBit) == 0)
                reject("a protocol error carries a message and at most "
                       "an id");
            msg.errorId = std::move(msg.response.id);
            msg.errorMessage = std::move(msg.response.errorMessage);
            return msg;
        }
        default:
            reject(strCat("unknown message type ", unsigned{type}));
        }
    } catch (const DecodeError& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad frame: ", err.msg)};
    }
}

}  // namespace ftsim
