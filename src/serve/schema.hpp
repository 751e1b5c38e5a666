#ifndef FTSIM_SERVE_SCHEMA_HPP
#define FTSIM_SERVE_SCHEMA_HPP

/**
 * @file
 * The plan protocol, declared once: every query kind (`kQueryKinds`),
 * request field (`kRequestFields`) and response field
 * (`kResponseFields`), with its JSON spelling, binary tag, value type,
 * and the kinds and outcomes it belongs to. The JSON codec
 * (serve/protocol.cpp) and the binary codec (serve/wire.cpp) keep only
 * their primitives plus one walker each way over these tables; the
 * rules both apply to a decoded message live here, each written once.
 * tools/check_docs.py reads the table rows, so keep their shape.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "serve/protocol.hpp"

namespace ftsim {

enum class KindClass {
    PerGpu,  ///< Asked about one GPU: takes `gpu`.
    Sweep,   ///< Asked over a GPU list: takes `gpus`.
    Live,    ///< About the service itself: takes no workload fields.
};

struct KindSpec {
    QueryKind kind;
    const char* name;    ///< JSON wire name.
    unsigned char byte;  ///< Binary wire byte.
    KindClass cls;
};

/** Every query kind. */
inline constexpr KindSpec kQueryKinds[] = {
    {QueryKind::MaxBatch, "max_batch", 0, KindClass::PerGpu},
    {QueryKind::Throughput, "throughput", 1, KindClass::PerGpu},
    {QueryKind::CostTable, "cost_table", 2, KindClass::Sweep},
    {QueryKind::CheapestPlan, "cheapest_plan", 3, KindClass::Sweep},
    {QueryKind::Report, "report", 4, KindClass::PerGpu},
    {QueryKind::Snapshot, "snapshot", 5, KindClass::Live},
    {QueryKind::Fleet, "fleet", 6, KindClass::Live},
    {QueryKind::LoadSnapshot, "load_snapshot", 7, KindClass::Live},
    {QueryKind::Stats, "stats", 8, KindClass::Live},
};

/** A set of query kinds, one bit per QueryKind. */
using KindSet = std::uint32_t;

constexpr KindSet
kindBit(QueryKind kind)
{
    return KindSet{1} << static_cast<unsigned>(kind);
}

constexpr KindSet
kindsOf(KindClass cls)
{
    KindSet set = 0;
    for (const KindSpec& spec : kQueryKinds)
        if (spec.cls == cls)
            set |= kindBit(spec.kind);
    return set;
}

inline constexpr KindSet kPerGpuKinds = kindsOf(KindClass::PerGpu);
inline constexpr KindSet kSweepKinds = kindsOf(KindClass::Sweep);
inline constexpr KindSet kLiveKinds = kindsOf(KindClass::Live);
inline constexpr KindSet kWorkloadKinds = kPerGpuKinds | kSweepKinds;
inline constexpr KindSet kAllKinds = kWorkloadKinds | kLiveKinds;

/** The row of @p table whose @p column is @p value, or nullptr. */
template <class Row, std::size_t N, class Column, class Value>
const Row*
findRow(const Row (&table)[N], Column Row::*column, const Value& value)
{
    for (const Row& row : table)
        if (row.*column == value)
            return &row;
    return nullptr;
}

inline const KindSpec&
kindSpec(QueryKind kind)
{
    return *findRow(kQueryKinds, &KindSpec::kind, kind);
}

/** How JSON spells a string (binary always sends the raw bytes). */
enum class Spelling : unsigned char {
    Text,    ///< A JSON string; also the entry for non-strings.
    Base64,  ///< Raw bytes, base64 in a JSON string.
    Json,    ///< A serialized JSON object, verbatim ({} if empty).
};

/** What encoders do with an empty value, and decoders with one. */
enum class Empty : unsigned char {
    Sent,      ///< Sent whenever selected, even when empty.
    Omitted,   ///< Left out when empty; sent empty, decodes as empty.
    Rejected,  ///< Left out when empty; sent empty, a decode error.
};

/** Response outcomes that emit a field, as a bit set. */
enum Outcome : unsigned char { kOnOk = 1, kOnError = 2, kOnEither = 3 };

/** The member a field lives in; its type is the field's value type. */
using RequestMember =
    std::variant<QueryKind PlanRequest::*, std::string PlanRequest::*,
                 std::vector<std::string> PlanRequest::*,
                 Scenario PlanRequest::*,
                 std::vector<CloudOffering> PlanRequest::*>;
using ResponseMember =
    std::variant<QueryKind PlanResponse::*, bool PlanResponse::*,
                 double PlanResponse::*, std::string PlanResponse::*,
                 std::vector<CostRow> PlanResponse::*>;

template <class Member>
struct Field {
    const char* key;     ///< JSON key.
    unsigned char tag;   ///< Binary tag (tags run 1..N).
    Member member;
    Empty empty;
    KindSet kinds;  ///< Request: legal in. Response: emitted for.
    KindSet required = 0;
    unsigned char outcomes = kOnEither;
    Spelling spelling = Spelling::Text;
    /** Kinds whose value is derivedValue(): JSON writes it, binary
     *  sends nothing and its decoder sets it. */
    KindSet derived = 0;
};

using RequestField = Field<RequestMember>;
using ResponseField = Field<ResponseMember>;

inline constexpr KindSet kLoadSnapshot = kindBit(QueryKind::LoadSnapshot);

/** Request fields, in JSON key order. */
inline constexpr RequestField kRequestFields[] = {
    {"id", 2, &PlanRequest::id, Empty::Omitted, kAllKinds},
    {"tenant", 3, &PlanRequest::tenant, Empty::Rejected, kWorkloadKinds},
    {"query", 1, &PlanRequest::query, Empty::Sent, kAllKinds, kAllKinds},
    {"gpu", 4, &PlanRequest::gpu, Empty::Rejected, kPerGpuKinds, kPerGpuKinds},
    {"gpus", 5, &PlanRequest::gpus, Empty::Omitted, kSweepKinds},
    {"scenario", 6, &PlanRequest::scenario, Empty::Sent, kWorkloadKinds},
    {"rates", 7, &PlanRequest::rates, Empty::Omitted, kWorkloadKinds},
    {"snapshot", 8, &PlanRequest::snapshot, Empty::Sent, kLoadSnapshot,
     kLoadSnapshot, kOnEither, Spelling::Base64},
};

/** Response fields, in JSON key order. */
inline constexpr ResponseField kResponseFields[] = {
    {"id", 2, &PlanResponse::id, Empty::Omitted, kAllKinds},
    {"query", 1, &PlanResponse::query, Empty::Sent, kAllKinds, kAllKinds},
    {"ok", 3, &PlanResponse::ok, Empty::Sent, kAllKinds, kAllKinds},
    {"error", 4, &PlanResponse::errorCode, Empty::Sent, kAllKinds, 0, kOnError},
    {"message", 5, &PlanResponse::errorMessage, Empty::Sent, kAllKinds, 0,
     kOnError},
    {"value", 6, &PlanResponse::value, Empty::Sent,
     kindBit(QueryKind::MaxBatch) | kindBit(QueryKind::Throughput) |
         kLiveKinds,
     0, kOnOk, Spelling::Text, kindBit(QueryKind::Snapshot)},
    {"rows", 7, &PlanResponse::rows, Empty::Sent, kSweepKinds, 0, kOnOk},
    {"report", 8, &PlanResponse::report, Empty::Sent,
     kindBit(QueryKind::Report) | kindBit(QueryKind::Fleet) | kLoadSnapshot,
     0, kOnOk},
    {"snapshot", 9, &PlanResponse::snapshot, Empty::Sent,
     kindBit(QueryKind::Snapshot), 0, kOnOk, Spelling::Base64},
    {"stats", 10, &PlanResponse::statsJson, Empty::Sent,
     kindBit(QueryKind::Stats), 0, kOnOk, Spelling::Json},
};

/** Decoded fields of one message, one bit per table row. */
using FieldSet = std::uint32_t;

/** Row index of each tag, the binary codec's order. At compile time a
 *  tag outside 1..N or a repeated tag fails the build. */
template <class Member, std::size_t N>
constexpr std::array<std::size_t, N>
rowsByTag(const Field<Member> (&table)[N])
{
    static_assert(N <= 32, "FieldSet holds one bit per row");
    std::array<std::size_t, N> rows{};
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const unsigned tag = table[i].tag;
        if (tag < 1 || tag > N || (seen >> tag & 1) != 0)
            throw "tags must run 1..N, each once";
        seen |= std::uint64_t{1} << tag;
        rows[tag - 1] = i;
    }
    return rows;
}

/** Index of the row with JSON key @p key; N if none. */
template <class Member, std::size_t N>
constexpr std::size_t
rowOf(const Field<Member> (&table)[N], std::string_view key)
{
    std::size_t i = 0;
    while (i < N && key != table[i].key)
        ++i;
    return i;
}

/** Strings and lists can be empty, other values cannot. */
template <class T>
auto
isEmptyValue(const T& value, int) -> decltype(value.empty())
{
    return value.empty();
}

template <class T>
bool
isEmptyValue(const T&, long)
{
    return false;
}

/** Whether @p msg's value for @p field is empty. */
template <class Msg, class Member>
bool
isEmptyField(const Msg& msg, const Field<Member>& field)
{
    return std::visit([&](auto m) { return isEmptyValue(msg.*m, 0); },
                      field.member);
}

/** A derived field's value: a snapshot answer's value is its payload's
 *  byte count. */
template <class Msg>
double
derivedValue(const Msg& msg)
{
    return static_cast<double>(msg.snapshot.size());
}

/** Whether encoders emit @p field for @p msg with outcome @p ok. */
template <class Msg, class Member>
bool
emits(const Field<Member>& field, const Msg& msg, bool ok)
{
    return (field.kinds & kindBit(msg.query)) != 0 &&
           (field.outcomes & (ok ? kOnOk : kOnError)) != 0 &&
           (field.empty == Empty::Sent || !isEmptyField(msg, field));
}

/** A decode failure; each codec turns it into `InvalidArgument`. */
struct DecodeError {
    std::string msg;
};

[[noreturn]] void reject(std::string msg);

struct WireModel {
    const char* name;  ///< JSON `model` value.
    unsigned char id;  ///< Binary model byte; 0 means the preset default.
    ModelSpec (*spec)();
};

inline constexpr WireModel kWireModels[] = {
    {"mixtral8x7b", 1, &ModelSpec::mixtral8x7b},
    {"blackmamba2p8b", 2, &ModelSpec::blackMamba2p8b},
};

/** nullptr for a foreign spec, which neither codec can carry. */
const WireModel* wireModelOf(const ModelSpec& model);

/** The largest integer a JSON number (a double) holds exactly, so a
 *  larger `median_seq_len` from binary would change in its JSON form. */
inline constexpr std::uint64_t kMaxMedianSeqLen = std::uint64_t{1} << 53;

/** The `median_seq_len` rule, checked before any cast: an integer in
 *  [1, kMaxMedianSeqLen]. @p Number is double or std::uint64_t. */
template <class Number>
std::size_t
medianSeqLenOf(Number value)
{
    if (!(value >= 1 && value <= static_cast<Number>(kMaxMedianSeqLen)) ||
        static_cast<Number>(static_cast<std::uint64_t>(value)) != value)
        reject(std::string("\"median_seq_len\" must be an integer in "
                           "[1, 2^53]"));
    return static_cast<std::size_t>(value);
}

/** Rejects a decoded request that breaks the table's kind rules or
 *  the shared value rules: non-empty `gpus` entries, positive rates
 *  with unique names, a scenario that passes `validated()`. */
void checkRequest(const PlanRequest& request, FieldSet present);

/** The response rules: `query` and `ok` present. Also sets the derived
 *  fields, which the binary codec does not send. */
void checkResponse(PlanResponse& response, FieldSet present);

}  // namespace ftsim

#endif  // FTSIM_SERVE_SCHEMA_HPP
