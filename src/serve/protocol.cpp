#include "serve/protocol.hpp"

#include <cmath>
#include <cstdlib>

#include "common/base64.hpp"
#include "common/logging.hpp"

namespace ftsim {

namespace {

/** Internal parse failure; surfaces as InvalidArgument at the API. */
struct ParseErr {
    std::string msg;
};

[[noreturn]] void
bad(std::string msg)
{
    throw ParseErr{std::move(msg)};
}

// ---- Minimal JSON document model -------------------------------------

struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are a parse error. */
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue* find(const std::string& key) const
    {
        for (const auto& [k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

const char*
typeName(JsonValue::Type t)
{
    switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
    }
    return "?";
}

// ---- Recursive-descent parser ----------------------------------------

class JsonParser {
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != s_.size())
            bad(strCat("trailing characters at offset ", pos_));
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= s_.size())
            bad("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            bad(strCat("expected '", c, "' at offset ", pos_));
        ++pos_;
    }

    bool consumeLiteral(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            // Containers recurse; a hostile line of 100k brackets must
            // be a parse error, not a stack overflow (fuzz-pinned).
            if (depth_ >= kMaxDepth)
                bad(strCat("nesting deeper than ", kMaxDepth));
            ++depth_;
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"') {
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.string = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            return v;
        }
        if (consumeLiteral("null"))
            return JsonValue{};
        return parseNumber();
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            if (v.find(key) != nullptr)
                bad(strCat("duplicate key \"", key, '"'));
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                bad("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                bad("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                bad("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': out += parseUnicodeEscape(); break;
            default: bad(strCat("bad escape '\\", e, "'"));
            }
        }
    }

    /** Reads exactly four hex digits of a \u escape. */
    unsigned parseHex4()
    {
        if (pos_ + 4 > s_.size())
            bad("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                bad("non-hex digit in \\u escape");
        }
        return code;
    }

    /**
     * Decodes \uXXXX to UTF-8. A UTF-16 high surrogate
     * (\uD800-\uDBFF) must be followed by a low surrogate
     * (\uDC00-\uDFFF); the pair combines into one astral-plane code
     * point encoded as four UTF-8 bytes. A lone or unpaired surrogate
     * is a parse error — encoding the surrogate code point itself
     * would produce invalid UTF-8 that escapeJson later re-emits as
     * garbage, violating the valid-request-or-typed-error invariant.
     */
    std::string parseUnicodeEscape()
    {
        unsigned code = parseHex4();
        if (code >= 0xDC00 && code <= 0xDFFF)
            bad("lone low surrogate in \\u escape");
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u')
                bad("unpaired high surrogate in \\u escape");
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                bad("unpaired high surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    JsonValue parseNumber()
    {
        // Strict JSON number grammar:
        //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        // Enforced here rather than deferred to strtod, which also
        // accepts "+5", ".5", "5.", "01", hex, and "inf"/"nan" —
        // spellings fmtNumber never emits and strict JSON rejects.
        const std::size_t start = pos_;
        const auto isDigit = [this](std::size_t p) {
            return p < s_.size() && s_[p] >= '0' && s_[p] <= '9';
        };
        if (peek() == '-')
            ++pos_;
        if (!isDigit(pos_))
            bad(strCat("unexpected character '",
                       pos_ < s_.size() ? s_[pos_] : s_[start],
                       "' at offset ", start));
        if (s_[pos_] == '0') {
            ++pos_;
            if (isDigit(pos_))
                bad(strCat("leading zero in number at offset ", start));
        } else {
            while (isDigit(pos_))
                ++pos_;
        }
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!isDigit(pos_))
                bad(strCat("digit required after decimal point at "
                           "offset ",
                           start));
            while (isDigit(pos_))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!isDigit(pos_))
                bad(strCat("digit required in exponent at offset ",
                           start));
            while (isDigit(pos_))
                ++pos_;
        }
        const std::string text = s_.substr(start, pos_ - start);
        char* end = nullptr;
        const double num = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || !std::isfinite(num))
            bad(strCat("bad number \"", text, '"'));
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = num;
        return v;
    }

    /** No real request nests past ~3 levels; 64 is pure headroom. */
    static constexpr int kMaxDepth = 64;

    const std::string& s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

// ---- Field extraction helpers ----------------------------------------

const JsonValue&
require(const JsonValue& obj, const char* key, JsonValue::Type type)
{
    const JsonValue* v = obj.find(key);
    if (v == nullptr)
        bad(strCat("missing required key \"", key, '"'));
    if (v->type != type)
        bad(strCat('"', key, "\" must be a ", typeName(type), ", got ",
                   typeName(v->type)));
    return *v;
}

const JsonValue*
optional(const JsonValue& obj, const char* key, JsonValue::Type type)
{
    const JsonValue* v = obj.find(key);
    if (v != nullptr && v->type != type)
        bad(strCat('"', key, "\" must be a ", typeName(type), ", got ",
                   typeName(v->type)));
    return v;
}

void
rejectUnknownKeys(const JsonValue& obj,
                  const std::vector<std::string>& known,
                  const char* where)
{
    for (const auto& [key, value] : obj.object) {
        bool found = false;
        for (const std::string& k : known)
            if (k == key)
                found = true;
        if (!found)
            bad(strCat("unknown key \"", key, "\" in ", where));
    }
}

Scenario
parseScenario(const JsonValue& obj)
{
    rejectUnknownKeys(obj,
                      {"preset", "model", "median_seq_len",
                       "length_sigma", "num_queries", "epochs", "sparse"},
                      "scenario");

    Scenario scenario = Scenario::gsMath();
    if (const JsonValue* preset =
            optional(obj, "preset", JsonValue::Type::String)) {
        if (preset->string == "gs_math")
            scenario = Scenario::gsMath();
        else if (preset->string == "commonsense15k")
            scenario = Scenario::commonsense15k();
        else if (preset->string == "open_orca")
            scenario = Scenario::openOrca();
        else
            bad(strCat("unknown scenario preset \"", preset->string,
                       '"'));
    }
    if (const JsonValue* model =
            optional(obj, "model", JsonValue::Type::String)) {
        if (model->string == "mixtral8x7b")
            scenario.withModel(ModelSpec::mixtral8x7b());
        else if (model->string == "blackmamba2p8b")
            scenario.withModel(ModelSpec::blackMamba2p8b());
        else
            bad(strCat("unknown model \"", model->string, '"'));
    }
    if (const JsonValue* seq =
            optional(obj, "median_seq_len", JsonValue::Type::Number)) {
        if (seq->number < 1.0 ||
            seq->number != std::floor(seq->number))
            bad("\"median_seq_len\" must be a positive integer");
        scenario.withMedianSeqLen(
            static_cast<std::size_t>(seq->number));
    }
    if (const JsonValue* sigma =
            optional(obj, "length_sigma", JsonValue::Type::Number))
        scenario.withLengthSigma(sigma->number);
    if (const JsonValue* queries =
            optional(obj, "num_queries", JsonValue::Type::Number))
        scenario.withNumQueries(queries->number);
    if (const JsonValue* epochs =
            optional(obj, "epochs", JsonValue::Type::Number))
        scenario.withEpochs(epochs->number);
    if (const JsonValue* sparse =
            optional(obj, "sparse", JsonValue::Type::Bool))
        scenario.withSparse(sparse->boolean);

    Result<Scenario> valid = scenario.validated();
    if (!valid)
        bad(valid.error().message);
    return scenario;
}

// ---- Writer helpers --------------------------------------------------

/** Doubles on the wire must round-trip exactly — a re-serialized
 *  request has to keep its canonical (coalescing) identity — so this
 *  is the same %.17g spelling the cache keys use. */
std::string
fmtNumber(double x)
{
    return strExact(x);
}

std::string
escapeJson(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xFF);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quoted(const std::string& s)
{
    return strCat('"', escapeJson(s), '"');
}

/** Protocol spelling of a preset model; empty for foreign specs. */
std::string
modelWireName(const ModelSpec& model)
{
    if (model.fingerprint() == ModelSpec::mixtral8x7b().fingerprint())
        return "mixtral8x7b";
    if (model.fingerprint() ==
        ModelSpec::blackMamba2p8b().fingerprint())
        return "blackmamba2p8b";
    return "";
}

}  // namespace

bool
isLiveKind(QueryKind kind)
{
    return kind == QueryKind::Snapshot || kind == QueryKind::Fleet ||
           kind == QueryKind::LoadSnapshot || kind == QueryKind::Stats;
}

bool
isPerGpuKind(QueryKind kind)
{
    return kind == QueryKind::MaxBatch ||
           kind == QueryKind::Throughput || kind == QueryKind::Report;
}

bool
isBlankLine(const std::string& line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

const char*
queryKindName(QueryKind kind)
{
    switch (kind) {
    case QueryKind::MaxBatch: return "max_batch";
    case QueryKind::Throughput: return "throughput";
    case QueryKind::CostTable: return "cost_table";
    case QueryKind::CheapestPlan: return "cheapest_plan";
    case QueryKind::Report: return "report";
    case QueryKind::Snapshot: return "snapshot";
    case QueryKind::Fleet: return "fleet";
    case QueryKind::LoadSnapshot: return "load_snapshot";
    case QueryKind::Stats: return "stats";
    }
    return "?";
}

Result<QueryKind>
parseQueryKind(const std::string& name)
{
    for (QueryKind kind :
         {QueryKind::MaxBatch, QueryKind::Throughput,
          QueryKind::CostTable, QueryKind::CheapestPlan,
          QueryKind::Report, QueryKind::Snapshot, QueryKind::Fleet,
          QueryKind::LoadSnapshot, QueryKind::Stats})
        if (name == queryKindName(kind))
            return kind;
    return Error{ErrorCode::InvalidArgument,
                 strCat("unknown query kind \"", name, '"')};
}

namespace {

/**
 * Length-prefixed element for key strings: wire names are arbitrary,
 * so a bare join would let "A40,H100" (one name) collide with
 * ["A40","H100"] (two) and coalesce distinct requests onto one
 * cached answer. The prefix makes the framing unambiguous.
 */
std::string
keyElem(const std::string& s)
{
    return strCat(s.size(), ':', s);
}

}  // namespace

std::string
PlanRequest::canonicalKey() const
{
    std::string key = strCat(queryKindName(query),
                             "|gpu=", keyElem(gpu), "|gpus=");
    for (const std::string& g : gpus)
        key += strCat(keyElem(g), ',');
    key += strCat('|', plannerKey());
    return key;
}

std::string
PlanRequest::plannerKey() const
{
    std::string key = strCat(scenario.canonicalKey(), "|rates=");
    for (const CloudOffering& rate : rates)
        key += strCat(keyElem(rate.gpuName), '@',
                      strExact(rate.dollarsPerHour), ';');
    return key;
}

Result<PlanRequest>
parsePlanRequest(const std::string& line)
{
    try {
        JsonParser parser(line);
        const JsonValue doc = parser.parseDocument();
        if (doc.type != JsonValue::Type::Object)
            bad("request must be a JSON object");
        rejectUnknownKeys(doc,
                          {"id", "tenant", "query", "gpu", "gpus",
                           "scenario", "rates", "snapshot"},
                          "request");

        PlanRequest req;
        if (const JsonValue* id =
                optional(doc, "id", JsonValue::Type::String))
            req.id = id->string;

        if (const JsonValue* tenant =
                optional(doc, "tenant", JsonValue::Type::String)) {
            // Empty would silently mean "untenanted" (quota-exempt);
            // make the caller say what they meant.
            if (tenant->string.empty())
                bad("\"tenant\" must not be empty (omit it instead)");
            req.tenant = tenant->string;
        }

        const JsonValue& query =
            require(doc, "query", JsonValue::Type::String);
        Result<QueryKind> kind = parseQueryKind(query.string);
        if (!kind)
            bad(kind.error().message);
        req.query = kind.value();

        if (isLiveKind(req.query)) {
            // Live queries are about the service, not a workload: any
            // of the workload-shaped keys on one is a confused caller.
            for (const char* key :
                 {"tenant", "gpu", "gpus", "scenario", "rates"})
                if (doc.find(key) != nullptr)
                    bad(strCat('"', key,
                               "\" is not valid for query \"",
                               query.string, '"'));
        }

        if (req.query == QueryKind::LoadSnapshot) {
            const JsonValue& payload =
                require(doc, "snapshot", JsonValue::Type::String);
            Result<std::string> raw = base64Decode(payload.string);
            if (!raw)
                bad(raw.error().message);
            req.snapshot = std::move(raw.value());
        } else if (doc.find("snapshot") != nullptr) {
            bad(strCat("\"snapshot\" is not valid for query \"",
                       query.string, '"'));
        }

        if (const JsonValue* gpu =
                optional(doc, "gpu", JsonValue::Type::String)) {
            if (!isPerGpuKind(req.query))
                bad(strCat("\"gpu\" is not valid for query \"",
                           query.string, "\"; use \"gpus\""));
            if (gpu->string.empty())
                bad("\"gpu\" must not be empty");
            req.gpu = gpu->string;
        } else if (isPerGpuKind(req.query)) {
            bad(strCat("query \"", query.string,
                       "\" requires a \"gpu\""));
        }

        if (const JsonValue* gpus =
                optional(doc, "gpus", JsonValue::Type::Array)) {
            if (isPerGpuKind(req.query))
                bad(strCat("\"gpus\" is not valid for query \"",
                           query.string, "\"; use \"gpu\""));
            for (const JsonValue& g : gpus->array) {
                if (g.type != JsonValue::Type::String ||
                    g.string.empty())
                    bad("\"gpus\" entries must be non-empty strings");
                req.gpus.push_back(g.string);
            }
        }

        if (const JsonValue* scenario =
                optional(doc, "scenario", JsonValue::Type::Object))
            req.scenario = parseScenario(*scenario);

        if (const JsonValue* rates =
                optional(doc, "rates", JsonValue::Type::Object)) {
            for (const auto& [name, rate] : rates->object) {
                if (rate.type != JsonValue::Type::Number ||
                    rate.number <= 0.0)
                    bad(strCat("rate for \"", name,
                               "\" must be a positive number"));
                req.rates.push_back({"user", name, rate.number});
            }
        }
        return req;
    } catch (const ParseErr& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad request: ", err.msg)};
    }
}

std::string
writePlanRequest(const PlanRequest& request)
{
    std::string out = "{";
    if (!request.id.empty())
        out += strCat("\"id\":", quoted(request.id), ',');
    if (!request.tenant.empty())
        out += strCat("\"tenant\":", quoted(request.tenant), ',');
    out += strCat("\"query\":", quoted(queryKindName(request.query)));
    if (!request.gpu.empty())
        out += strCat(",\"gpu\":", quoted(request.gpu));
    if (!request.gpus.empty()) {
        out += ",\"gpus\":[";
        for (std::size_t i = 0; i < request.gpus.size(); ++i)
            out += strCat(i ? "," : "", quoted(request.gpus[i]));
        out += "]";
    }
    // Live kinds carry no workload fields; writing the default scenario
    // anyway would produce a line the (strict) parser rejects.
    if (isLiveKind(request.query)) {
        if (request.query == QueryKind::LoadSnapshot)
            out += strCat(",\"snapshot\":",
                          quoted(base64Encode(request.snapshot)));
        out += "}";
        return out;
    }
    // The scenario serializes as explicit scalars (no preset needed:
    // the scalars fully determine it). Only preset models have a wire
    // spelling; a foreign ModelSpec cannot round-trip and is omitted.
    out += ",\"scenario\":{";
    const std::string model = modelWireName(request.scenario.model);
    if (!model.empty())
        out += strCat("\"model\":", quoted(model), ',');
    out += strCat(
        "\"median_seq_len\":", request.scenario.medianSeqLen,
        ",\"length_sigma\":", fmtNumber(request.scenario.lengthSigma),
        ",\"num_queries\":", fmtNumber(request.scenario.numQueries),
        ",\"epochs\":", fmtNumber(request.scenario.epochs),
        ",\"sparse\":", request.scenario.sparse ? "true" : "false",
        "}");
    if (!request.rates.empty()) {
        out += ",\"rates\":{";
        for (std::size_t i = 0; i < request.rates.size(); ++i)
            out += strCat(i ? "," : "", quoted(request.rates[i].gpuName),
                          ':', fmtNumber(request.rates[i].dollarsPerHour));
        out += "}";
    }
    out += "}";
    return out;
}

std::string
writePlanResponse(const PlanResponse& response)
{
    std::string out = "{";
    if (!response.id.empty())
        out += strCat("\"id\":", quoted(response.id), ',');
    out += strCat("\"query\":", quoted(queryKindName(response.query)),
                  ",\"ok\":", response.ok ? "true" : "false");
    if (!response.ok) {
        out += strCat(",\"error\":", quoted(response.errorCode),
                      ",\"message\":", quoted(response.errorMessage),
                      "}");
        return out;
    }
    switch (response.query) {
    case QueryKind::MaxBatch:
    case QueryKind::Throughput:
        out += strCat(",\"value\":", fmtNumber(response.value));
        break;
    case QueryKind::CostTable:
    case QueryKind::CheapestPlan: {
        out += ",\"rows\":[";
        for (std::size_t i = 0; i < response.rows.size(); ++i) {
            const CostRow& row = response.rows[i];
            out += strCat(
                i ? "," : "", "{\"gpu\":", quoted(row.gpuName),
                ",\"mem_gb\":", fmtNumber(row.memGB),
                ",\"max_batch\":", row.maxBatchSize,
                ",\"qps\":", fmtNumber(row.throughputQps),
                ",\"usd_per_hour\":", fmtNumber(row.dollarsPerHour),
                ",\"total_usd\":", fmtNumber(row.totalDollars), "}");
        }
        out += "]";
        break;
    }
    case QueryKind::Report:
        out += strCat(",\"report\":", quoted(response.report));
        break;
    case QueryKind::Snapshot:
        // value = raw byte count, so a client can sanity-check the
        // decode without understanding the payload.
        out += strCat(",\"value\":", fmtNumber(
                          static_cast<double>(response.snapshot.size())),
                      ",\"snapshot\":",
                      quoted(base64Encode(response.snapshot)));
        break;
    case QueryKind::Fleet:
    case QueryKind::LoadSnapshot:
        // fleet: value = steps simulated (the thundering-herd counter
        // the fleet bench asserts over the wire); load_snapshot: value
        // = plans adopted from the payload. report = status text.
        out += strCat(",\"value\":", fmtNumber(response.value),
                      ",\"report\":", quoted(response.report));
        break;
    case QueryKind::Stats:
        // value = entry count; statsJson is already a serialized JSON
        // object (StatsSnapshot::toJson() or the router aggregate) and
        // embeds verbatim so shard payloads forward byte-identically.
        out += strCat(",\"value\":", fmtNumber(response.value),
                      ",\"stats\":",
                      response.statsJson.empty() ? "{}"
                                                 : response.statsJson);
        break;
    }
    out += "}";
    return out;
}

std::string
writeProtocolError(const std::string& id, const std::string& message)
{
    // No "query" field: the line never parsed, so echoing the default
    // kind would mislead clients that dispatch on it.
    std::string out = "{";
    if (!id.empty())
        out += strCat("\"id\":", quoted(id), ',');
    out += strCat("\"ok\":false,\"error\":\"",
                  errorCodeName(ErrorCode::InvalidArgument),
                  "\",\"message\":", quoted(message), "}");
    return out;
}

PlanResponse
errorResponse(const PlanRequest& request, const Error& error)
{
    PlanResponse response;
    response.id = request.id;
    response.query = request.query;
    response.ok = false;
    response.errorCode = errorCodeName(error.code);
    response.errorMessage = error.message;
    return response;
}

}  // namespace ftsim
