#include "serve/protocol.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/base64.hpp"
#include "common/logging.hpp"
#include "serve/schema.hpp"

namespace ftsim {

namespace {

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

// ---- Recursive-descent parser ----------------------------------------

class JsonParser {
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != s_.size())
            reject(strCat("trailing characters at offset ", pos_));
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
            reject("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            reject(strCat("expected '", c, "' at offset ", pos_));
        ++pos_;
    }

    bool consumeLiteral(const char* lit)
    {
        const std::size_t n = std::strlen(lit);
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
                reject(strCat("nesting deeper than ", kMaxDepth));
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
                reject(strCat("duplicate key \"", key, '"'));
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
                reject("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                reject("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                reject("unterminated escape");
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
            default: reject(strCat("bad escape '\\", e, "'"));
            }
        }
    }

    /** Reads exactly four hex digits of a \u escape. */
    unsigned parseHex4()
    {
        if (pos_ + 4 > s_.size())
            reject("truncated \\u escape");
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
                reject("non-hex digit in \\u escape");
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
            reject("lone low surrogate in \\u escape");
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u')
                reject("unpaired high surrogate in \\u escape");
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                reject("unpaired high surrogate in \\u escape");
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
        // spellings strExact never emits and strict JSON rejects.
        const std::size_t start = pos_;
        const auto isDigit = [this](std::size_t p) {
            return p < s_.size() && s_[p] >= '0' && s_[p] <= '9';
        };
        if (peek() == '-')
            ++pos_;
        if (!isDigit(pos_))
            reject(strCat("unexpected character '",
                       pos_ < s_.size() ? s_[pos_] : s_[start],
                       "' at offset ", start));
        if (s_[pos_] == '0') {
            ++pos_;
            if (isDigit(pos_))
                reject(strCat("leading zero in number at offset ", start));
        } else {
            while (isDigit(pos_))
                ++pos_;
        }
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!isDigit(pos_))
                reject(strCat("digit required after decimal point at "
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
                reject(strCat("digit required in exponent at offset ",
                           start));
            while (isDigit(pos_))
                ++pos_;
        }
        const std::string text = s_.substr(start, pos_ - start);
        char* end = nullptr;
        const double num = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || !std::isfinite(num))
            reject(strCat("bad number \"", text, '"'));
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

const JsonValue&
expect(const JsonValue& value, JsonValue::Type type, const char* key)
{
    static const char* const kTypeNames[] = {"null",   "bool",  "number",
                                             "string", "array", "object"};
    if (value.type != type)
        reject(strCat('"', key, "\" must be a ",
                      kTypeNames[static_cast<int>(type)], ", got ",
                      kTypeNames[static_cast<int>(value.type)]));
    return value;
}

Scenario
parseScenario(const JsonValue& obj)
{
    // Overrides apply on top of the preset, whatever the key order.
    Scenario scenario = Scenario::gsMath();
    if (const JsonValue* preset = obj.find("preset")) {
        const std::string& name =
            expect(*preset, JsonValue::Type::String, "preset").string;
        if (name == "commonsense15k")
            scenario = Scenario::commonsense15k();
        else if (name == "open_orca")
            scenario = Scenario::openOrca();
        else if (name != "gs_math")
            reject(strCat("unknown scenario preset \"", name, '"'));
    }
    using Type = JsonValue::Type;
    for (const auto& [key, value] : obj.object) {
        const char* k = key.c_str();
        if (key == "model") {
            const std::string& name = expect(value, Type::String, k).string;
            const WireModel* model =
                findRow(kWireModels, &WireModel::name, name);
            if (model == nullptr)
                reject(strCat("unknown model \"", name, '"'));
            scenario.withModel(model->spec());
        } else if (key == "median_seq_len") {
            scenario.withMedianSeqLen(
                medianSeqLenOf(expect(value, Type::Number, k).number));
        } else if (key == "length_sigma") {
            scenario.withLengthSigma(expect(value, Type::Number, k).number);
        } else if (key == "num_queries") {
            scenario.withNumQueries(expect(value, Type::Number, k).number);
        } else if (key == "epochs") {
            scenario.withEpochs(expect(value, Type::Number, k).number);
        } else if (key == "sparse") {
            scenario.withSparse(expect(value, Type::Bool, k).boolean);
        } else if (key != "preset") {
            reject(strCat("unknown key \"", key, "\" in scenario"));
        }
    }
    return scenario;
}

void
read(const JsonValue& value, QueryKind& kind, const RequestField& field)
{
    Result<QueryKind> parsed = parseQueryKind(
        expect(value, JsonValue::Type::String, field.key).string);
    if (!parsed)
        reject(parsed.error().message);
    kind = parsed.value();
}

void
read(const JsonValue& value, std::string& text, const RequestField& field)
{
    const std::string& s =
        expect(value, JsonValue::Type::String, field.key).string;
    if (field.spelling != Spelling::Base64) {
        text = s;
        return;
    }
    Result<std::string> raw = base64Decode(s);
    if (!raw)
        reject(raw.error().message);
    text = std::move(raw.value());
}

void
read(const JsonValue& value, std::vector<std::string>& list,
     const RequestField& field)
{
    for (const JsonValue& entry :
         expect(value, JsonValue::Type::Array, field.key).array) {
        if (entry.type != JsonValue::Type::String)
            reject(strCat('"', field.key, "\" entries must be strings"));
        list.push_back(entry.string);
    }
}

void
read(const JsonValue& value, Scenario& scenario, const RequestField& field)
{
    scenario =
        parseScenario(expect(value, JsonValue::Type::Object, field.key));
}

void
read(const JsonValue& value, std::vector<CloudOffering>& rates,
     const RequestField& field)
{
    for (const auto& [name, rate] :
         expect(value, JsonValue::Type::Object, field.key).object) {
        if (rate.type != JsonValue::Type::Number)
            reject(strCat("rate for \"", name, "\" must be a number"));
        rates.push_back({"user", name, rate.number});
    }
}

/** Appends @p s as a quoted JSON string. */
void
escapeJson(std::string& out, std::string_view s)
{
    out += '"';
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
    out += '"';
}

/** Doubles on the wire must round-trip exactly — a re-serialized
 *  request has to keep its canonical (coalescing) identity — so this
 *  is the same %.17g spelling the cache keys use. */
void
put(std::string& out, double x, Spelling)
{
    strAppend(out, Exact{x});
}

void
put(std::string& out, QueryKind kind, Spelling)
{
    escapeJson(out, kindSpec(kind).name);
}

void
put(std::string& out, bool b, Spelling)
{
    out += b ? "true" : "false";
}

void
put(std::string& out, const std::string& s, Spelling spelling)
{
    switch (spelling) {
    case Spelling::Text: escapeJson(out, s); break;
    case Spelling::Base64: escapeJson(out, base64Encode(s)); break;
    case Spelling::Json: out += s.empty() ? "{}" : s; break;
    }
}

void
put(std::string& out, const std::vector<std::string>& list, Spelling)
{
    out += '[';
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0)
            out += ',';
        escapeJson(out, list[i]);
    }
    out += ']';
}

void
put(std::string& out, const Scenario& scenario, Spelling)
{
    // Explicit scalars, no preset: the scalars fully determine the
    // scenario. A foreign ModelSpec has no wire spelling and is omitted.
    out += '{';
    if (const WireModel* model = wireModelOf(scenario.model))
        strAppend(out, "\"model\":\"", model->name, "\",");
    strAppend(out, "\"median_seq_len\":", scenario.medianSeqLen,
              ",\"length_sigma\":", Exact{scenario.lengthSigma},
              ",\"num_queries\":", Exact{scenario.numQueries},
              ",\"epochs\":", Exact{scenario.epochs},
              ",\"sparse\":", scenario.sparse ? "true" : "false", '}');
}

void
put(std::string& out, const std::vector<CloudOffering>& rates, Spelling)
{
    out += '{';
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (i > 0)
            out += ',';
        escapeJson(out, rates[i].gpuName);
        out += ':';
        put(out, rates[i].dollarsPerHour, Spelling::Text);
    }
    out += '}';
}

void
put(std::string& out, const std::vector<CostRow>& rows, Spelling)
{
    out += '[';
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CostRow& row = rows[i];
        out += i > 0 ? ",{\"gpu\":" : "{\"gpu\":";
        escapeJson(out, row.gpuName);
        strAppend(out, ",\"mem_gb\":", Exact{row.memGB},
                  ",\"max_batch\":", row.maxBatchSize,
                  ",\"qps\":", Exact{row.throughputQps},
                  ",\"usd_per_hour\":", Exact{row.dollarsPerHour},
                  ",\"total_usd\":", Exact{row.totalDollars}, '}');
    }
    out += ']';
}

/** The encoding walker: the fields @p kTable selects for the message's
 *  kind and outcome, among @p rows, in table order. */
template <const auto& kTable, class Msg>
std::string
writeFields(const Msg& msg, bool ok, FieldSet rows = ~FieldSet{0})
{
    std::string out = "{";
    for (std::size_t i = 0; i < std::size(kTable); ++i) {
        const auto& field = kTable[i];
        if ((rows >> i & 1) == 0 || !emits(field, msg, ok))
            continue;
        if (out.size() > 1)
            out += ',';
        out += '"';
        out += field.key;
        out += "\":";
        if ((field.derived & kindBit(msg.query)) != 0)
            put(out, derivedValue(msg), field.spelling);
        else
            std::visit([&](auto m) { put(out, msg.*m, field.spelling); },
                       field.member);
    }
    out += '}';
    return out;
}

/**
 * Length-prefixed element for key strings: wire names are arbitrary,
 * so a bare join would let "A40,H100" (one name) collide with
 * ["A40","H100"] (two) and coalesce distinct requests onto one
 * cached answer. The prefix makes the framing unambiguous.
 */
void
appendKeyElem(std::string& key, const std::string& s)
{
    strAppend(key, s.size(), ':', s);
}

/** Appends PlanRequest::plannerKey() of @p request to @p key. */
void
appendPlannerKey(std::string& key, const PlanRequest& request)
{
    request.scenario.appendCanonicalKey(key);
    key += "|rates=";
    for (const CloudOffering& rate : request.rates) {
        appendKeyElem(key, rate.gpuName);
        strAppend(key, '@', Exact{rate.dollarsPerHour}, ';');
    }
}

/** Room for a typical request key (about 250 bytes), so building one
 *  allocates once. */
constexpr std::size_t kKeyReserve = 384;

}  // namespace

bool
isBlankLine(const std::string& line)
{
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

std::string
PlanRequest::canonicalKey() const
{
    std::string key;
    key.reserve(kKeyReserve);
    strAppend(key, queryKindName(query), "|gpu=");
    appendKeyElem(key, gpu);
    key += "|gpus=";
    for (const std::string& g : gpus) {
        appendKeyElem(key, g);
        key += ',';
    }
    key += '|';
    appendPlannerKey(key, *this);
    return key;
}

std::string
PlanRequest::plannerKey() const
{
    std::string key;
    key.reserve(kKeyReserve);
    appendPlannerKey(key, *this);
    return key;
}

Result<PlanRequest>
parsePlanRequest(const std::string& line)
{
    try {
        const JsonValue doc = JsonParser(line).parseDocument();
        if (doc.type != JsonValue::Type::Object)
            reject("request must be a JSON object");
        PlanRequest req;
        FieldSet present = 0;
        for (const auto& [key, value] : doc.object) {
            const std::size_t row = rowOf(kRequestFields, key);
            if (row == std::size(kRequestFields))
                reject(strCat("unknown key \"", key, "\" in request"));
            const RequestField& field = kRequestFields[row];
            std::visit([&](auto m) { read(value, req.*m, field); },
                       field.member);
            present |= FieldSet{1} << row;
        }
        checkRequest(req, present);
        return req;
    } catch (const DecodeError& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad request: ", err.msg)};
    }
}

std::string
writePlanRequest(const PlanRequest& request)
{
    return writeFields<kRequestFields>(request, true);
}

std::string
writePlanResponse(const PlanResponse& response)
{
    return writeFields<kResponseFields>(response, response.ok);
}

std::string
writeProtocolError(const std::string& id, const std::string& message)
{
    // No "query" field: the line never parsed, so echoing the default
    // kind would mislead clients that dispatch on it.
    PlanResponse response;
    response.id = id;
    response.errorCode = errorCodeName(ErrorCode::InvalidArgument);
    response.errorMessage = message;
    constexpr std::size_t kQueryRow = rowOf(kResponseFields, "query");
    return writeFields<kResponseFields>(response, false,
                                        ~(FieldSet{1} << kQueryRow));
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
