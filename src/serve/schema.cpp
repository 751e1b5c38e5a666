#include "serve/schema.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace ftsim {

const char*
queryKindName(QueryKind kind)
{
    return kindSpec(kind).name;
}

Result<QueryKind>
parseQueryKind(const std::string& name)
{
    if (const KindSpec* spec = findRow(kQueryKinds, &KindSpec::name, name))
        return spec->kind;
    return Error{ErrorCode::InvalidArgument,
                 strCat("unknown query kind \"", name, '"')};
}

bool
isLiveKind(QueryKind kind)
{
    return kindSpec(kind).cls == KindClass::Live;
}

bool
isPerGpuKind(QueryKind kind)
{
    return kindSpec(kind).cls == KindClass::PerGpu;
}

void
reject(std::string msg)
{
    throw DecodeError{std::move(msg)};
}

const WireModel*
wireModelOf(const ModelSpec& model)
{
    const std::string fingerprint = model.fingerprint();
    for (const WireModel& wire : kWireModels)
        if (wire.spec().fingerprint() == fingerprint)
            return &wire;
    return nullptr;
}

void
checkRequest(const PlanRequest& request, FieldSet present)
{
    constexpr std::size_t kQueryRow = rowOf(kRequestFields, "query");
    if ((present >> kQueryRow & 1) == 0)
        reject("missing required field \"query\"");
    const KindSet kind = kindBit(request.query);
    const char* name = kindSpec(request.query).name;
    for (std::size_t i = 0; i < std::size(kRequestFields); ++i) {
        const RequestField& field = kRequestFields[i];
        const bool has = (present >> i & 1) != 0;
        if (has && (field.kinds & kind) == 0)
            reject(strCat('"', field.key, "\" is not valid for query \"",
                          name, '"'));
        if (!has && (field.required & kind) != 0)
            reject(strCat("query \"", name, "\" requires a \"",
                          field.key, '"'));
        if (has && field.empty == Empty::Rejected &&
            isEmptyField(request, field))
            reject(strCat('"', field.key, "\" must not be empty"));
    }
    for (const std::string& gpu : request.gpus)
        if (gpu.empty())
            reject("\"gpus\" entries must be non-empty strings");

    std::vector<std::string_view> names;
    for (const CloudOffering& rate : request.rates) {
        if (rate.dollarsPerHour <= 0.0)
            reject(strCat("rate for \"", rate.gpuName,
                          "\" must be a positive number"));
        names.push_back(rate.gpuName);
    }
    // Binary lists rates as pairs and could name a GPU twice; the JSON
    // form of that request would repeat an object key.
    std::sort(names.begin(), names.end());
    const auto dup = std::adjacent_find(names.begin(), names.end());
    if (dup != names.end())
        reject(strCat("duplicate rate for \"", *dup, '"'));

    constexpr std::size_t kScenarioRow = rowOf(kRequestFields, "scenario");
    if ((present >> kScenarioRow & 1) != 0) {
        Result<Scenario> valid = request.scenario.validated();
        if (!valid)
            reject(valid.error().message);
    }
}

void
checkResponse(PlanResponse& response, FieldSet present)
{
    for (std::size_t i = 0; i < std::size(kResponseFields); ++i)
        if ((present >> i & 1) == 0 &&
            (kResponseFields[i].required & kindBit(response.query)) != 0)
            reject(strCat("missing required field \"",
                          kResponseFields[i].key, '"'));
    constexpr std::size_t kValueRow = rowOf(kResponseFields, "value");
    if (response.ok &&
        (kResponseFields[kValueRow].derived & kindBit(response.query)) != 0)
        response.value = derivedValue(response);
}

}  // namespace ftsim
