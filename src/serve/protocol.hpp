#ifndef FTSIM_SERVE_PROTOCOL_HPP
#define FTSIM_SERVE_PROTOCOL_HPP

/**
 * @file
 * The plan-serving wire protocol: line-oriented JSON requests and
 * responses.
 *
 * One request per line, one response per line — the format `ftsim_serve`
 * reads from a file or stdin and the load bench replays. A request names
 * a query kind, the GPU(s) it targets, an optional scenario override,
 * optional extra rental rates, and an optional `tenant` the service
 * bills admission quotas against (see serve/plan_service.hpp; quota
 * overflow answers `ok:false` with the `RateLimited` error code):
 *
 *   {"id":"t1-q1","query":"max_batch","gpu":"A40"}
 *   {"id":"t1-q2","query":"throughput","gpu":"H100",
 *    "scenario":{"preset":"commonsense15k","epochs":3}}
 *   {"id":"t2-q1","query":"cost_table","gpus":["A40","A100-40GB"],
 *    "rates":{"A100-40GB":1.20}}
 *   {"id":"t2-q2","query":"cheapest_plan"}
 *   {"id":"t3-q1","query":"report","gpu":"A40",
 *    "scenario":{"model":"blackmamba2p8b","num_queries":2e6}}
 *
 * Every kind and field is declared once, in serve/schema.hpp, which
 * this JSON codec and the binary one (serve/wire.hpp) both walk;
 * docs/PROTOCOL.md is the normative spec. The parser is hand-rolled
 * and strict: unknown keys, wrong types, missing required fields, and
 * out-of-domain values all come back as `InvalidArgument` — a service
 * must reject, not guess.
 *
 * `rates` entries are added to the service catalog via
 * `CloudCatalog::withRate`, so requests can price GPUs the built-in
 * CUDO *price list* does not know. The GPU must still have a known
 * spec to simulate — today that means the paper presets, of which
 * A100-40GB is the one that ships unpriced; a rate for a spec-less
 * name parses fine but any query targeting it answers `UnknownGpu`.
 */

#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/cost_model.hpp"
#include "core/pipeline_types.hpp"
#include "core/scenario.hpp"

namespace ftsim {

/** The query surface of the plan service. */
enum class QueryKind {
    MaxBatch,      ///< Eq. 1 answer on one GPU -> integer value.
    Throughput,    ///< Queries/second at max batch on one GPU.
    CostTable,     ///< Table IV rows over a GPU list.
    CheapestPlan,  ///< The cheapest CostTable row.
    Report,        ///< Full markdown characterization of one GPU.
    // -- Live fleet introspection (ISSUE-6). Answered from current
    // service state, so never cached or coalesced, and quota-exempt
    // like untenanted traffic. The router intercepts `fleet`; a shard
    // answers both about itself.
    Snapshot,      ///< Binary PlanRegistry snapshot, base64 on the wire.
    Fleet,         ///< Shard/fleet health counters.
    /** Push a PlanRegistry snapshot *into* the service (ISSUE-7): the
     *  router warms a rejoining shard from a survivor's `snapshot`
     *  before its ring points return. Carries the payload in the
     *  request's `snapshot` field (base64 on the wire); hostile bytes
     *  answer the typed errors of gpusim/registry_snapshot.hpp. */
    LoadSnapshot,
    /** Live scrape of the serving stack's StatsRegistry (ISSUE-8):
     *  answers the full counter/gauge/histogram snapshot as a flat
     *  JSON object under `stats`. The router intercepts it and
     *  aggregates every shard's answer under per-shard namespacing. */
    Stats,
};

/** Wire name of a query kind ("max_batch", ...). */
const char* queryKindName(QueryKind kind);

/**
 * True for the live kinds (KindClass::Live in serve/schema.hpp):
 * answered synchronously from live service state, never cached,
 * coalesced, or billed.
 */
bool isLiveKind(QueryKind kind);

/**
 * True for the kinds asked about one GPU (max_batch / throughput /
 * report): they take `gpu`; the others take the `gpus` list.
 */
bool isPerGpuKind(QueryKind kind);

/**
 * True for a line that holds only spaces, tabs and CRs. Blank lines are
 * not requests: every reader of the JSON-lines protocol skips them
 * unanswered.
 */
bool isBlankLine(const std::string& line);

/** Parses a wire name; `InvalidArgument` on an unknown kind. */
Result<QueryKind> parseQueryKind(const std::string& name);

/** One parsed plan query. */
struct PlanRequest {
    /** Client-chosen correlation id, echoed on the response. */
    std::string id;
    /**
     * Tenant the request is billed to; empty = untenanted (exempt from
     * admission quotas). Like the id, the tenant is identity *around*
     * the question, not part of it: requests from different tenants
     * still coalesce onto one execution, and the tenant never appears
     * in canonicalKey() / plannerKey().
     */
    std::string tenant;
    QueryKind query = QueryKind::MaxBatch;
    /** Target GPU name for the per-GPU kinds. */
    std::string gpu;
    /** GPU list for cost_table / cheapest_plan; empty = paper set. */
    std::vector<std::string> gpus;
    /** The run being planned (protocol default: the GS/MATH preset). */
    Scenario scenario = Scenario::gsMath();
    /** Extra rental rates applied on top of the service catalog. */
    std::vector<CloudOffering> rates;
    /** load_snapshot payload, *raw* bytes (base64 on the wire — the
     *  same encoding the snapshot *response* uses). */
    std::string snapshot;

    /**
     * Request identity *excluding* the id and tenant: two tenants
     * asking the same question coalesce onto one execution keyed by
     * this string.
     */
    std::string canonicalKey() const;

    /**
     * The (scenario, rates) part of the identity: requests with equal
     * planner keys share one `Planner` (and its step cache) even when
     * they ask different questions.
     */
    std::string plannerKey() const;
};

/** One answer, mirroring the request's kind. */
struct PlanResponse {
    std::string id;
    QueryKind query = QueryKind::MaxBatch;
    bool ok = false;
    /** errorCodeName() of the failure when !ok. */
    std::string errorCode;
    std::string errorMessage;
    /** max_batch / throughput scalar answer. */
    double value = 0.0;
    /** cost_table rows (cheapest_plan: exactly one). */
    std::vector<CostRow> rows;
    /** report markdown; fleet answers reuse it for their status text. */
    std::string report;
    /** snapshot payload, *raw* bytes (the writer base64-encodes; see
     *  gpusim/registry_snapshot.hpp for the format inside). */
    std::string snapshot;
    /** stats answers: the registry snapshot, pre-serialized as one flat
     *  JSON object (StatsSnapshot::toJson(), or the router's
     *  {"router":{...},"shards":{...}} aggregate). Embedded verbatim by
     *  the writer, so shard payloads forward byte-identically. */
    std::string statsJson;
};

/**
 * Parses one request line. `InvalidArgument` on malformed JSON, unknown
 * keys/kinds, wrong types, or out-of-domain values (batch of the
 * strictness tests in tests/serve/test_protocol.cpp).
 */
Result<PlanRequest> parsePlanRequest(const std::string& line);

/** Serializes a request to its canonical single-line JSON form. */
std::string writePlanRequest(const PlanRequest& request);

/** Serializes a response to one JSON line. */
std::string writePlanResponse(const PlanResponse& response);

/**
 * The response line for input that failed to parse. Unlike
 * writePlanResponse it carries no "query" field — the request kind was
 * never established, so echoing a default would mislead clients that
 * correlate on it. @p id may be empty (an unparsed line usually
 * yielded none).
 */
std::string writeProtocolError(const std::string& id,
                               const std::string& message);

/** Builds the failure response for @p request carrying @p error. */
PlanResponse errorResponse(const PlanRequest& request,
                           const Error& error);

}  // namespace ftsim

#endif  // FTSIM_SERVE_PROTOCOL_HPP
