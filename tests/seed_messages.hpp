#ifndef FTSIM_TESTS_SEED_MESSAGES_HPP
#define FTSIM_TESTS_SEED_MESSAGES_HPP

/**
 * @file
 * Valid seed messages for the codec fuzzers, built from the protocol
 * schema (serve/schema.hpp) instead of a hand-written copy of its kind
 * rules: a seed of kind K carries exactly the fields the schema
 * selects for K, each with a sample value.
 */

#include <string>
#include <variant>

#include "serve/schema.hpp"

namespace ftsim {

inline PlanRequest
seedRequest(QueryKind kind)
{
    PlanRequest full;
    full.query = kind;
    full.id = "fuzz";
    full.tenant = "fuzz-tenant";
    full.gpu = "A40";
    full.gpus = {"A40", "H100"};
    full.scenario = Scenario::gsMath()
                        .withMedianSeqLen(256)
                        .withLengthSigma(0.45)
                        .withNumQueries(2.0e6)
                        .withEpochs(3.0);
    full.rates = {{"user", "L40S", 1.05}};
    full.snapshot = std::string("raw\0bytes\xff", 10);
    PlanRequest seed;
    for (const RequestField& field : kRequestFields)
        if ((field.kinds & kindBit(kind)) != 0)
            std::visit([&](auto m) { seed.*m = full.*m; }, field.member);
    return seed;
}

inline PlanResponse
seedResponse(QueryKind kind, bool ok)
{
    PlanResponse full;
    full.query = kind;
    full.ok = ok;
    full.id = "r1";
    full.errorCode = "UnknownGpu";
    full.errorMessage = "no GPU named \"B300\"";
    full.value = 171.03534942734618;
    full.rows = {{"A40", 44.98, 12, 101.5, 1.28, 543.21},
                 {"H100", 79.0, 31, 402.125, 4.76, 98.0625}};
    full.report = "line one\nline \"two\"\n\ttabbed";
    full.snapshot = std::string("bin\0\x01\xfe", 6);
    full.statsJson = "{\"net.requests\":17}";
    PlanResponse seed;
    for (const ResponseField& field : kResponseFields)
        if (emits(field, full, ok))
            std::visit([&](auto m) { seed.*m = full.*m; }, field.member);
    return seed;
}

}  // namespace ftsim

#endif  // FTSIM_TESTS_SEED_MESSAGES_HPP
