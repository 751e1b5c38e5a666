/**
 * @file
 * Deterministic protocol fuzzing (ISSUE-4): a seeded generator mutates
 * valid request lines — truncation, byte flips, insertions, duplicated
 * spans, bracket nesting, huge numbers, duplicate keys, concatenation —
 * and the parser must hold its contract for every single input:
 * return a valid request or a typed `InvalidArgument`, never crash,
 * never throw anything else, never hang. Accepted mutants must also
 * survive a write -> reparse round-trip with their coalescing identity
 * intact (a mutated line the service would cache under one key must
 * re-serialize to the same key).
 *
 * The iteration count (>= 10k) and the fixed seed make this a
 * regression corpus, not a flaky search: every run explores the same
 * inputs, so a failure reproduces by seed + iteration index alone.
 * ci.sh also runs this suite under ASan+UBSan, where "never crash"
 * hardens into "no UB at all".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "seed_messages.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {
namespace {

/** The valid lines mutation starts from. */
std::vector<std::string>
seedCorpus()
{
    std::vector<std::string> corpus = {
        R"({"id":"t1-q1","query":"max_batch","gpu":"A40"})",
        R"({"id":"t1-q2","query":"throughput","gpu":"H100",)"
        R"("scenario":{"preset":"commonsense15k","epochs":3}})",
        R"({"id":"t2-q1","query":"cost_table",)"
        R"("gpus":["A40","A100-40GB"],"rates":{"A100-40GB":1.20}})",
        R"({"id":"t2-q2","query":"cheapest_plan"})",
        R"({"id":"t3-q1","query":"report","gpu":"A40",)"
        R"("scenario":{"model":"blackmamba2p8b","num_queries":2e6}})",
        R"({"tenant":"acme","query":"throughput","gpu":"A40",)"
        R"("scenario":{"median_seq_len":256,"length_sigma":0.45,)"
        R"("sparse":false}})",
        // The live scrape (ISSUE-8): mutants graft scenario/gpu/
        // snapshot keys onto it, which the parser must reject.
        R"({"id":"s1","query":"stats"})",
        // Astral-plane and surrogate seeds (ISSUE-9): a valid pair
        // (U+1F600), a lone high surrogate, a lone low surrogate, and
        // lax number spellings. The first must parse and round-trip
        // its 4-byte UTF-8 identity; the rest are typed errors the
        // mutator then explores around.
        R"({"id":"\uD83D\uDE00","query":"max_batch","gpu":"A40"})",
        R"({"id":"\uDBFF\uDFFF x \u0041","query":"cheapest_plan"})",
        R"({"id":"\uD800","query":"max_batch","gpu":"A40"})",
        R"({"id":"\uDC00","query":"max_batch","gpu":"A40"})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":+5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":.5}})",
        // The median_seq_len range: 2^53 is the largest value a JSON
        // number holds exactly; 1e300 is far outside any integer type.
        R"({"query":"max_batch","gpu":"A40",)"
        R"("scenario":{"median_seq_len":9007199254740992}})",
        R"({"query":"max_batch","gpu":"A40",)"
        R"("scenario":{"median_seq_len":1e300}})",
    };
    // Plus the writer's own spelling of every request kind.
    for (const KindSpec& kind : kQueryKinds)
        corpus.push_back(writePlanRequest(seedRequest(kind.kind)));
    return corpus;
}

/** One seeded mutation of @p line. */
std::string
mutate(std::string line, std::mt19937& rng)
{
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    switch (pick(9)) {
    case 0:  // Truncate at a random byte.
        return line.substr(0, pick(line.size() + 1));
    case 1: {  // Flip one byte to an arbitrary value.
        if (line.empty())
            return line;
        line[pick(line.size())] =
            static_cast<char>(static_cast<unsigned char>(pick(256)));
        return line;
    }
    case 2: {  // Insert an arbitrary byte.
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                       pick(line.size() + 1)),
                    static_cast<char>(static_cast<unsigned char>(
                        pick(256))));
        return line;
    }
    case 3: {  // Duplicate a random span in place.
        if (line.empty())
            return line;
        const std::size_t start = pick(line.size());
        const std::size_t len = pick(line.size() - start) + 1;
        return line.insert(start, line.substr(start, len));
    }
    case 4: {  // Wrap in nesting (sometimes deep enough to bomb).
        const std::size_t depth = pick(2) == 0 ? pick(8) : 200;
        std::string out;
        for (std::size_t i = 0; i < depth; ++i)
            out += '[';
        out += line;
        for (std::size_t i = 0; i < depth; ++i)
            out += ']';
        return out;
    }
    case 5: {  // Replace a span with a huge / degenerate number.
        static const char* numbers[] = {
            "1e309",  "-1e309", "1e-400", "9999999999999999999999",
            "-0.0",   "1e99999", "0x10",  "1..2",
            "--5",    "1e+",     "NaN",   "Infinity",
            "+5",     ".5",      "5.",    "01",
        };
        const std::string number = numbers[pick(16)];
        if (line.empty())
            return number;
        const std::size_t start = pick(line.size());
        return line.replace(start,
                            pick(line.size() - start) + 1, number);
    }
    case 6: {  // Inject a duplicate of an existing key.
        const std::size_t brace = line.find('{');
        if (brace == std::string::npos || brace + 1 >= line.size())
            return line + line;
        static const char* keys[] = {
            R"("query":"max_batch",)", R"("id":"dup",)",
            R"("gpu":"A40",)",         R"("tenant":"dup",)",
        };
        return line.insert(brace + 1, keys[pick(4)]);
    }
    case 7: {  // Inject a \u escape (pairs, lone surrogates, junk).
        static const char* escapes[] = {
            "\\uD83D\\uDE00", "\\uD800",  "\\uDC00", "\\uDBFF\\uDFFF",
            "\\u0041",       "\\u00e9",  "\\uFFFF", "\\uD83D\\u0041",
            "\\uEFFF",       "\\uD8ZZ",
        };
        line.insert(pick(line.size() + 1), escapes[pick(10)]);
        return line;
    }
    default:  // Concatenate with itself (trailing-garbage shape).
        return line + " " + line;
    }
}

constexpr int kIterations = 12000;

/** Mutant @p i of the corpus: 1-3 stacked mutations of a seed line. */
std::string
mutant(const std::vector<std::string>& corpus, int i, std::mt19937& rng)
{
    std::string line = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r)
        line = mutate(std::move(line), rng);
    return line;
}

TEST(ProtocolFuzz, ParserNeverCrashesAndErrorsAreTyped)
{
    const std::vector<std::string> corpus = seedCorpus();
    std::mt19937 rng(20260730);  // Fixed seed: a corpus, not a dice roll.

    int accepted = 0, rejected = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string line = mutant(corpus, i, rng);
        Result<PlanRequest> parsed = parsePlanRequest(line);
        if (!parsed.ok()) {
            // The whole contract for bad input: one typed error.
            ASSERT_EQ(parsed.code(), ErrorCode::InvalidArgument)
                << "iteration " << i << ": " << line;
            ++rejected;
            continue;
        }
        ++accepted;
        // Accepted mutants must round-trip with identity intact.
        const std::string rewritten =
            writePlanRequest(parsed.value());
        Result<PlanRequest> reparsed = parsePlanRequest(rewritten);
        ASSERT_TRUE(reparsed.ok())
            << "iteration " << i << ": accepted \"" << line
            << "\" but rejected its own rewrite \"" << rewritten
            << "\": " << reparsed.error().describe();
        ASSERT_EQ(reparsed.value().canonicalKey(),
                  parsed.value().canonicalKey())
            << "iteration " << i << ": " << line;
    }

    // The generator must actually exercise both sides of the contract;
    // if either count collapses to ~zero the fuzz has gone blind.
    EXPECT_GT(rejected, kIterations / 2);
    EXPECT_GT(accepted, 100);
}

/**
 * The cross-codec differential: every request the JSON parser accepts,
 * seeds and mutants alike, must cross the binary codec unchanged in
 * identity and in its JSON form. Its twin in test_wire_fuzz.cpp runs
 * the binary corpus the other way.
 */
TEST(ProtocolCrossCodec, JsonRequestsSurviveTheBinaryCodec)
{
    const std::vector<std::string> corpus = seedCorpus();
    std::vector<std::string> lines = corpus;
    std::mt19937 rng(20260730);
    for (int i = 0; i < kIterations; ++i)
        lines.push_back(mutant(corpus, i, rng));

    int accepted = 0;
    for (const std::string& line : lines) {
        Result<PlanRequest> parsed = parsePlanRequest(line);
        if (!parsed.ok())
            continue;
        ++accepted;
        const std::string frame = encodeRequestFrame(parsed.value());
        Result<WireMessage> decoded = decodeWirePayload(
            std::string_view(frame).substr(kWireHeaderBytes));
        ASSERT_TRUE(decoded.ok())
            << line << ": " << decoded.error().describe();
        ASSERT_EQ(decoded.value().type, WireMsg::Request) << line;
        const PlanRequest& crossed = decoded.value().request;
        ASSERT_EQ(crossed.canonicalKey(), parsed.value().canonicalKey())
            << line;
        ASSERT_EQ(writePlanRequest(crossed),
                  writePlanRequest(parsed.value()))
            << line;
    }
    EXPECT_GT(accepted, 100);
}

TEST(ProtocolFuzz, PathologicalShapesAreRejectedQuickly)
{
    // Hand-picked nasties that a random walk might miss.
    const std::string bombs[] = {
        std::string(1 << 20, '['),
        std::string(1 << 20, '{'),
        "{" + std::string(1 << 20, '"'),
        std::string(1 << 20, '-'),
        "{\"query\":\"max_batch\",\"gpu\":\"" +
            std::string(1 << 20, 'A') + "\"}",
        "{\"query\":\"max_batch\",\"gpu\":\"A40\",\"scenario\":" +
            std::string(200, '{') + std::string(200, '}') + "}",
    };
    for (const std::string& bomb : bombs) {
        Result<PlanRequest> parsed = parsePlanRequest(bomb);
        if (!parsed.ok())
            EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument);
    }
    // A megabyte-long *valid* gpu name parses fine (strictness is
    // about shape, not size) — it would just answer UnknownGpu later.
    Result<PlanRequest> huge = parsePlanRequest(
        "{\"query\":\"max_batch\",\"gpu\":\"" +
        std::string(1 << 20, 'A') + "\"}");
    EXPECT_TRUE(huge.ok());
}

}  // namespace
}  // namespace ftsim
