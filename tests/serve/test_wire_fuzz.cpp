/**
 * @file
 * Deterministic fuzzing for the binary wire codec (ISSUE-10), the
 * binary sibling of test_protocol_fuzz.cpp: a seeded generator mutates
 * valid frames — byte flips, truncation, length-prefix patches, tag
 * sweeps, splices, duplicated spans — and both layers must hold their
 * contracts for every input:
 *
 *  - `WireFramer` never crashes; it yields frames, poisons, or waits
 *    for more bytes. Post-poison it consumes nothing further.
 *  - `decodeWirePayload` returns a decoded message or one typed
 *    `InvalidArgument`; never any other error, crash, or throw.
 *  - Accepted mutants survive a re-encode -> re-decode round trip
 *    with their identity intact (canonical key for requests, the JSON
 *    writer's bytes for responses).
 *
 * Fixed seed + fixed iteration count make this a regression corpus: a
 * failure reproduces by seed and iteration index alone. ci.sh also
 * runs this suite under ASan+UBSan, where "never crash" hardens into
 * "no UB at all".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "net/framing.hpp"
#include "seed_messages.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {
namespace {

/** Valid frames of every message type the mutator starts from, plus
 *  requests at the edge of the shared value rules. */
std::vector<std::string>
seedCorpus()
{
    std::vector<std::string> corpus;
    for (const KindSpec& kind : kQueryKinds) {
        corpus.push_back(encodeRequestFrame(seedRequest(kind.kind)));
        for (bool ok : {true, false})
            corpus.push_back(
                encodeResponseFrame(seedResponse(kind.kind, ok)));
    }
    // A protocol-error frame (the third message type).
    corpus.push_back(
        encodeProtocolErrorFrame("p1", "bad frame: fuzz seed"));

    // The largest median_seq_len JSON holds exactly, one past it, and
    // a GPU named twice in rates (its JSON form repeats an object key).
    // Only the first is valid.
    for (std::uint64_t seq : {kMaxMedianSeqLen, kMaxMedianSeqLen + 1}) {
        PlanRequest req = seedRequest(QueryKind::MaxBatch);
        req.scenario.withMedianSeqLen(seq);
        corpus.push_back(encodeRequestFrame(req));
    }
    PlanRequest twice = seedRequest(QueryKind::CostTable);
    twice.rates = {{"user", "L40S", 1.0}, {"user", "L40S", 2.0}};
    corpus.push_back(encodeRequestFrame(twice));
    return corpus;
}

/** One seeded mutation of the frame bytes. */
std::string
mutate(std::string frame, std::mt19937& rng)
{
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    switch (pick(8)) {
    case 0:  // Truncate at a random byte.
        return frame.substr(0, pick(frame.size() + 1));
    case 1: {  // Flip one byte to an arbitrary value.
        if (frame.empty())
            return frame;
        frame[pick(frame.size())] =
            static_cast<char>(static_cast<unsigned char>(pick(256)));
        return frame;
    }
    case 2: {  // Patch the u32 length prefix (header bytes 4..7).
        if (frame.size() < kWireHeaderBytes)
            return frame;
        static const std::uint32_t lengths[] = {
            0, 1, 2, 0x7fffffffu, 0xffffffffu, 1u << 20, 9, 64,
        };
        const std::uint32_t len = lengths[pick(8)];
        std::memcpy(&frame[4], &len, sizeof(len));
        return frame;
    }
    case 3: {  // Sweep a tag / type byte through small values.
        if (frame.size() <= kWireHeaderBytes)
            return frame;
        const std::size_t pos =
            kWireHeaderBytes +
            pick(frame.size() - kWireHeaderBytes);
        frame[pos] = static_cast<char>(pick(16));
        return frame;
    }
    case 4: {  // Duplicate a random span in place.
        if (frame.empty())
            return frame;
        const std::size_t start = pick(frame.size());
        const std::size_t len = pick(frame.size() - start) + 1;
        return frame.insert(start, frame.substr(start, len));
    }
    case 5: {  // Delete a random span (length prefix goes stale).
        if (frame.empty())
            return frame;
        const std::size_t start = pick(frame.size());
        frame.erase(start, pick(frame.size() - start) + 1);
        return frame;
    }
    case 6: {  // Append arbitrary trailing bytes.
        const std::size_t extra = pick(16) + 1;
        for (std::size_t i = 0; i < extra; ++i)
            frame.push_back(static_cast<char>(
                static_cast<unsigned char>(pick(256))));
        return frame;
    }
    default:  // Concatenate with itself (back-to-back frames).
        return frame + frame;
    }
}

constexpr int kIterations = 12000;

/** Mutant @p i of the corpus: 1-3 stacked mutations of a seed frame. */
std::string
mutant(const std::vector<std::string>& corpus, int i, std::mt19937& rng)
{
    std::string bytes = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r)
        bytes = mutate(std::move(bytes), rng);
    return bytes;
}

/** Feeds @p bytes through a fresh framer and returns every payload it
 *  yields as a *binary* frame (JSON lines the mutant happens to form
 *  are the line parser's problem, fuzzed elsewhere). */
std::vector<std::string>
frameOut(const std::string& bytes)
{
    WireFramer framer(1 << 20);
    framer.feed(bytes.data(), bytes.size());
    std::vector<std::string> payloads;
    WireFramer::Frame frame;
    while (framer.next(frame))
        if (frame.binary)
            payloads.push_back(std::move(frame.payload));
    if (framer.poisoned())
        EXPECT_FALSE(framer.poisonReason().empty());
    return payloads;
}

TEST(WireFuzz, FramerAndDecoderNeverCrashAndErrorsAreTyped)
{
    const std::vector<std::string> corpus = seedCorpus();
    std::mt19937 rng(20260809);  // Fixed seed: a corpus, not a dice roll.

    int accepted = 0, rejected = 0, framed = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string bytes = mutant(corpus, i, rng);
        for (const std::string& payload : frameOut(bytes)) {
            ++framed;
            Result<WireMessage> decoded = decodeWirePayload(payload);
            if (!decoded.ok()) {
                // The whole contract for bad input: one typed error.
                ASSERT_EQ(decoded.code(), ErrorCode::InvalidArgument)
                    << "iteration " << i;
                ++rejected;
                continue;
            }
            ++accepted;
            // Accepted mutants must round-trip with identity intact.
            const WireMessage& msg = decoded.value();
            std::string reencoded;
            if (msg.type == WireMsg::Request)
                reencoded = encodeRequestFrame(msg.request);
            else if (msg.type == WireMsg::Response)
                reencoded = encodeResponseFrame(msg.response);
            else
                reencoded = encodeProtocolErrorFrame(
                    msg.errorId, msg.errorMessage);
            Result<WireMessage> redecoded = decodeWirePayload(
                reencoded.substr(kWireHeaderBytes));
            ASSERT_TRUE(redecoded.ok())
                << "iteration " << i << ": accepted a frame but "
                << "rejected its own re-encode: "
                << redecoded.error().describe();
            ASSERT_EQ(redecoded.value().type, msg.type)
                << "iteration " << i;
            if (msg.type == WireMsg::Request)
                ASSERT_EQ(redecoded.value().request.canonicalKey(),
                          msg.request.canonicalKey())
                    << "iteration " << i;
            else if (msg.type == WireMsg::Response)
                ASSERT_EQ(
                    writePlanResponse(redecoded.value().response),
                    writePlanResponse(msg.response))
                    << "iteration " << i;
            else
                ASSERT_EQ(redecoded.value().errorMessage,
                          msg.errorMessage)
                    << "iteration " << i;
        }
    }

    // The generator must actually exercise every side of the contract;
    // if any count collapses to ~zero the fuzz has gone blind.
    EXPECT_GT(framed, 1000);
    EXPECT_GT(rejected, 500);
    EXPECT_GT(accepted, 100);
}

/**
 * The cross-codec differential, binary side (the JSON side is in
 * test_protocol_fuzz.cpp): every request frame the binary decoder
 * accepts, seeds and mutants alike, must write a JSON line the JSON
 * parser accepts with the same identity.
 */
TEST(ProtocolCrossCodec, BinaryRequestsSurviveTheJsonCodec)
{
    const std::vector<std::string> corpus = seedCorpus();
    std::vector<std::string> inputs = corpus;
    std::mt19937 rng(20260809);
    for (int i = 0; i < kIterations; ++i)
        inputs.push_back(mutant(corpus, i, rng));

    int accepted = 0;
    for (const std::string& bytes : inputs) {
        for (const std::string& payload : frameOut(bytes)) {
            Result<WireMessage> decoded = decodeWirePayload(payload);
            if (!decoded.ok() || decoded.value().type != WireMsg::Request)
                continue;
            ++accepted;
            const PlanRequest& req = decoded.value().request;
            const std::string line = writePlanRequest(req);
            Result<PlanRequest> parsed = parsePlanRequest(line);
            ASSERT_TRUE(parsed.ok())
                << line << ": " << parsed.error().describe();
            ASSERT_EQ(parsed.value().canonicalKey(), req.canonicalKey())
                << line;
        }
    }
    EXPECT_GT(accepted, 100);
}

/** Every kind and outcome writes the same JSON line whether or not the
 *  response crossed the binary codec first. */
TEST(ProtocolCrossCodec, ResponsesMatchAfterABinaryRoundTrip)
{
    for (const KindSpec& kind : kQueryKinds) {
        for (bool ok : {true, false}) {
            const PlanResponse original = seedResponse(kind.kind, ok);
            const std::string frame = encodeResponseFrame(original);
            Result<WireMessage> decoded = decodeWirePayload(
                std::string_view(frame).substr(kWireHeaderBytes));
            ASSERT_TRUE(decoded.ok())
                << kind.name << ": " << decoded.error().describe();
            EXPECT_EQ(writePlanResponse(decoded.value().response),
                      writePlanResponse(original))
                << kind.name << (ok ? " ok" : " error");
        }
    }
}

TEST(WireFuzz, SplitPointsNeverChangeTheOutcome)
{
    // Reassembly must be byte-stream-shape independent: feeding a
    // mutant in two arbitrary chunks yields the same frames (or the
    // same poison) as feeding it whole.
    const std::vector<std::string> corpus = seedCorpus();
    std::mt19937 rng(20260810);

    for (int i = 0; i < 600; ++i) {
        std::string bytes = corpus[static_cast<std::size_t>(i) %
                                   corpus.size()];
        bytes = mutate(std::move(bytes), rng);
        if (bytes.empty())
            continue;

        const std::vector<std::string> whole = frameOut(bytes);

        const std::size_t cut =
            std::uniform_int_distribution<std::size_t>(
                0, bytes.size())(rng);
        WireFramer framer(1 << 20);
        framer.feed(bytes.data(), cut);
        framer.feed(bytes.data() + cut, bytes.size() - cut);
        std::vector<std::string> split;
        WireFramer::Frame frame;
        while (framer.next(frame))
            if (frame.binary)
                split.push_back(std::move(frame.payload));

        ASSERT_EQ(split, whole)
            << "iteration " << i << " cut at " << cut;
    }
}

TEST(WireFuzz, PathologicalShapesAreHandledQuickly)
{
    // Hand-picked nasties a random walk might miss. Each must resolve
    // (frame, poison, or typed error) without crash or quadratic blowup.
    const std::string magic(1, static_cast<char>(kWireMagic));
    const std::string bombs[] = {
        std::string(1 << 20, static_cast<char>(kWireMagic)),
        magic + std::string(1 << 20, '\0'),
        // A maximal in-cap length prefix with no payload behind it.
        wireFrame("x").substr(0, kWireHeaderBytes),
        // A huge string-length prefix inside a tiny payload.
        wireFrame(std::string("\x01\x02\xff\xff\xff\xff", 6)),
        // Deep tag soup: every byte is a plausible small tag.
        wireFrame(std::string(1 << 16, '\x01')),
    };
    for (const std::string& bomb : bombs) {
        for (const std::string& payload : frameOut(bomb)) {
            Result<WireMessage> decoded = decodeWirePayload(payload);
            if (!decoded.ok())
                EXPECT_EQ(decoded.code(), ErrorCode::InvalidArgument);
        }
    }
}

}  // namespace
}  // namespace ftsim
