#ifndef FTSIM_SERVE_WIRE_HPP
#define FTSIM_SERVE_WIRE_HPP

/**
 * @file
 * The negotiated binary wire format — the compact sibling of the
 * JSON-lines protocol in serve/protocol.hpp.
 *
 * A binary *frame* is an 8-byte header followed by a payload:
 *
 *   offset  size  field
 *   0       1     magic 0xF7 (never the first byte of a JSON line)
 *   1       2     magic "FT" (0x46 0x54)
 *   3       1     version (0x01)
 *   4       4     payload length, u32 little-endian (1 .. cap)
 *   8       len   payload
 *
 * Negotiation is per-frame first-byte dispatch: 0xF7 cannot begin a
 * JSON request line (strict JSON starts with '{', whitespace, or other
 * ASCII), so the first byte of each frame selects the codec and the
 * first byte of a connection doubles as its handshake. A response is
 * always encoded in its request's format, which keeps pipelined
 * request-order write-back format-correct and lets the router forward
 * mixed traffic byte-verbatim over one shard connection.
 *
 * The payload starts with a message-type byte (`WireMsg`) followed by
 * tag-encoded fields in strictly ascending tag order; the tags are
 * declared with the JSON keys in serve/schema.hpp. Primitives:
 * strings are u32-LE length + raw bytes (snapshots ride as raw binary,
 * no base64), doubles are IEEE-754 little-endian bit patterns (exact
 * round-trip — re-serializing a decoded message preserves coalescing
 * identity and golden bytes), integers are fixed-width little-endian.
 *
 * Decoding is strict and bounds-checked, with the JSON parser's
 * valid-request-or-typed-error contract: unknown tags, duplicate or
 * out-of-order tags, truncated fields, non-finite doubles, and every
 * rule of the shared `checkRequest` come back as `InvalidArgument`,
 * never a crash. Framing-level damage (bad magic,
 * bad version, oversized or empty length) is not decodable at all —
 * `BinaryFramer` in net/framing.hpp poisons the connection instead,
 * because a binary stream cannot resynchronize past a broken header.
 *
 * docs/PROTOCOL.md is the normative spec for this layout; the tests in
 * tests/serve/test_wire.cpp pin the implementation to it.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "serve/protocol.hpp"

namespace ftsim {

/** First byte of every binary frame (and of no JSON line). */
inline constexpr unsigned char kWireMagic = 0xF7;
/** Header bytes 1..2: "FT". */
inline constexpr unsigned char kWireMagic2 = 0x46;
inline constexpr unsigned char kWireMagic3 = 0x54;
/** Wire format version; bumped on any incompatible layout change. */
inline constexpr unsigned char kWireVersion = 0x01;
/** Fixed frame header size: magic(3) + version(1) + length(4). */
inline constexpr std::size_t kWireHeaderBytes = 8;

/** Payload message types (first payload byte). */
enum class WireMsg : unsigned char {
    Request = 0x01,        ///< A PlanRequest.
    Response = 0x02,       ///< A PlanResponse.
    ProtocolError = 0x03,  ///< A frame that decoded but never parsed
                           ///< into a request (id + message only).
};

/** One decoded binary payload. */
struct WireMessage {
    WireMsg type = WireMsg::Request;
    /** Valid when type == Request. */
    PlanRequest request;
    /** Valid when type == Response. */
    PlanResponse response;
    /** Valid when type == ProtocolError (id may be empty). */
    std::string errorId;
    std::string errorMessage;
};

/** Wraps @p payload in the 8-byte frame header. */
std::string wireFrame(std::string_view payload);

/** Encodes a request as one complete frame (header included). */
std::string encodeRequestFrame(const PlanRequest& request);

/** Encodes a response as one complete frame, with the fields
 *  `writePlanResponse` selects, so decode + writePlanResponse
 *  reproduces the JSON path's bytes exactly. */
std::string encodeResponseFrame(const PlanResponse& response);

/** Encodes the binary analog of `writeProtocolError`. */
std::string encodeProtocolErrorFrame(const std::string& id,
                                     const std::string& message);

/**
 * Decodes one frame payload (header already stripped by the framer).
 * `InvalidArgument` on any malformed or semantically invalid payload;
 * never throws, never reads out of bounds.
 */
Result<WireMessage> decodeWirePayload(std::string_view payload);

/**
 * Validates an 8-byte frame header and returns the payload length.
 * `InvalidArgument` names the failure (bad magic, bad version, empty
 * payload) — the reasons `BinaryFramer` poisons a connection with.
 * Length *cap* enforcement is the framer's job (it knows the
 * configured limit); this only rejects length 0.
 */
Result<std::uint32_t> parseWireHeader(const unsigned char* header);

}  // namespace ftsim

#endif  // FTSIM_SERVE_WIRE_HPP
