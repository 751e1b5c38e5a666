/**
 * @file
 * `ftsim_client` — pipelining client for `ftsim_served`.
 *
 * Reads JSON request lines from a file (or stdin), sends them all
 * down one TCP connection, then reads one response per non-blank
 * request line and prints it to stdout. The server answers each
 * connection in request order, so the pipelined exchange preserves
 * input order — `cat requests.jsonl | ftsim_client - --port P` is
 * the socket-hop equivalent of `ftsim_serve requests.jsonl`, and
 * ci.sh diffs the two against the same golden file.
 *
 * `--wire binary` re-encodes each parseable request as a binary
 * frame (serve/wire.hpp) and decodes binary responses back through
 * the JSON writer before printing — so the *output is byte-identical
 * to the JSON path* and diffs against the same golden. Lines that do
 * not parse are sent as raw JSON (the server answers them with a
 * JSON protocol error either way), which keeps hostile-input
 * fixtures exercising the same error text in both modes.
 *
 * Blank lines are skipped (they are not requests; the server skips
 * them too, so sending them would desynchronize the response count).
 * Exits non-zero when the connection fails or the server closes
 * before every response arrives.
 *
 * `--timeout-ms N` bounds the connect and every send/receive: a downed
 * or wedged server yields a typed error and a non-zero exit instead of
 * blocking forever (ci.sh runs every invocation with a timeout so a
 * hung fixture fails the gate rather than the build).
 *
 * Usage: ftsim_client [requests.jsonl|-] [--host H] [--port P]
 *                     [--timeout-ms N] [--wire json|binary]
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"

using namespace ftsim;

namespace {

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "ftsim_client: " << problem << "\n"
              << "usage: ftsim_client [requests.jsonl|-]"
                 " [--host H] [--port P] [--timeout-ms N]"
                 " [--wire json|binary]\n";
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string path = "-";
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    double timeoutMs = 0.0;
    bool binary = false;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(strCat(arg, " needs a value"));
            return argv[++i];
        };
        if (arg == "--host") {
            host = value();
        } else if (arg == "--port") {
            char* end = nullptr;
            const double parsed = std::strtod(value(), &end);
            if (*end != '\0' || parsed < 1.0 || parsed > 65535.0)
                usage("--port needs a port number");
            port = static_cast<std::uint16_t>(parsed);
        } else if (arg == "--wire") {
            const std::string mode = value();
            if (mode == "binary")
                binary = true;
            else if (mode == "json")
                binary = false;
            else
                usage("--wire needs json or binary");
        } else if (arg == "--timeout-ms") {
            char* end = nullptr;
            const double parsed = std::strtod(value(), &end);
            if (*end != '\0' || !std::isfinite(parsed) || parsed < 0.0)
                usage("--timeout-ms needs a non-negative number");
            timeoutMs = parsed;
        } else if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
            usage(strCat("unknown flag ", arg));
        } else {
            positional.push_back(arg);
        }
    }
    if (port == 0)
        usage("--port is required");
    if (!positional.empty())
        path = positional[0];
    if (positional.size() > 1)
        usage("too many positional arguments");

    std::ifstream file;
    if (path != "-") {
        file.open(path);
        if (!file) {
            std::cerr << "ftsim_client: cannot open " << path << '\n';
            return 2;
        }
    }
    std::istream& in = path == "-" ? std::cin : file;

    std::vector<std::string> requests;
    std::string line;
    while (std::getline(in, line)) {
        if (isBlankLine(line))
            continue;
        requests.push_back(line);
    }

    Result<NetClient> connected =
        NetClient::connectTo(host, port, timeoutMs);
    if (!connected) {
        std::cerr << "ftsim_client: " << connected.error().message
                  << '\n';
        return 2;
    }
    NetClient client = std::move(connected.value());

    // Pipeline: all requests out, then all responses back (the server
    // preserves per-connection request order).
    for (const std::string& request : requests) {
        Result<bool> sent = true;
        if (binary) {
            Result<PlanRequest> parsed = parsePlanRequest(request);
            // Parseable lines ride as binary frames; hostile lines
            // go out as raw JSON so the server's error text (and so
            // this tool's output) matches the JSON path exactly.
            sent = parsed.ok()
                       ? client.sendBytes(
                             encodeRequestFrame(parsed.value()))
                       : client.sendLine(request);
        } else {
            sent = client.sendLine(request);
        }
        if (!sent) {
            std::cerr << "ftsim_client: " << sent.error().message
                      << '\n';
            return 1;
        }
    }
    client.finishSending();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string out;
        if (binary) {
            Result<WireFramer::Frame> frame = client.recvFrame();
            if (!frame) {
                std::cerr << "ftsim_client: after " << i << " of "
                          << requests.size() << " responses: "
                          << frame.error().message << '\n';
                return 1;
            }
            if (!frame.value().binary) {
                out = std::move(frame.value().payload);
            } else {
                Result<WireMessage> decoded =
                    decodeWirePayload(frame.value().payload);
                if (!decoded) {
                    std::cerr << "ftsim_client: undecodable frame: "
                              << decoded.error().message << '\n';
                    return 1;
                }
                // Print through the JSON writers: byte-identical to
                // what the JSON path would have produced.
                if (decoded.value().type == WireMsg::Response)
                    out = writePlanResponse(decoded.value().response);
                else
                    out = writeProtocolError(
                        decoded.value().errorId,
                        decoded.value().errorMessage);
            }
        } else {
            Result<std::string> response = client.recvLine();
            if (!response) {
                std::cerr << "ftsim_client: after " << i << " of "
                          << requests.size() << " responses: "
                          << response.error().message << '\n';
                return 1;
            }
            out = std::move(response.value());
        }
        std::cout << out << '\n';
    }
    return 0;
}
