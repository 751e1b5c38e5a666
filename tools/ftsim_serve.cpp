/**
 * @file
 * `ftsim_serve` — the plan service behind a JSON-lines pipe.
 *
 * Reads one `PlanRequest` per line from a file (or stdin), admits all
 * of them to a concurrent `PlanService`, and prints one `PlanResponse`
 * per line to stdout *in input order* (answers compute out of order;
 * printing re-sequences them). Lines that fail to parse produce an
 * ok=false InvalidArgument response in the same slot and count as
 * protocol errors.
 *
 * Resource governance maps straight onto `ServiceConfig`:
 * `--max-answers` / `--max-planners` bound the LRU caches, and
 * `--tenant-inflight` / `--tenant-rps` / `--tenant-burst` gate
 * admission per request `tenant`. Quota overflow answers
 * `{"ok":false,"error":"RateLimited",...}` in the request's slot —
 * a quota rejection is a well-formed answer, not a protocol error.
 * Requests are admitted in input order from one thread, so with
 * token-bucket quotas only (`--tenant-rps`, the configuration the e2e
 * golden uses) the rejection pattern is deterministic for a given
 * input. `--tenant-inflight` rejections additionally depend on how
 * fast the workers drain earlier requests — don't bake them into
 * goldens.
 *
 * Observability (ISSUE-8): every counter lives in the service's
 * `StatsRegistry` — including this front end's own `cli.*` rows — so
 * the stderr summary is one registry snapshot rendered by the shared
 * `formatStatsSummary`, identical in shape across ftsim_serve,
 * ftsim_served, and ftsim_router. `--stats-json PATH` /
 * `--stats-csv PATH` dump the same final snapshot to a file on exit,
 * and the exit status is non-zero when any protocol error occurred —
 * which lets CI assert "this request file is answered with zero
 * protocol errors" by just running the binary.
 *
 * Usage: ftsim_serve [requests.jsonl|-]
 *                    [--workers N] [--max-answers N] [--max-planners N]
 *                    [--tenant-inflight N] [--tenant-rps X]
 *                    [--tenant-burst X] [--max-tenants N]
 *                    [--stats-json PATH] [--stats-csv PATH]
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

namespace {

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "ftsim_serve: " << problem << "\n"
              << "usage: ftsim_serve [requests.jsonl|-]\n"
              << "                   [--workers N] [--max-answers N]\n"
              << "                   [--max-planners N]"
                 " [--tenant-inflight N]\n"
              << "                   [--tenant-rps X]"
                 " [--tenant-burst X] [--max-tenants N]\n"
              << "                   [--stats-json PATH]"
                 " [--stats-csv PATH]\n";
    std::exit(2);
}

double
numberArg(const std::string& flag, const char* text)
{
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    // isfinite: "nan"/"inf" parse but would silently disable (or
    // un-bound) the quota the operator explicitly asked for.
    if (end == text || *end != '\0' || !std::isfinite(value) ||
        value < 0.0)
        usage(strCat(flag, " needs a non-negative finite number, got '",
                     text, "'"));
    return value;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string path = "-";
    std::string stats_json_path;
    std::string stats_csv_path;
    ServiceConfig config;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(strCat(arg, " needs a value"));
            return argv[++i];
        };
        if (arg == "--workers")
            config.workers = static_cast<unsigned>(numberArg(arg, value()));
        else if (arg == "--max-answers")
            config.maxAnswers =
                static_cast<std::size_t>(numberArg(arg, value()));
        else if (arg == "--max-planners")
            config.maxPlanners =
                static_cast<std::size_t>(numberArg(arg, value()));
        else if (arg == "--tenant-inflight")
            config.tenantMaxInflight =
                static_cast<std::uint64_t>(numberArg(arg, value()));
        else if (arg == "--tenant-rps")
            config.tenantRps = numberArg(arg, value());
        else if (arg == "--tenant-burst")
            config.tenantBurst = numberArg(arg, value());
        else if (arg == "--max-tenants")
            config.maxTenants =
                static_cast<std::size_t>(numberArg(arg, value()));
        else if (arg == "--stats-json")
            stats_json_path = value();
        else if (arg == "--stats-csv")
            stats_csv_path = value();
        else if (arg.size() > 2 && arg.compare(0, 2, "--") == 0)
            usage(strCat("unknown flag ", arg));
        else
            positional.push_back(arg);
    }
    if (positional.size() > 1)
        usage("too many positional arguments");
    if (!positional.empty())
        path = positional[0];

    std::ifstream file;
    if (path != "-") {
        file.open(path);
        if (!file) {
            std::cerr << "ftsim_serve: cannot open " << path << '\n';
            return 2;
        }
    }
    std::istream& in = path == "-" ? std::cin : file;

    // Keep stdout pure protocol; sim warnings go through the logger.
    Logger::instance().setLevel(LogLevel::Error);

    PlanService service(config);

    // Admit everything up front (the service coalesces duplicates),
    // then resolve in input order.
    struct Slot {
        std::string id;
        bool parsed = false;
        std::string parseError;
        std::shared_future<PlanResponse> future;
    };
    std::vector<Slot> slots;
    std::string line;
    while (std::getline(in, line)) {
        if (isBlankLine(line))
            continue;
        Slot slot;
        Result<PlanRequest> request = parsePlanRequest(line);
        if (request) {
            slot.id = request.value().id;
            slot.parsed = true;
            slot.future = service.submit(request.value());
        } else {
            slot.parseError = request.error().message;
        }
        slots.push_back(std::move(slot));
    }

    // The front end's own ledger lives in the same registry the
    // service publishes into: one snapshot covers the whole process,
    // and a `stats` query through the service sees these rows too.
    StatsRegistry& registry = *service.statsRegistry();
    StatsCounter& lines_read = registry.counter("cli.lines_read");
    StatsCounter& protocol_errors =
        registry.counter("cli.protocol_errors");
    StatsCounter& failed_queries =
        registry.counter("cli.failed_queries");
    lines_read.add(slots.size());
    for (Slot& slot : slots) {
        if (!slot.parsed) {
            protocol_errors.inc();
            failed_queries.inc();
            std::cout << writeProtocolError(slot.id, slot.parseError)
                      << '\n';
            continue;
        }
        PlanResponse response = slot.future.get();
        response.id = slot.id;  // Coalesced answers share a future.
        if (!response.ok)
            failed_queries.inc();
        std::cout << writePlanResponse(response) << '\n';
    }

    const StatsSnapshot snapshot = registry.snapshot();
    std::cerr << formatStatsSummary(snapshot, "ftsim_serve");
    if (!stats_json_path.empty()) {
        Result<bool> wrote = writeStatsJson(snapshot, stats_json_path);
        if (!wrote) {
            std::cerr << "ftsim_serve: " << wrote.error().message
                      << '\n';
            return 2;
        }
    }
    if (!stats_csv_path.empty()) {
        Result<bool> wrote = writeStatsCsv(snapshot, stats_csv_path);
        if (!wrote) {
            std::cerr << "ftsim_serve: " << wrote.error().message
                      << '\n';
            return 2;
        }
    }
    return protocol_errors.load() > 0 ? 1 : 0;
}
