#include "oracle.hpp"

#include <algorithm>
#include <future>
#include <thread>

#include "serve/wire.hpp"

namespace perfbench {

namespace {

/** The expected line minus its leading '{', for the id-less answer. */
std::string
tailOf(ftsim::PlanResponse response)
{
    response.id.clear();
    return ftsim::writePlanResponse(response).substr(1);
}

bool
isRefusal(std::string_view line)
{
    return line.find("\"ok\":false,\"error\":\"RateLimited\"") !=
               std::string_view::npos ||
           line.find("\"ok\":false,\"error\":\"Unavailable\"") !=
               std::string_view::npos;
}

}  // namespace

Oracle::Oracle(const RunPlan& plan, ftsim::ServiceConfig config)
{
    config.workers = std::max(1u, std::thread::hardware_concurrency());
    ftsim::PlanService service(std::move(config));
    tail_ends_.reserve(plan.size());
    const std::size_t chunk = 4096;
    std::vector<std::shared_future<ftsim::PlanResponse>> futures;
    for (std::size_t begin = 0; begin < plan.size(); begin += chunk) {
        futures.clear();
        const std::size_t end = std::min(plan.size(), begin + chunk);
        for (std::size_t q = begin; q < end; ++q)
            futures.push_back(service.submit(
                plan.question(static_cast<std::uint32_t>(q)).request));
        for (auto& future : futures) {
            const ftsim::PlanResponse& response = future.get();
            domain_answers_ += response.ok ? 0 : 1;
            tails_ += tailOf(response);
            tail_ends_.push_back(tails_.size());
        }
    }
}

Verdict
Oracle::checkLine(std::uint32_t question, std::string_view id,
                  std::string_view line) const
{
    constexpr std::string_view head = "{\"id\":\"";
    const std::size_t tail_at = head.size() + id.size() + 2;
    if (line.size() > tail_at && line.substr(0, head.size()) == head &&
        line.substr(head.size(), id.size()) == id &&
        line.substr(head.size() + id.size(), 2) == "\"," &&
        line.substr(tail_at) == tail(question))
        return Verdict::Ok;
    return isRefusal(line) ? Verdict::Refused : Verdict::Wrong;
}

Verdict
Oracle::checkFrame(std::uint32_t question, std::string_view id,
                   std::string_view payload) const
{
    // docs/PROTOCOL.md fixes a response's first fields: message type,
    // query tag + kind byte, then the id tag + u32 length + id bytes.
    constexpr std::size_t kIdAt = 8;
    const bool id_first =
        payload.size() >= kIdAt + id.size() && payload[3] == 0x02 &&
        static_cast<unsigned char>(payload[4]) == (id.size() & 0xff) &&
        payload[5] == 0 && payload[6] == 0 && payload[7] == 0 &&
        payload.substr(kIdAt, id.size()) == id;
    const auto seen = verified_frames_.find(question);
    if (id_first && seen != verified_frames_.end() &&
        payload.substr(0, 3) == std::string_view(seen->second).substr(0, 3) &&
        payload.substr(kIdAt + id.size()) ==
            std::string_view(seen->second).substr(3))
        return Verdict::Ok;
    ftsim::Result<ftsim::WireMessage> decoded =
        ftsim::decodeWirePayload(payload);
    if (!decoded || decoded.value().type != ftsim::WireMsg::Response)
        return Verdict::Wrong;
    const Verdict verdict = checkLine(
        question, id, ftsim::writePlanResponse(decoded.value().response));
    if (verdict == Verdict::Ok && id_first)
        verified_frames_[question] =
            std::string(payload.substr(0, 3)) +
            std::string(payload.substr(kIdAt + id.size()));
    return verdict;
}

double
Oracle::domainAnswerShare() const
{
    return tail_ends_.empty() ? 0.0
                              : static_cast<double>(domain_answers_) /
                                    static_cast<double>(tail_ends_.size());
}

std::string_view
Oracle::tail(std::uint32_t q) const
{
    const std::size_t begin = q == 0 ? 0 : tail_ends_[q - 1];
    return std::string_view(tails_).substr(begin, tail_ends_[q] - begin);
}

std::string
Oracle::expected(std::uint32_t question, const std::string& id) const
{
    return "{\"id\":\"" + id + "\"," + std::string(tail(question));
}

}  // namespace perfbench
