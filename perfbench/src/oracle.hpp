#ifndef PERFBENCH_ORACLE_HPP
#define PERFBENCH_ORACLE_HPP

/**
 * @file
 * The answer oracle: every question's expected bytes, computed before
 * any timing by an in-process `PlanService` with the fleet's config.
 *
 * A JSON answer must equal `{"id":"<id>",` + the oracle's line for the
 * question byte for byte. The oracle keeps every expected line (minus
 * the id) in one arena, so a unique workload's hundreds of thousands of
 * answers cost one allocation. A binary answer is decoded and
 * re-serialised with `writePlanResponse`, then compared the same way.
 * Domain answers (`DoesNotFit`, `NoViablePlan`, ...) are correct
 * answers like any other; only typed refusals (`RateLimited`,
 * `Unavailable`) count as failed requests, and anything else that
 * differs is a wrong answer.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/plan_service.hpp"
#include "workload.hpp"

namespace perfbench {

enum class Verdict { Ok, Refused, Wrong };

class Oracle {
  public:
    /** Answers every question of @p plan with a service built from
     *  @p config (worker count aside, which cannot change an answer). */
    Oracle(const RunPlan& plan, ftsim::ServiceConfig config);

    /** Checks one JSON answer line (terminator stripped). */
    Verdict checkLine(std::uint32_t question, std::string_view id,
                      std::string_view line) const;
    /**
     * Checks one binary answer frame payload (header stripped). The
     * first correct frame for a question is decoded and re-serialised;
     * a later frame for it passes when it carries its own id and every
     * other byte equals that verified frame's, and is decoded otherwise.
     * This keeps the generator's cost per binary answer near the JSON
     * path's. Not thread-safe (it remembers verified frames).
     */
    Verdict checkFrame(std::uint32_t question, std::string_view id,
                       std::string_view payload) const;

    /** Share of questions whose expected answer is ok:false (domain
     *  answers such as DoesNotFit). */
    double domainAnswerShare() const;
    /** The expected line for @p question under @p id. */
    std::string expected(std::uint32_t question,
                         const std::string& id) const;
    /** Bytes of expected answers held (ids excluded). */
    std::size_t expectedBytes() const { return tails_.size(); }

  private:
    /** writePlanResponse of question @p q's id-less answer, minus its
     *  leading '{'. */
    std::string_view tail(std::uint32_t q) const;

    /** Every question's tail, back to back; question q's runs from
     *  tail_ends_[q - 1] (0 for q = 0) to tail_ends_[q]. */
    std::string tails_;
    std::vector<std::size_t> tail_ends_;
    std::size_t domain_answers_ = 0;
    /** Question -> a verified binary answer without its id: the three
     *  bytes before the id field, then everything after it. */
    mutable std::unordered_map<std::uint32_t, std::string> verified_frames_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_HPP
