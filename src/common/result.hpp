#ifndef FTSIM_COMMON_RESULT_HPP
#define FTSIM_COMMON_RESULT_HPP

/**
 * @file
 * Typed error handling for the planning API.
 *
 * The planning workflow ("does this model fit, what does it cost?") has
 * legitimate domain failures — an unpriced GPU, a model that does not fit
 * at batch 1 — that callers want to branch on, not die on. `Result<T>`
 * carries either a value or an `Error` (code + human-readable message).
 * Command-line tools that have no use for a failed answer unwrap with
 * `valueOrThrow()`.
 *
 * Lives in common/ (not core/) because it is a vocabulary type: the
 * simulator layer (gpusim) reports domain failures the same way the
 * planner does.
 */

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hpp"

namespace ftsim {

/** Domain failure categories of the planning API. */
enum class ErrorCode {
    /** GPU name absent from the catalog / price list. */
    UnknownGpu,
    /** Model does not fit on the device even at batch size 1. */
    DoesNotFit,
    /** A sweep was requested over an empty GPU or seq-len set. */
    EmptySweep,
    /** A parameter is out of its domain (zero epochs, batch 0, ...). */
    InvalidArgument,
    /** No (GPU, price) combination yields a feasible plan. */
    NoViablePlan,
    /** Admission control rejected the request (tenant quota exceeded);
     *  retriable, unlike the other codes — back off and resubmit. */
    RateLimited,
    /** A required backend (an upstream shard) is down or unreachable;
     *  retriable once the fleet recovers. Surfaced by the router when
     *  a shard dies with requests in flight. */
    Unavailable,
};

/** Stable identifier string for an error code (logs, tests). */
const char* errorCodeName(ErrorCode code);

/** A domain failure: machine-readable code + human-readable message. */
struct Error {
    ErrorCode code = ErrorCode::InvalidArgument;
    std::string message;

    /** "DoesNotFit: Mixtral-8x7B does not fit on A40 (dense)". */
    std::string describe() const
    {
        return strCat(errorCodeName(code), ": ", message);
    }
};

/**
 * Either a value or an `Error`.
 *
 * Success and failure both construct implicitly, so functions can
 * `return value;` or `return Error{code, msg};` directly. Accessing the
 * wrong alternative is a caller bug and panics; use `ok()` first, or one
 * of the lossy accessors (`valueOr`, `valueOrThrow`).
 */
template <typename T>
class Result {
  public:
    /** Success. */
    Result(T value) : state_(std::move(value)) {}

    /** Failure. */
    Result(Error error) : state_(std::move(error)) {}

    /** Failure, inline. */
    static Result failure(ErrorCode code, std::string message)
    {
        return Result(Error{code, std::move(message)});
    }

    /** True if this result holds a value. */
    bool ok() const { return std::holds_alternative<T>(state_); }

    /** True if this result holds a value. */
    explicit operator bool() const { return ok(); }

    /** The value; panics (library-bug abort) when called on an error. */
    const T& value() const
    {
        if (!ok())
            panic(strCat("Result::value on error: ", error().describe()));
        return std::get<T>(state_);
    }

    /** Mutable value accessor; same contract as value(). */
    T& value()
    {
        if (!ok())
            panic(strCat("Result::value on error: ", error().describe()));
        return std::get<T>(state_);
    }

    /** The value, or @p fallback when this is an error. */
    T valueOr(T fallback) const
    {
        return ok() ? std::get<T>(state_) : std::move(fallback);
    }

    /**
     * The value, or throws `FatalError` carrying the error message.
     */
    const T& valueOrThrow() const
    {
        if (!ok())
            fatal(error().describe());
        return std::get<T>(state_);
    }

    /** The error; panics when called on a success. */
    const Error& error() const
    {
        if (ok())
            panic("Result::error on success");
        return std::get<Error>(state_);
    }

    /** The error code; panics when called on a success. */
    ErrorCode code() const { return error().code; }

  private:
    std::variant<T, Error> state_;
};

}  // namespace ftsim

#endif  // FTSIM_COMMON_RESULT_HPP
