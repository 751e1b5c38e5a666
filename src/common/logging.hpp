#ifndef FTSIM_COMMON_LOGGING_HPP
#define FTSIM_COMMON_LOGGING_HPP

/**
 * @file
 * Status-message and error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() is for conditions that are the
 * *user's* fault (bad configuration, impossible parameters) and throws a
 * recoverable error; panic() is for conditions that indicate a bug in the
 * library itself and aborts. inform()/warn() print status without stopping
 * the run.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace ftsim {

/** Severity levels for the global logger. */
enum class LogLevel : std::uint8_t {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Silent = 4,
};

/** Error thrown by fatal(): a user-facing configuration problem. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/**
 * Minimal global logger.
 *
 * The simulator is single-threaded per run, so a process-global level is
 * sufficient; tests raise the threshold to keep output clean.
 */
class Logger {
  public:
    /** Returns the process-global logger instance. */
    static Logger& instance();

    /** Sets the minimum severity that is printed. */
    void setLevel(LogLevel level) { level_ = level; }

    /** Returns the current minimum severity. */
    LogLevel level() const { return level_; }

    /** Emits one message at the given severity to stderr. */
    void emit(LogLevel severity, const std::string& message);

  private:
    Logger() = default;

    LogLevel level_ = LogLevel::Info;
};

/** Prints an informational status message (normal operation). */
void inform(const std::string& message);

/** Prints a warning: something is suspicious but the run continues. */
void warn(const std::string& message);

/** Prints a debug-level message (hidden unless LogLevel::Debug). */
void debug(const std::string& message);

/**
 * Reports an unrecoverable *user* error (bad configuration, invalid
 * arguments) and throws FatalError. Mirrors gem5's fatal().
 */
[[noreturn]] void fatal(const std::string& message);

/**
 * Reports an internal invariant violation (a bug in this library) and
 * aborts. Mirrors gem5's panic().
 */
[[noreturn]] void panic(const std::string& message);

/**
 * A double that strCat/strAppend spell losslessly, as strExact does.
 * Lets key builders append exact doubles without a temporary string.
 */
struct Exact {
    double value;
};

namespace detail {

template <typename T>
inline constexpr bool kUnsupportedStrArg = false;

/** Appends one strCat argument, spelled as a default ostream would. */
template <typename T>
void
appendStrArg(std::string& out, const T& arg)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += arg ? '1' : '0';
    } else if constexpr (std::is_same_v<T, char> ||
                         std::is_same_v<T, signed char> ||
                         std::is_same_v<T, unsigned char>) {
        out += static_cast<char>(arg);
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, arg);
        out.append(buf, r.ptr);
    } else if constexpr (std::is_same_v<T, double> ||
                         std::is_same_v<T, float>) {
        // An ostream's default precision is 6 digits of %g.
        char buf[32];
        const int n = std::snprintf(buf, sizeof buf, "%g",
                                    static_cast<double>(arg));
        out.append(buf, static_cast<std::size_t>(n));
    } else if constexpr (std::is_same_v<T, Exact>) {
        // %.17g round-trips every distinct double to a distinct
        // spelling; to_chars writes exactly the bytes printf would.
        char buf[32];
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, arg.value,
                          std::chars_format::general, 17);
        out.append(buf, r.ptr);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
        out += std::string_view(arg);
    } else {
        static_assert(kUnsupportedStrArg<T>,
                      "strCat: pass a string, character, bool, integer, "
                      "float, double or Exact");
    }
}

}  // namespace detail

/**
 * Appends every argument to @p out, spelled as streaming it into a
 * default std::ostream would: strings and characters as they are,
 * bool as 0/1, integers in decimal, float/double with 6 significant
 * digits (%g), and Exact losslessly (%.17g). Key builders append into
 * one buffer with this; any other argument type is a compile error.
 */
template <typename... Args>
void
strAppend(std::string& out, const Args&... args)
{
    (detail::appendStrArg(out, args), ...);
}

/**
 * Convenience formatter: strAppend into a fresh string.
 *
 * Example: fatal(strCat("batch size ", bsz, " exceeds maximum ", max));
 */
template <typename... Args>
std::string
strCat(const Args&... args)
{
    std::string out;
    strAppend(out, args...);
    return out;
}

/**
 * Lossless double-to-string for cache keys and fingerprints. strCat's
 * 6 significant digits would let two values differing past the 6th
 * digit collide as keys; %.17g round-trips every distinct double to a
 * distinct spelling.
 */
inline std::string
strExact(double x)
{
    return strCat(Exact{x});
}

}  // namespace ftsim

#endif  // FTSIM_COMMON_LOGGING_HPP
