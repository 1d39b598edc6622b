/**
 * @file
 * Error-reporting helpers following the gem5 fatal/panic distinction.
 *
 * panic() is for internal invariant violations (a stellar bug); fatal() is
 * for user errors (an invalid specification). Both throw typed exceptions
 * rather than aborting so that library users and tests can recover.
 */

#ifndef STELLAR_UTIL_LOGGING_HPP
#define STELLAR_UTIL_LOGGING_HPP

#include <sstream>
#include <stdexcept>
#include <string>

namespace stellar
{

/** Thrown on internal invariant violations (bugs inside stellar). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown on user errors (invalid specifications, bad arguments). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Throw a PanicError with the given message. */
[[noreturn]] void panic(const std::string &msg);

/** Throw a FatalError with the given message. */
[[noreturn]] void fatal(const std::string &msg);

/** Print a non-fatal warning to stderr. */
void warn(const std::string &msg);

/** Print an informational message to stderr. */
void inform(const std::string &msg);

/** Require a user-level condition; throws FatalError when violated. */
inline void
require(bool cond, const std::string &msg)
{
    if (!cond)
        fatal(msg);
}

/** The literal-message form: no std::string is built unless the
 *  condition fails, which keeps checks in hot accessors free. */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(msg);
}

/** Assert an internal invariant; throws PanicError when violated. */
inline void
invariant(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

/** The literal-message form of invariant (see require). */
inline void
invariant(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace stellar

#endif // STELLAR_UTIL_LOGGING_HPP
