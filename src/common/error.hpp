// Error handling: a single exception type carrying a formatted message.
//
// The library throws cbmpi::Error for programmer/configuration errors
// (mismatched communicator sizes, invalid ranks, unshared namespaces where
// required, ...). Simulated *runtime* failures that the paper's system would
// surface as error codes (e.g. CMA permission denial) are modelled as status
// returns in the respective modules, not exceptions.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace cbmpi {

class Error : public std::runtime_error {
 public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Secondary failure: a rank aborted because *another* rank raised first.
/// Distinct from Error so the runtime can rethrow the root cause instead of
/// a bystander's "job aborted" echo.
class AbortedError : public Error {
 public:
  explicit AbortedError(std::string what) : Error(std::move(what)) {}
};

/// Every rank still running its body is blocked, and none of them can wake
/// another. The message names each blocked rank and the oldest receive it
/// has posted.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(std::string what) : Error(std::move(what)) {}
};

/// A receive got more bytes than its buffer holds (MPI_ERR_TRUNCATE); the
/// message names the receive and both sizes.
class TruncationError : public Error {
 public:
  explicit TruncationError(std::string what) : Error(std::move(what)) {}
};

namespace detail {
template <typename... Args>
[[noreturn]] void raise(const char* cond, const char* file, int line, Args&&... args) {
  std::ostringstream os;
  os << file << ":" << line << ": requirement failed: " << cond;
  if constexpr (sizeof...(Args) > 0) {
    os << " — ";
    (os << ... << std::forward<Args>(args));
  }
  throw Error(os.str());
}
}  // namespace detail

}  // namespace cbmpi

/// Precondition check that survives NDEBUG builds; throws cbmpi::Error.
#define CBMPI_REQUIRE(cond, ...)                                              \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::cbmpi::detail::raise(#cond, __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__); \
    }                                                                         \
  } while (false)
