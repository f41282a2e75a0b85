// Numeric command-line flag parsing, shared by coopfs_bench, perf_harness,
// coopfs_serve and coopfs_inspect so every tool rejects a malformed number
// the same way (coopfs_inspect with its own error exit code, 1).
#ifndef COOPFS_SRC_COMMON_FLAGS_H_
#define COOPFS_SRC_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "src/common/status.h"

namespace coopfs {

// Parses `value`, the argument of `flag`, into `*out` as one whole
// non-negative decimal token within T's range: an integer for an integral T,
// a finite number (a fraction or exponent allowed) for a floating-point T. A
// sign, trailing characters, overflow or a non-finite number is an
// InvalidArgument naming the flag; `*out` is then unchanged.
template <typename T>
Status ParseFlagNumber(const char* flag, const char* value, T* out) {
  const char* end = value + std::strlen(value);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  bool ok = *value != '-' && ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(parsed);
  }
  if (!ok) {
    return Status::InvalidArgument(std::string(flag) + " wants a non-negative " +
                                   (std::is_floating_point_v<T> ? "number" : "integer") +
                                   ", got '" + value + "'");
  }
  *out = parsed;
  return Status::Ok();
}

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_FLAGS_H_
