// Command-line parsing shared by every coopfs binary that takes flags:
// coopfs_bench and perf_harness (through BenchOptions::FromArgs),
// coopfs_serve, coopfs_inspect, and the examples calibrate_workload,
// capacity_planning, state_timeline and warmup_timeline. ParseFlags reads a
// command line against one table of flags; ParseFlagNumber reads one number,
// and trace_tools uses it for its positional numbers. Every tool thus rejects
// an unknown flag, a missing value or a malformed number the same way
// (coopfs_inspect with its own error exit code, 1).
#ifndef COOPFS_SRC_COMMON_FLAGS_H_
#define COOPFS_SRC_COMMON_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>
#include <variant>
#include <vector>

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

// One flag of a ParseFlags table: its name ("--events") and where it goes. A
// bool is a switch, set when the flag is present; a string takes the next
// argument as is; a number takes the next argument through ParseFlagNumber.
// On LP64, std::size_t is std::uint64_t and long is std::int64_t.
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, std::uint32_t*, std::uint64_t*, std::int64_t*, double*> out;
};

// Reads argv[1..argc) against `flags` in one pass; a repeated flag keeps its
// last value. An argument starting with '-' that names no flag, a value flag
// with nothing after it, and a malformed number are each an InvalidArgument
// naming the flag. Any other argument is appended to `*positional`, or is an
// InvalidArgument when `positional` is null (the binary takes none).
inline Status ParseFlags(int argc, char** argv, const std::vector<Flag>& flags,
                         std::vector<std::string>* positional = nullptr) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(), [arg](const Flag& candidate) {
      return std::strcmp(candidate.name, arg) == 0;
    });
    if (flag == flags.end()) {
      if (arg[0] == '-') {
        return Status::InvalidArgument(std::string("unknown flag '") + arg + "'");
      }
      if (positional == nullptr) {
        return Status::InvalidArgument(std::string("unexpected argument '") + arg + "'");
      }
      positional->emplace_back(arg);
      continue;
    }
    COOPFS_RETURN_IF_ERROR(std::visit(
        [&](auto* out) -> Status {
          using T = std::remove_pointer_t<decltype(out)>;
          if constexpr (std::is_same_v<T, bool>) {
            *out = true;
            return Status::Ok();
          } else {
            if (i + 1 >= argc) {
              return Status::InvalidArgument(std::string(arg) + " requires a value");
            }
            const char* value = argv[++i];
            if constexpr (std::is_same_v<T, std::string>) {
              *out = value;
              return Status::Ok();
            } else {
              return ParseFlagNumber(arg, value, out);
            }
          }
        },
        flag->out));
  }
  return Status::Ok();
}

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_FLAGS_H_
