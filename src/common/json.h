// Dependency-free JSON writing and parsing.
//
// The observability layer (src/obs) exports metrics and bench results as
// JSON so external tooling (perf trajectories, regression gates, dashboards)
// can consume them. coopfs takes no third-party dependencies, so this header
// provides the two pieces it needs:
//
//   * JsonWriter — a streaming, stack-validated writer. Doubles are printed
//     with std::to_chars (shortest round-trip form), so serializing the same
//     values always yields the same bytes; the determinism tests compare
//     serialized documents for bit-for-bit equality.
//   * JsonValue / ParseJson — a small DOM parser used to validate exported
//     documents (schema round-trip tests, perf_harness self-checks).
//   * ReadValue / ReadMembers / RequireMembers — the one checked field
//     reader every coopfs document parser and validator goes through.
#ifndef COOPFS_SRC_COMMON_JSON_H_
#define COOPFS_SRC_COMMON_JSON_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace coopfs {

// Streaming JSON writer. Usage:
//
//   JsonWriter json(/*indent=*/2);
//   json.BeginObject().Key("reads").Value(std::uint64_t{42}).EndObject();
//   std::string doc = std::move(json).str();
//
// Structural misuse (a value with no pending key inside an object, unbalanced
// End calls) is caught by assertions in debug builds; the writer never
// produces syntactically invalid JSON for correct call sequences.
class JsonWriter {
 public:
  // `indent` spaces per nesting level; 0 writes compact single-line JSON.
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Must precede every value inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) { return Value(std::string_view(value)); }
  JsonWriter& Value(bool value);
  JsonWriter& Value(double value);
  JsonWriter& Value(std::int64_t value);
  JsonWriter& Value(std::uint64_t value);
  JsonWriter& Value(int value) { return Value(static_cast<std::int64_t>(value)); }
  JsonWriter& Value(unsigned value) { return Value(static_cast<std::uint64_t>(value)); }
  JsonWriter& Null();

  // The document so far. Complete once every Begin has its matching End.
  const std::string& str() const { return out_; }

  // Appends `"\n"`-terminated document convenience: not provided; callers
  // add a trailing newline when writing files.

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void Prepare();  // Separator + indentation before a key or top-level value.
  void NewlineIndent();
  void WriteEscaped(std::string_view text);

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  // Parallel to stack_.
  bool pending_key_ = false;
  int indent_ = 0;
};

// Parsed JSON document node.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  // Integral numbers keep an exact 64-bit value alongside the double.
  std::int64_t AsInt() const { return int_number_; }
  bool IsIntegral() const { return is_number() && integral_; }
  const std::string& AsString() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }
  std::size_t size() const { return is_object() ? members_.size() : items_.size(); }

  // Object member lookup; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // Typed member lookups used by the schema validators: nullptr if the
  // member is missing or has the wrong kind.
  const JsonValue* FindObject(std::string_view key) const;
  const JsonValue* FindArray(std::string_view key) const;
  const JsonValue* FindNumber(std::string_view key) const;
  const JsonValue* FindString(std::string_view key) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::int64_t int_number_ = 0;
  bool integral_ = false;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

// Parses one complete JSON document (trailing whitespace allowed, trailing
// garbage is an error). Rejects documents nested deeper than 256 levels.
Result<JsonValue> ParseJson(std::string_view text);

// Parses each non-empty line of `text` as one JSON value and hands it to
// `fn`. The first failure, a line that does not parse or a Status from `fn`,
// comes back as kDataLoss "<what> line <N>: ...", lines counted from 1.
Status ForEachJsonLine(std::string_view text, std::string_view what,
                       const std::function<Status(const JsonValue&)>& fn);

// Reads the whole file at `path`; kIoError if it cannot be opened or read.
Result<std::string> ReadTextFile(const std::string& path);

// Writes `content` to `path` with a trailing newline; kIoError on failure.
Status WriteTextFile(const std::string& path, std::string_view content);

// ---- Checked reading ----

namespace json_internal {

template <typename T>
struct IsVector : std::false_type {};
template <typename U>
struct IsVector<std::vector<U>> : std::true_type {};

// The shape ReadValue accepts for T, for error messages.
template <typename T>
std::string ShapeName() {
  if constexpr (std::is_same_v<T, bool>) {
    return "a bool";
  } else if constexpr (std::is_integral_v<T>) {
    return "an integer in [" + std::to_string(std::numeric_limits<T>::min()) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "]";
  } else if constexpr (std::is_same_v<T, double>) {
    return "a number";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "a string";
  } else if constexpr (IsVector<T>::value) {
    return "an array whose items are each " + ShapeName<typename T::value_type>();
  } else {
    return "an array of " + std::to_string(std::tuple_size_v<T>) + " valid items";
  }
}

Status MemberError(std::string_view key, bool present, const std::string& shape);

}  // namespace json_internal

// Reads `value` into `*out` only in the shape and range of T, so a corrupt
// document is a Status, never a wrapped id or a crash:
//
//   * an integral T (not bool): an integer token within T's range, so a
//     ClientId, FileId or 8-bit hop count cannot wrap;
//   * double: any number;
//   * bool, std::string: a JSON bool, a JSON string;
//   * std::array<U, N> or std::tuple<U...>: an array of exactly that many
//     items, each read as its element type;
//   * std::vector<U>: an array of any length, each item read as U.
//
// False on a mismatch, and `*out` may then hold anything.
template <typename T>
bool ReadValue(const JsonValue& value, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out = value.AsBool();
    return value.is_bool();
  } else if constexpr (std::is_integral_v<T>) {
    *out = static_cast<T>(value.AsInt());
    return value.IsIntegral() && std::in_range<T>(value.AsInt());
  } else if constexpr (std::is_same_v<T, double>) {
    *out = value.AsDouble();
    return value.is_number();
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = value.AsString();
    return value.is_string();
  } else if constexpr (json_internal::IsVector<T>::value) {
    out->resize(value.items().size());
    for (std::size_t i = 0; i < out->size(); ++i) {
      if (!ReadValue(value.items()[i], &(*out)[i])) {
        return false;
      }
    }
    return value.is_array();
  } else {
    if (!value.is_array() || value.size() != std::tuple_size_v<T>) {
      return false;
    }
    std::size_t i = 0;
    return std::apply(
        [&](auto&... items) { return (ReadValue(value.items()[i++], &items) && ...); }, *out);
  }
}

// Reads each (key, out) pair of `object` in order. The first member that is
// missing or fails ReadValue is a kDataLoss naming it and its wanted shape.
inline Status ReadMembers(const JsonValue& /*object*/) { return Status::Ok(); }

template <typename T, typename... Rest>
Status ReadMembers(const JsonValue& object, std::string_view key, T* out, Rest... rest) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !ReadValue(*value, out)) {
    return json_internal::MemberError(key, value != nullptr, json_internal::ShapeName<T>());
  }
  return ReadMembers(object, rest...);
}

// ReadMembers for one member that may be absent; then `*out` is left as is.
template <typename T>
Status ReadOptionalMember(const JsonValue& object, std::string_view key, T* out) {
  return object.Find(key) == nullptr ? Status::Ok() : ReadMembers(object, key, out);
}

// Checks that every key is a member of `object` readable as T. The kDataLoss
// names `where` and the first bad member.
template <typename T>
Status RequireMembers(const JsonValue& object, std::string_view where,
                      std::initializer_list<std::string_view> keys) {
  for (const std::string_view key : keys) {
    T value{};
    if (Status status = ReadMembers(object, key, &value); !status.ok()) {
      return Status::DataLoss(std::string(where) + ": " + status.message());
    }
  }
  return Status::Ok();
}

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_JSON_H_
