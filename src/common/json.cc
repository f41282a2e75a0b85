#include "src/common/json.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace coopfs {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) {
    return;
  }
  out_.push_back('\n');
  out_.append(stack_.size() * static_cast<std::size_t>(indent_), ' ');
}

void JsonWriter::Prepare() {
  if (stack_.empty()) {
    return;  // Top-level value.
  }
  if (stack_.back() == Scope::kObject) {
    // Values inside an object are emitted by Key(); Prepare() is only called
    // for the key itself or for array elements.
    assert(!pending_key_ || !"Prepare called with a key pending");
  }
  if (has_items_.back()) {
    out_.push_back(',');
  }
  has_items_.back() = true;
  NewlineIndent();
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_);
  Prepare();
  WriteEscaped(key);
  out_.push_back(':');
  if (indent_ > 0) {
    out_.push_back(' ');
  }
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  out_.push_back('{');
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!stack_.empty() && stack_.back() == Scope::kObject && !pending_key_);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) {
    NewlineIndent();
  }
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  out_.push_back('[');
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!stack_.empty() && stack_.back() == Scope::kArray);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items) {
    NewlineIndent();
  }
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  WriteEscaped(value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; metrics never produce them, but never emit an
    // unparseable document if one slips through.
    out_.append("null");
    return *this;
  }
  char buffer[32];
  // Shortest representation that round-trips to the same double, so equal
  // doubles always serialize to identical bytes.
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  assert(ec == std::errc());
  out_.append(buffer, end);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t value) {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  assert(ec == std::errc());
  out_.append(buffer, end);
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t value) {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  assert(ec == std::errc());
  out_.append(buffer, end);
  return *this;
}

JsonWriter& JsonWriter::Null() {
  if (pending_key_) {
    pending_key_ = false;
  } else {
    Prepare();
  }
  out_.append("null");
  return *this;
}

void JsonWriter::WriteEscaped(std::string_view text) {
  out_.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out_.append("\\\"");
        break;
      case '\\':
        out_.append("\\\\");
        break;
      case '\n':
        out_.append("\\n");
        break;
      case '\r':
        out_.append("\\r");
        break;
      case '\t':
        out_.append("\\t");
        break;
      case '\b':
        out_.append("\\b");
        break;
      case '\f':
        out_.append("\\f");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out_.append(buffer);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    COOPFS_RETURN_IF_ERROR(ParseValue(root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Error(const std::string& message) const {
    return Status::DataLoss("json parse error at offset " + std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return ParseString(out.string_);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      JsonValue::Member member;
      COOPFS_RETURN_IF_ERROR(ParseString(member.first));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      COOPFS_RETURN_IF_ERROR(ParseValue(member.second, depth + 1));
      out.members_.push_back(std::move(member));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return Status::Ok();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      JsonValue item;
      COOPFS_RETURN_IF_ERROR(ParseValue(item, depth + 1));
      out.items_.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return Status::Ok();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape digit");
            }
          }
          // Encode as UTF-8. Surrogate pairs are not combined — the writer
          // never emits them (it only escapes C0 controls).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Error("invalid escape sequence");
      }
    }
    return Error("unterminated string");
  }

  Status ParseBool(JsonValue& out) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = true;
      return Status::Ok();
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = false;
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNull(JsonValue& out) {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      out.kind_ = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return Error("invalid literal");
  }

  Status ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") {
      return Error("invalid number");
    }
    out.kind_ = JsonValue::Kind::kNumber;
    const auto [dend, dec] =
        std::from_chars(token.data(), token.data() + token.size(), out.number_);
    if (dec != std::errc() || dend != token.data() + token.size()) {
      return Error("invalid number");
    }
    if (integral) {
      const auto [iend, iec] =
          std::from_chars(token.data(), token.data() + token.size(), out.int_number_);
      out.integral_ = iec == std::errc() && iend == token.data() + token.size();
    } else if (out.number_ >= -0x1p63 && out.number_ < 0x1p63) {
      // Truncated like any cast, but only where int64 can hold the result:
      // outside that range (1e300) the cast is undefined, so AsInt() stays 0.
      out.int_number_ = static_cast<std::int64_t>(out.number_);
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const Member& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const JsonValue* JsonValue::FindObject(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_object() ? v : nullptr;
}

const JsonValue* JsonValue::FindArray(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_array() ? v : nullptr;
}

const JsonValue* JsonValue::FindNumber(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v : nullptr;
}

const JsonValue* JsonValue::FindString(std::string_view key) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v : nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) { return JsonParser(text).Parse(); }

Status json_internal::MemberError(std::string_view key, bool present, const std::string& shape) {
  const std::string name = "'" + std::string(key) + "'";
  return Status::DataLoss(present ? name + " is not " + shape : "missing " + name);
}

Status ForEachJsonLine(std::string_view text, std::string_view what,
                       const std::function<Status(const JsonValue&)>& fn) {
  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    Result<JsonValue> parsed = ParseJson(line);
    if (Status status = parsed.ok() ? fn(*parsed) : parsed.status(); !status.ok()) {
      return Status::DataLoss(std::string(what) + " line " + std::to_string(line_number) + ": " +
                              status.message());
    }
  }
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("error reading '" + path + "'");
  }
  return std::move(buffer).str();
}

Status WriteTextFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.put('\n');
  out.flush();
  if (!out) {
    return Status::IoError("write to " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace coopfs
