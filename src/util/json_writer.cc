#include "util/json_writer.h"

#include <charconv>
#include <cmath>

namespace tsc {
namespace {

/// Appends `number` in decimal through std::to_chars.
template <typename T>
void AppendNumber(T number, std::string* out) {
  // 24 chars hold the longest shortest-round-trip double
  // ("-2.2250738585072014e-308") and any 64-bit integer.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), number);
  out->append(buffer, result.ptr);
}

/// Appends `text` JSON-escaped (quotes not included), copying the runs
/// that need no escape in one append each.
void AppendEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending verbatim run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

}  // namespace

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  has_element_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  has_element_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(name, &out_);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view text) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(text, &out_);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(double number) {
  MaybeComma();
  if (!std::isfinite(number)) {
    // JSON has no inf/nan; null keeps the document parseable.
    out_ += "null";
    return *this;
  }
  // The shortest text that parses back to the same double.
  AppendNumber(number, &out_);
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t number) {
  MaybeComma();
  AppendNumber(number, &out_);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t number) {
  MaybeComma();
  AppendNumber(number, &out_);
  return *this;
}

JsonWriter& JsonWriter::Value(bool flag) {
  MaybeComma();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  MaybeComma();
  out_ += json;
  return *this;
}

std::string JsonWriter::Escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  AppendEscaped(text, &escaped);
  return escaped;
}

}  // namespace tsc
