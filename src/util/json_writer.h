#ifndef TSC_UTIL_JSON_WRITER_H_
#define TSC_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsc {

/// Minimal streaming JSON builder shared by the observability snapshot
/// serializer and the benchmark --json reporters. Emits compact JSON with
/// automatic comma placement; the caller is responsible for balancing
/// Begin/End calls (checked in debug builds).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by a value or Begin call.
  JsonWriter& Key(std::string_view name);

  JsonWriter& Value(std::string_view text);
  JsonWriter& Value(const char* text) { return Value(std::string_view(text)); }
  /// The shortest decimal that parses back to the same double
  /// (std::to_chars); non-finite values become null.
  JsonWriter& Value(double number);
  JsonWriter& Value(std::uint64_t number);
  JsonWriter& Value(std::int64_t number);
  JsonWriter& Value(bool flag);
  JsonWriter& Null();

  /// Splices pre-serialized JSON (a number, or a whole sub-document such
  /// as another writer's str()) in verbatim as one value.
  JsonWriter& RawValue(std::string_view json);

  /// Shorthand for Key(name).Value(value).
  template <typename T>
  JsonWriter& KV(std::string_view name, T&& value) {
    Key(name);
    return Value(std::forward<T>(value));
  }

  /// The JSON text produced so far.
  const std::string& str() const { return out_; }
  /// Moves the JSON text out without a copy; the writer is spent.
  std::string Release() { return std::move(out_); }

  /// JSON string escaping (quotes not included).
  static std::string Escape(std::string_view text);

 private:
  void MaybeComma();

  std::string out_;
  /// One entry per open container: true once a first element was written.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace tsc

#endif  // TSC_UTIL_JSON_WRITER_H_
