#ifndef TSWARP_SERVER_JSON_H_
#define TSWARP_SERVER_JSON_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tswarp::server {

class JsonParser;

/// A parsed JSON document of the tswarpd wire protocol: the result of
/// ParseJson, read-only. Objects are map-backed, arrays vector-backed —
/// the right weight for small request bodies, with no external
/// dependency. Responses are not built as documents: JsonWriter streams
/// them.
///
/// Deliberate strictness (each of these is a protocol test): input must be
/// a single JSON value with nothing but whitespace after it, numbers must
/// be finite, strings must be valid escape sequences (\uXXXX is accepted
/// for ASCII and encoded as UTF-8 for the BMP), and nesting depth is
/// capped so a hostile body cannot blow the stack.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  /// Ordered map: iteration is deterministic.
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;

 private:
  friend class JsonParser;
  explicit JsonValue(Kind kind) : kind_(kind) {}

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses `text` as one strict JSON document. On failure the status
/// message names the byte offset and what was expected.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Appends `d` to `out` in the canonical wire format: shortest
/// round-trip decimal (std::to_chars, so integers carry no exponent or
/// ".0"), "-0" normalized to "0". Equal inputs give equal bytes.
void AppendJsonNumber(std::string* out, double d);

/// Appends the JSON string literal (quotes + escapes) for `s`.
void AppendJsonString(std::string* out, std::string_view s);

/// The one serializer of tswarpd response bodies: streams compact JSON
/// into `*out` straight from the data it reports, keeping the comma
/// state; numbers go through AppendJsonNumber, strings through
/// AppendJsonString. The caller writes each object's keys in ascending
/// byte order (the protocol's canonical order, pinned by the
/// tests/data/server goldens) and balances every Begin with its End.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);
  JsonWriter& Number(double d);
  JsonWriter& String(std::string_view s);
  JsonWriter& Bool(bool b);

 private:
  /// Writes the comma owed before a value or key.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string* out_;
  // True once the innermost container holds a value, so the next one
  // needs a comma; false after a Begin or a Key.
  bool need_comma_ = false;
};

}  // namespace tswarp::server

#endif  // TSWARP_SERVER_JSON_H_
