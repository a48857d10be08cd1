#include "server/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace tswarp::server {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

void AppendJsonNumber(std::string* out, double d) {
  // Integers print without an exponent or trailing ".0" (match counts,
  // stats counters); everything else takes the shortest round-trip form.
  if (d == 0.0) {  // Covers -0.0: the sign bit is protocol noise.
    out->push_back('0');
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  (void)ec;  // 32 bytes always suffice for the shortest double form.
  out->append(buf, end);
}

void AppendJsonString(std::string* out, std::string_view s) {
  // Characters with a short escape, and the letter each escapes to.
  static constexpr std::string_view kRaw = "\"\\\n\r\t";
  static constexpr std::string_view kEscaped = "\"\\nrt";
  out->push_back('"');
  for (const char c : s) {
    if (const std::size_t i = kRaw.find(c); i != std::string_view::npos) {
      out->push_back('\\');
      out->push_back(kEscaped[i]);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_->push_back(bracket);
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_->push_back(bracket);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Number(double d) {
  Separate();
  AppendJsonNumber(out_, d);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  AppendJsonString(out_, s);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool b) {
  Separate();
  out_->append(b ? "true" : "false");
  need_comma_ = true;
  return *this;
}

/// Recursive-descent parser over a string_view with a depth cap. Keeps a
/// byte cursor for error messages. The only code that builds a JsonValue.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWs();
    TSW_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing garbage after the JSON document");
    }
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue(std::size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      JsonValue v(JsonValue::Kind::kString);
      TSW_ASSIGN_OR_RETURN(v.string_, ParseString());
      return v;
    }
    const bool is_true = ConsumeWord("true");
    if (is_true || ConsumeWord("false")) {
      JsonValue v(JsonValue::Kind::kBool);
      v.bool_ = is_true;
      return v;
    }
    if (ConsumeWord("null")) return JsonValue();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    double d = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      return Error("malformed number");
    }
    if (!std::isfinite(d)) {
      pos_ = start;
      return Error("number out of range");
    }
    JsonValue v(JsonValue::Kind::kNumber);
    v.number_ = d;
    return v;
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      // Single-letter escapes, and the character each stands for.
      static constexpr std::string_view kLetters = "\"\\/bfnrt";
      static constexpr std::string_view kChars = "\"\\/\b\f\n\r\t";
      const char e = text_[pos_++];
      if (const std::size_t i = kLetters.find(e);
          i != std::string_view::npos) {
        out.push_back(kChars[i]);
        continue;
      }
      if (e != 'u') return Error("unknown escape");
      if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
      pos_ += static_cast<std::size_t>(end - hex);
      if (ec != std::errc() || end != hex + 4) {
        ++pos_;  // The error names the byte after the bad digit.
        return Error("bad hex digit in \\u escape");
      }
      // BMP only; surrogate pairs are rejected (the protocol carries
      // numbers and ASCII identifiers — full UTF-16 pairing would be
      // dead code here).
      if (code >= 0xD800 && code <= 0xDFFF) {
        return Error("surrogate \\u escapes are unsupported");
      }
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    }
  }

  StatusOr<JsonValue> ParseArray(std::size_t depth) {
    Consume('[');
    JsonValue out(JsonValue::Kind::kArray);
    SkipWs();
    if (Consume(']')) return out;
    while (true) {
      SkipWs();
      TSW_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      out.array_.push_back(std::move(v));
      SkipWs();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<JsonValue> ParseObject(std::size_t depth) {
    Consume('{');
    JsonValue out(JsonValue::Kind::kObject);
    SkipWs();
    if (Consume('}')) return out;
    while (true) {
      SkipWs();
      TSW_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWs();
      TSW_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      if (!out.object_.try_emplace(key, std::move(v)).second) {
        return Error("duplicate object key \"" + key + "\"");
      }
      SkipWs();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace tswarp::server
