#include "net/json.h"

#include <cstdint>

#include "common/json_text.h"
#include "common/parse.h"

namespace juggler::net {

namespace {

const std::string kEmptyString;
const Json::Array kEmptyArray;
const Json::Object kEmptyObject;

/// Recursive-descent parser over a raw byte range. Error messages carry the
/// byte offset so malformed request bodies are diagnosable from logs.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    Json value;
    JUGGLER_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      // `depth` counts enclosing containers, so the check sits on the two
      // container openers: a document of exactly kMaxDepth nested
      // arrays/objects (scalars inside included) parses; kMaxDepth + 1 is
      // an error before any recursion toward stack exhaustion.
      case '{':
        if (depth >= Json::kMaxDepth) return Error("nesting too deep");
        return ParseObject(out, depth);
      case '[':
        if (depth >= Json::kMaxDepth) return Error("nesting too deep");
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        JUGGLER_RETURN_IF_ERROR(ParseString(&s));
        *out = Json::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Json::Bool(true), out);
      case 'f':
        return ParseLiteral("false", Json::Bool(false), out);
      case 'n':
        return ParseLiteral("null", Json::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(const char* literal, Json value, Json* out) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("expected '") + literal + "'");
      }
      ++pos_;
    }
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      return Error("invalid number");
    }
    // Grammar check first (strtod is laxer than JSON: it accepts hex, inf,
    // leading '+'), then let strtod produce the value.
    auto digits = [this] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    };
    if (text_[pos_] == '0') {
      ++pos_;  // Leading zero must not be followed by more digits.
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return Error("leading zero in number");
      }
    } else {
      digits();
    }
    if (Consume('.')) {
      const size_t frac_start = pos_;
      digits();
      if (pos_ == frac_start) return Error("missing digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp_start = pos_;
      digits();
      if (pos_ == exp_start) return Error("missing exponent digits");
    }
    const std::string token = text_.substr(start, pos_ - start);
    double value = 0.0;
    if (!ParseFiniteDouble(token, &value)) return Error("number out of range");
    *out = Json::Number(value);
    return Status::OK();
  }

  Status AppendUtf8(std::string* out, uint32_t code_point) {
    if (code_point <= 0x7F) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point <= 0x7FF) {
      out->push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point <= 0xFFFF) {
      out->push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code_point = 0;
          JUGGLER_RETURN_IF_ERROR(ParseHex4(&code_point));
          if (code_point >= 0xD800 && code_point <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!(Consume('\\') && Consume('u'))) {
              return Error("unpaired surrogate");
            }
            uint32_t low = 0;
            JUGGLER_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
          } else if (code_point >= 0xDC00 && code_point <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          JUGGLER_RETURN_IF_ERROR(AppendUtf8(out, code_point));
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Status ParseArray(Json* out, int depth) {
    Consume('[');
    *out = Json::Arr();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      Json element;
      JUGGLER_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Json* out, int depth) {
    Consume('{');
    *out = Json::Obj();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      JUGGLER_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Json value;
      JUGGLER_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::Bool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::Str(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::Arr() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Obj() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const std::string& Json::string_value() const {
  return is_string() ? string_ : kEmptyString;
}

const Json::Array& Json::array_items() const {
  return is_array() ? array_ : kEmptyArray;
}

const Json::Object& Json::object_items() const {
  return is_object() ? object_ : kEmptyObject;
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::NumberOr(const std::string& key, double fallback) const {
  const Json* found = Find(key);
  return (found != nullptr && found->is_number()) ? found->number_value()
                                                  : fallback;
}

std::string Json::StringOr(const std::string& key, std::string fallback) const {
  const Json* found = Find(key);
  return (found != nullptr && found->is_string()) ? found->string_value()
                                                  : std::move(fallback);
}

Json& Json::Set(std::string key, Json value) {
  if (!is_object()) *this = Obj();
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::Append(Json value) {
  if (!is_array()) *this = Arr();
  array_.push_back(std::move(value));
  return *this;
}

StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendJsonNumber(out, number_);
      break;
    case Type::kString:
      AppendJsonString(out, string_);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& element : array_) {
        if (!first) out->push_back(',');
        first = false;
        element.DumpTo(out);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, key);
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace juggler::net
