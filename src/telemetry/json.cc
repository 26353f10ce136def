#include "telemetry/json.h"

#include <cctype>
#include <cstdio>
#include <utility>

#include "util/env.h"

namespace tapo::telemetry {

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

Json Json::make_null() { return Json{}; }
Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}
Json Json::make_number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = d;
  return j;
}
Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}
Json Json::make_array(std::vector<Json> a) {
  Json j;
  j.type_ = Type::kArray;
  j.arr_ = std::move(a);
  return j;
}
Json Json::make_object(std::map<std::string, Json> o) {
  Json j;
  j.type_ = Type::kObject;
  j.obj_ = std::move(o);
  return j;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Json> parse() {
    skip_ws();
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return v;
  }

 private:
  std::optional<Json> fail(const std::string& msg) {
    if (error_ && error_->empty()) {
      *error_ = "offset " + std::to_string(pos_) + ": " + msg;
    }
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json::make_string(std::move(*s));
    }
    if (literal("true")) return Json::make_bool(true);
    if (literal("false")) return Json::make_bool(false);
    if (literal("null")) return Json::make_null();
    return number();
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    const auto d = util::parse_double(tok);
    if (!d) return fail("bad number '" + tok + "'");
    return Json::make_number(*d);
  }

  std::optional<std::string> string() {
    if (!consume('"')) {
      fail("expected '\"'");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            // Decode to a single byte when in range; multi-byte code
            // points are not produced by our exporters.
            const auto hex = util::parse_hex_u16(text_.substr(pos_, 4));
            if (!hex) {
              fail("bad \\u escape");
              return std::nullopt;
            }
            const unsigned cp = *hex;
            pos_ += 4;
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else {
              out += '?';
            }
            break;
          }
          default:
            fail("bad escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> array() {
    consume('[');
    std::vector<Json> items;
    skip_ws();
    if (consume(']')) return Json::make_array(std::move(items));
    while (true) {
      skip_ws();
      auto v = value();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Json::make_array(std::move(items));
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  std::optional<Json> object() {
    consume('{');
    std::map<std::string, Json> members;
    skip_ws();
    if (consume('}')) return Json::make_object(std::move(members));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      auto v = value();
      if (!v) return std::nullopt;
      members.emplace(std::move(*key), std::move(*v));
      skip_ws();
      if (consume('}')) return Json::make_object(std::move(members));
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> json_parse(const std::string& text, std::string* error) {
  return Parser(text, error).parse();
}

}  // namespace tapo::telemetry
