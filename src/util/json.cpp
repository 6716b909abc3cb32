#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace cmmfo::util {

void putDouble(std::string& out, double v) {
  // to_chars in general format at a given precision is specified as printf
  // %.*g, so these are the %.17g bytes, without the format-string parse.
  char buf[40];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void putDoubleOrNull(std::string& out, double v) {
  if (std::isfinite(v))
    putDouble(out, v);
  else
    out += "null";
}

void putInt(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void putU64(std::string& out, std::uint64_t v) {
  out += '"';
  putU64Bare(out, v);
  out += '"';
}

void putU64Bare(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void putVec(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    putDouble(out, v[i]);
  }
  out += ']';
}

void putVecOrNull(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    putDoubleOrNull(out, v[i]);
  }
  out += ']';
}

std::string jsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void putString(std::string& out, std::string_view s) {
  out += '"';
  out += jsonEscaped(s);
  out += '"';
}

bool writeTextTo(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
    return true;
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(f);
}

double Json::numOr(const char* key, double def) const {
  const Json* j = find(key);
  return j && j->kind == kNum ? j->num : def;
}

std::string Json::strOr(const char* key, const std::string& def) const {
  const Json* j = find(key);
  return j && j->kind == kStr ? j->str : def;
}

namespace {

struct Parser {
  const char* p;
  const char* end;
  std::string error;

  explicit Parser(const std::string& s)
      : p(s.data()), end(s.data() + s.size()) {}

  void skipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool fail(const char* msg) {
    if (error.empty()) error = msg;
    return false;
  }

  bool parseValue(Json& out) {
    skipWs();
    if (p >= end) return fail("unexpected end of input");
    switch (*p) {
      case '{': return parseObject(out);
      case '[': return parseArray(out);
      case '"': out.kind = Json::kStr; return parseString(out.str);
      case 't':
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
          out.kind = Json::kBool; out.b = true; p += 4; return true;
        }
        return fail("bad literal");
      case 'f':
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
          out.kind = Json::kBool; out.b = false; p += 5; return true;
        }
        return fail("bad literal");
      case 'n':
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
          out.kind = Json::kNull; p += 4; return true;
        }
        return fail("bad literal");
      default: {
        char* num_end = nullptr;
        out.num = std::strtod(p, &num_end);
        if (num_end == p) return fail("bad number");
        out.kind = Json::kNum;
        p = num_end;
        return true;
      }
    }
  }

  bool parseString(std::string& out) {
    ++p;  // opening quote
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (++p >= end) return fail("bad escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return fail("bad \\u escape");
            char hex[5] = {p[1], p[2], p[3], p[4], 0};
            char* hex_end = nullptr;
            const unsigned long cp = std::strtoul(hex, &hex_end, 16);
            if (hex_end != hex + 4) return fail("bad \\u escape");
            // The writers only emit \u00XX for control bytes; anything in
            // the Latin-1 range round-trips as a single byte.
            if (cp > 0xFF) return fail("unsupported \\u codepoint");
            out += static_cast<char>(cp);
            p += 4;
            break;
          }
          default: return fail("unsupported escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parseArray(Json& out) {
    out.kind = Json::kArr;
    ++p;
    skipWs();
    if (p < end && *p == ']') { ++p; return true; }
    for (;;) {
      Json v;
      if (!parseValue(v)) return false;
      out.arr.push_back(std::move(v));
      skipWs();
      if (p < end && *p == ',') { ++p; continue; }
      if (p < end && *p == ']') { ++p; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(Json& out) {
    out.kind = Json::kObj;
    ++p;
    skipWs();
    if (p < end && *p == '}') { ++p; return true; }
    for (;;) {
      skipWs();
      if (p >= end || *p != '"') return fail("expected object key");
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      Json v;
      if (!parseValue(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skipWs();
      if (p < end && *p == ',') { ++p; continue; }
      if (p < end && *p == '}') { ++p; return true; }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

bool parseJson(const std::string& text, Json* out, std::string* error) {
  Parser parser(text);
  Json v;
  if (!parser.parseValue(v)) {
    if (error) *error = parser.error;
    return false;
  }
  parser.skipWs();
  if (parser.p != parser.end) {
    if (error) *error = "trailing garbage after JSON value";
    return false;
  }
  *out = std::move(v);
  return true;
}

bool getU64(const Json& j, std::uint64_t& out) {
  if (j.kind == Json::kStr) {
    out = std::strtoull(j.str.c_str(), nullptr, 10);
    return true;
  }
  if (j.kind == Json::kNum) {
    out = static_cast<std::uint64_t>(j.num);
    return true;
  }
  return false;
}

bool getVec(const Json& j, std::vector<double>& out) {
  if (j.kind != Json::kArr) return false;
  out.clear();
  out.reserve(j.arr.size());
  for (const Json& e : j.arr) {
    if (e.kind != Json::kNum) return false;
    out.push_back(e.num);
  }
  return true;
}

}  // namespace cmmfo::util
