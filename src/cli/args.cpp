#include "cli/args.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "io/json.h"

namespace cmdsmc::cli {

namespace {

std::string join(const std::vector<std::string>& items) {
  std::ostringstream os;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ", ";
    os << items[i];
  }
  return os.str();
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::vector<KeyValue> parse_key_values(
    const std::vector<std::string>& tokens) {
  std::vector<KeyValue> out;
  out.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      throw ArgError("expected key=value, got '" + tok + "'");
    if (eq == 0) throw ArgError("empty key in '" + tok + "'");
    out.push_back({tok.substr(0, eq), tok.substr(eq + 1)});
  }
  return out;
}

std::vector<KeyValue> parse_key_values(int argc, char** argv, int start) {
  std::vector<std::string> tokens;
  for (int i = start; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse_key_values(tokens);
}

int parse_int(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end == value.c_str() || *end != '\0')
    throw ArgError(key + ": '" + value + "' is not an integer");
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX)
    throw ArgError(key + ": '" + value + "' is out of integer range");
  return static_cast<int>(v);
}

std::uint64_t parse_uint64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  // Base 0 so seeds can be given in hex (seed=0x5eed).
  const unsigned long long v = std::strtoull(value.c_str(), &end, 0);
  if (value.empty() || end == value.c_str() || *end != '\0' ||
      value.front() == '-')
    throw ArgError(key + ": '" + value + "' is not an unsigned integer");
  if (errno == ERANGE)
    throw ArgError(key + ": '" + value + "' is out of range");
  return static_cast<std::uint64_t>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == value.c_str() || *end != '\0')
    throw ArgError(key + ": '" + value + "' is not a number");
  if (errno == ERANGE)
    throw ArgError(key + ": '" + value + "' is out of range");
  // strtod accepts "nan" and "inf"; no option takes a non-finite value.
  if (!std::isfinite(v))
    throw ArgError(key + ": '" + value + "' is not a finite number");
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  const std::string v = lower(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  throw ArgError(key + ": '" + value + "' is not a boolean (use 0/1, "
                 "true/false, on/off, yes/no)");
}

void throw_unknown_key(const std::string& key,
                       const std::vector<std::string>& valid) {
  throw ArgError("unknown key '" + key + "'; valid keys: " + join(valid));
}

void throw_bad_choice(const std::string& key, const std::string& value,
                      const std::vector<std::string>& choices) {
  throw ArgError(key + ": '" + value + "' is not one of: " + join(choices));
}

std::string error_json(const std::string& type, const std::string& message) {
  std::string out = "{\"error\": {\"type\": \"";
  io::json_escape(out, type);
  out += "\", \"message\": \"";
  io::json_escape(out, message);
  out += "\"}}";
  return out;
}

int error_exit_code(const std::exception& e) {
  if (dynamic_cast<const ArgError*>(&e) != nullptr) return 2;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) return 2;
  return 3;
}

const char* error_type(const std::exception& e) {
  if (dynamic_cast<const ArgError*>(&e) != nullptr) return "usage";
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return "config";
  return "runtime";
}

}  // namespace cmdsmc::cli
