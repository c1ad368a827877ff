// JSON string escaping shared by every JSON writer (CLI error lines, the
// run summary, fleet manifests/aggregates and serve events).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace cmdsmc::io {

// Appends `s` to `out` as the body of a JSON string literal: quotes and
// backslashes are escaped, \n \t \r use their short escapes, and every other
// control byte below 0x20 becomes \u00XX — so the output never holds a raw
// control character and a one-line record stays one line.
inline void json_escape(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace cmdsmc::io
