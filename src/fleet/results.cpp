#include "fleet/results.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "io/json.h"

namespace cmdsmc::fleet {

namespace {

using io::json_escape;

void append_string_field(std::string& out, const char* key,
                         const std::string& value, bool comma = true) {
  if (comma) out += ", ";
  out += '"';
  out += key;
  out += "\": \"";
  json_escape(out, value);
  out += '"';
}

void append_number_field(std::string& out, const char* key, double value) {
  out += ", \"";
  out += key;
  out += "\": ";
  if (!std::isfinite(value)) {
    // JSON has no nan/inf; a diverged run's metrics become null (read back
    // as NaN by from_json_line).
    out += "null";
    return;
  }
  char buf[40];
  // %.17g round-trips every finite double exactly: a cached record replayed
  // from the manifest carries bit-identical metrics to the original run.
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_u64_field(std::string& out, const char* key, std::uint64_t value) {
  out += ", \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
}

// --- Minimal JSON reader for records this subsystem wrote ------------------
// Flat object of string / number / bool fields plus one nested flat object
// of string fields ("params").  Returns false on anything else.

struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return i < s.size() && s[i] == c;
  }
};

bool parse_json_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.i >= c.s.size()) return false;
      const char esc = c.s[c.i++];
      switch (esc) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u':
          // Only ever written for control chars; decode the code unit
          // as a single byte (it is always < 0x20 in our own output).
          if (c.i + 4 > c.s.size()) return false;
          out += static_cast<char>(
              std::strtol(c.s.substr(c.i, 4).c_str(), nullptr, 16));
          c.i += 4;
          break;
        default: out += esc;
      }
    } else {
      out += ch;
    }
  }
  return false;  // unterminated
}

// A number / true / false / null, captured as raw text.
bool parse_json_scalar(Cursor& c, std::string& out) {
  c.skip_ws();
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i];
    if (ch == ',' || ch == '}' || ch == ' ' || ch == '\t' || ch == '\n' ||
        ch == '\r')
      break;
    out += ch;
    ++c.i;
  }
  return !out.empty();
}

// {"k": "v", ...} of string values only.
bool parse_flat_string_object(Cursor& c, std::vector<cli::KeyValue>& out) {
  if (!c.eat('{')) return false;
  out.clear();
  if (c.eat('}')) return true;
  while (true) {
    cli::KeyValue kv;
    if (!parse_json_string(c, kv.key)) return false;
    if (!c.eat(':')) return false;
    if (!parse_json_string(c, kv.value)) return false;
    out.push_back(std::move(kv));
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

struct ParsedRecord {
  std::vector<cli::KeyValue> strings;  // string fields, in order
  std::vector<cli::KeyValue> scalars;  // number/bool fields, raw text
  std::vector<cli::KeyValue> params;
};

bool parse_record(const std::string& line, ParsedRecord& out) {
  Cursor c{line};
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  while (true) {
    std::string key;
    if (!parse_json_string(c, key)) return false;
    if (!c.eat(':')) return false;
    if (c.peek('"')) {
      std::string v;
      if (!parse_json_string(c, v)) return false;
      out.strings.push_back({key, std::move(v)});
    } else if (c.peek('{')) {
      if (key != "params") return false;
      if (!parse_flat_string_object(c, out.params)) return false;
    } else {
      std::string v;
      if (!parse_json_scalar(c, v)) return false;
      out.scalars.push_back({key, std::move(v)});
    }
    if (c.eat('}')) break;
    if (!c.eat(',')) return false;
  }
  c.skip_ws();
  return c.i == line.size();
}

const std::string* find(const std::vector<cli::KeyValue>& kvs,
                        const char* key) {
  for (const cli::KeyValue& kv : kvs)
    if (kv.key == key) return &kv.value;
  return nullptr;
}

bool to_u64(const std::string& s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0' && errno == 0;
}

bool to_double(const std::string& s, double& out) {
  if (s == "null") {
    // to_json_line writes non-finite metrics as null; round-trip as NaN.
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

void append_summary(std::string& out, const FleetSummary& s) {
  out += "\"jobs\": " + std::to_string(s.jobs);
  out += ", \"completed\": " + std::to_string(s.completed);
  out += ", \"cached\": " + std::to_string(s.cached);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"skipped\": " + std::to_string(s.skipped);
  append_number_field(out, "elapsed_seconds", s.elapsed_seconds);
  append_number_field(out, "jobs_per_second", s.jobs_per_second);
}

}  // namespace

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kDone: return "done";
    case JobStatus::kCached: return "cached";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kSkipped: return "skipped";
  }
  return "?";
}

std::string JobRecord::to_json_line() const {
  std::string out = "{\"event\": \"job\"";
  append_u64_field(out, "index", index);
  append_string_field(out, "name", name);
  append_string_field(out, "scenario", scenario);
  append_string_field(out, "hash", hash);
  append_string_field(out, "status", job_status_name(status));
  append_u64_field(out, "seed", seed);
  out += ", \"params\": {";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    json_escape(out, params[i].key);
    out += "\": \"";
    json_escape(out, params[i].value);
    out += '"';
  }
  out += '}';
  append_number_field(out, "seconds", seconds);
  if (status == JobStatus::kFailed) append_string_field(out, "error", error);
  out += ", \"has_surface\": ";
  out += has_surface ? "true" : "false";
  append_number_field(out, "cd", cd);
  append_number_field(out, "cl", cl);
  append_number_field(out, "cp_max", cp_max);
  append_number_field(out, "heat_total", heat_total);
  append_u64_field(out, "collisions", collisions);
  append_u64_field(out, "candidates", candidates);
  append_u64_field(out, "flow", flow);
  append_u64_field(out, "steps", static_cast<std::uint64_t>(steps));
  append_number_field(out, "usec_per_particle_step", usec_per_particle_step);
  out += '}';
  return out;
}

std::optional<JobRecord> JobRecord::from_json_line(const std::string& line) {
  ParsedRecord p;
  if (!parse_record(line, p)) return std::nullopt;
  const std::string* event = find(p.strings, "event");
  if (event == nullptr || *event != "job") return std::nullopt;

  JobRecord r;
  const std::string* status = find(p.strings, "status");
  if (status == nullptr) return std::nullopt;
  if (*status == "done") r.status = JobStatus::kDone;
  else if (*status == "cached") r.status = JobStatus::kCached;
  else if (*status == "failed") r.status = JobStatus::kFailed;
  else if (*status == "skipped") r.status = JobStatus::kSkipped;
  else return std::nullopt;

  if (const std::string* v = find(p.strings, "name")) r.name = *v;
  if (const std::string* v = find(p.strings, "scenario")) r.scenario = *v;
  if (const std::string* v = find(p.strings, "hash")) r.hash = *v;
  if (const std::string* v = find(p.strings, "error")) r.error = *v;
  r.params = p.params;

  std::uint64_t u = 0;
  double d = 0.0;
  if (const std::string* v = find(p.scalars, "index"); v && to_u64(*v, u))
    r.index = static_cast<std::size_t>(u);
  if (const std::string* v = find(p.scalars, "seed")) {
    if (!to_u64(*v, u)) return std::nullopt;
    r.seed = u;
  } else {
    return std::nullopt;
  }
  if (const std::string* v = find(p.scalars, "seconds"); v && to_double(*v, d))
    r.seconds = d;
  if (const std::string* v = find(p.scalars, "has_surface"))
    r.has_surface = (*v == "true");
  if (const std::string* v = find(p.scalars, "cd"); v && to_double(*v, d))
    r.cd = d;
  if (const std::string* v = find(p.scalars, "cl"); v && to_double(*v, d))
    r.cl = d;
  if (const std::string* v = find(p.scalars, "cp_max"); v && to_double(*v, d))
    r.cp_max = d;
  if (const std::string* v = find(p.scalars, "heat_total");
      v && to_double(*v, d))
    r.heat_total = d;
  if (const std::string* v = find(p.scalars, "collisions"); v && to_u64(*v, u))
    r.collisions = u;
  if (const std::string* v = find(p.scalars, "candidates"); v && to_u64(*v, u))
    r.candidates = u;
  if (const std::string* v = find(p.scalars, "flow"); v && to_u64(*v, u))
    r.flow = u;
  if (const std::string* v = find(p.scalars, "steps"); v && to_u64(*v, u))
    r.steps = static_cast<std::int64_t>(u);
  if (const std::string* v = find(p.scalars, "usec_per_particle_step");
      v && to_double(*v, d))
    r.usec_per_particle_step = d;
  return r;
}

std::vector<JobRecord> load_manifest(const std::string& path) {
  std::vector<JobRecord> records;
  std::ifstream is(path);
  if (!is) return records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (auto rec = JobRecord::from_json_line(line))
      records.push_back(std::move(*rec));
    // Malformed lines (torn writes from a killed fleet) are skipped: the
    // job simply reruns on resume.
  }
  return records;
}

std::unordered_map<std::string, JobRecord> build_result_cache(
    const std::vector<JobRecord>& records) {
  std::unordered_map<std::string, JobRecord> cache;
  for (const JobRecord& r : records)
    if ((r.status == JobStatus::kDone || r.status == JobStatus::kCached) &&
        !r.hash.empty())
      cache[r.hash] = r;
  return cache;
}

FleetSummary summarize(const std::vector<JobRecord>& records,
                       double elapsed_seconds) {
  FleetSummary s;
  s.jobs = records.size();
  for (const JobRecord& r : records) {
    switch (r.status) {
      case JobStatus::kDone: ++s.completed; break;
      case JobStatus::kCached: ++s.cached; break;
      case JobStatus::kFailed: ++s.failed; break;
      case JobStatus::kSkipped: ++s.skipped; break;
    }
  }
  s.elapsed_seconds = elapsed_seconds;
  if (elapsed_seconds > 0.0)
    s.jobs_per_second = static_cast<double>(s.completed) / elapsed_seconds;
  return s;
}

std::string aggregate_json(const FleetMeta& meta, const FleetSummary& summary,
                           std::vector<JobRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  std::string out = "{\n  \"fleet\": {\"scenario\": \"";
  json_escape(out, meta.scenario);
  out += "\", \"axes\": [";
  for (std::size_t i = 0; i < meta.axis_keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    json_escape(out, meta.axis_keys[i]);
    out += '"';
  }
  out += "], \"fleet_threads\": " + std::to_string(meta.fleet_threads);
  out += ", \"job_threads\": " + std::to_string(meta.job_threads);
  out += ", ";
  append_summary(out, summary);
  out += "},\n  \"table\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += "    ";
    out += records[i].to_json_line();
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

void write_aggregate(const std::string& path, const FleetMeta& meta,
                     const FleetSummary& summary,
                     const std::vector<JobRecord>& records) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("fleet: cannot open " + path);
  os << aggregate_json(meta, summary, records);
  if (!os) throw std::runtime_error("fleet: write failed on " + path);
}

}  // namespace cmdsmc::fleet
