// Schema validator for the telemetry artifact directory the benches emit
// with --telemetry-out=<dir>. Used by ctest (telemetry_schema_validate) to
// prove the exporters write what they promise:
//
//   trace.json    {"traceEvents":[...]} — every event has ph/pid/tid/ts/name;
//                 "X" (stall span) events additionally have dur and a
//                 "stall:<cause>" name with args.cause; "M" metadata events
//                 name the run processes.
//   trace.jsonl   one JSON object per line with kind/ts_us/flow.
//   metrics.prom  Prometheus text exposition: "# TYPE <name> <kind>" headers
//                 and "<name>[{labels}] <number>" samples; histogram le
//                 buckets must be cumulative (monotone non-decreasing).
//   metrics.json  {"metrics":[...]} — every entry has name/type and a value
//                 (counter/gauge) or buckets/count/sum (histogram).
//
// Exits 0 when every check passes, 1 with one line per failure otherwise.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "util/env.h"

namespace {

using tapo::telemetry::Json;
using tapo::telemetry::json_parse;

int g_failures = 0;

void fail(const std::string& file, const std::string& msg) {
  std::fprintf(stderr, "FAIL %s: %s\n", file.c_str(), msg.c_str());
  ++g_failures;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool has_number(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->type() == Json::Type::kNumber;
}

bool has_string(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->type() == Json::Type::kString;
}

void check_chrome_trace(const std::filesystem::path& path) {
  const std::string file = path.filename().string();
  std::string error;
  const auto doc = json_parse(read_file(path), &error);
  if (!doc) return fail(file, "not valid JSON: " + error);
  const Json* events = doc->find("traceEvents");
  if (events == nullptr || events->type() != Json::Type::kArray)
    return fail(file, "missing traceEvents array");
  std::size_t stall_spans = 0;
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const Json& ev = events->array()[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (ev.type() != Json::Type::kObject) return fail(file, where + " not an object");
    if (!has_string(ev, "ph") || !has_string(ev, "name") ||
        !has_number(ev, "pid") || !has_number(ev, "tid"))
      return fail(file, where + " missing ph/name/pid/tid");
    const std::string ph = ev.find("ph")->str();
    if (ph != "M" && !has_number(ev, "ts"))
      return fail(file, where + " (ph " + ph + ") missing ts");
    if (ph == "X") {
      if (!has_number(ev, "dur")) return fail(file, where + " X event missing dur");
      const std::string& name = ev.find("name")->str();
      if (name.rfind("stall:", 0) != 0)
        return fail(file, where + " X event not a stall span: " + name);
      const Json* args = ev.find("args");
      if (args == nullptr || args->find("cause") == nullptr)
        return fail(file, where + " stall span missing args.cause");
      ++stall_spans;
    }
  }
  std::printf("OK   %s: %zu events, %zu stall spans\n", file.c_str(),
              events->array().size(), stall_spans);
}

void check_jsonl(const std::filesystem::path& path) {
  const std::string file = path.filename().string();
  std::ifstream is(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    ++n;
    if (line.empty()) continue;
    std::string error;
    const auto doc = json_parse(line, &error);
    if (!doc)
      return fail(file, "line " + std::to_string(n) + " not valid JSON: " + error);
    if (!has_string(*doc, "kind") || !has_number(*doc, "ts_us") ||
        !has_number(*doc, "flow"))
      return fail(file, "line " + std::to_string(n) + " missing kind/ts_us/flow");
  }
  std::printf("OK   %s: %zu lines\n", file.c_str(), n);
}

bool is_metric_name(const std::string& s) {
  if (s.empty() || (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_'))
    return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  }
  return true;
}

void check_prometheus(const std::filesystem::path& path) {
  const std::string file = path.filename().string();
  std::ifstream is(path);
  std::string line;
  std::size_t n = 0, samples = 0;
  // Cumulative le-bucket monotonicity, per histogram series.
  std::map<std::string, double> last_bucket;
  while (std::getline(is, line)) {
    ++n;
    const std::string where = "line " + std::to_string(n);
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ss(line.substr(7));
      std::string name, kind;
      ss >> name >> kind;
      if (!is_metric_name(name) ||
          (kind != "counter" && kind != "gauge" && kind != "histogram"))
        return fail(file, where + " malformed # TYPE: " + line);
      continue;
    }
    if (line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) return fail(file, where + " no value: " + line);
    const std::string series = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    double v = std::numeric_limits<double>::infinity();
    if (value != "+Inf") {
      const auto parsed = tapo::util::parse_double(value);
      if (!parsed) return fail(file, where + " non-numeric value: " + value);
      v = *parsed;
    }
    const std::size_t brace = series.find('{');
    const std::string name = series.substr(0, brace);
    if (!is_metric_name(name)) return fail(file, where + " bad metric name: " + name);
    if (brace != std::string::npos && series.back() != '}')
      return fail(file, where + " unterminated label set: " + series);
    if (name.size() > 7 && name.rfind("_bucket") == name.size() - 7) {
      // One monotone sequence per label set minus the le label.
      std::string key = series;
      const std::size_t le = key.find("le=\"");
      if (le == std::string::npos)
        return fail(file, where + " _bucket sample without le label");
      key.erase(le, key.find('"', le + 4) - le + 1);
      auto [it, fresh] = last_bucket.try_emplace(key, v);
      if (!fresh && v + 1e-9 < it->second)
        return fail(file, where + " non-cumulative le buckets: " + series);
      it->second = v;
    }
    ++samples;
  }
  std::printf("OK   %s: %zu samples\n", file.c_str(), samples);
}

void check_metrics_json(const std::filesystem::path& path) {
  const std::string file = path.filename().string();
  std::string error;
  const auto doc = json_parse(read_file(path), &error);
  if (!doc) return fail(file, "not valid JSON: " + error);
  const Json* metrics = doc->find("metrics");
  if (metrics == nullptr || metrics->type() != Json::Type::kArray)
    return fail(file, "missing metrics array");
  for (std::size_t i = 0; i < metrics->array().size(); ++i) {
    const Json& m = metrics->array()[i];
    const std::string where = "metrics[" + std::to_string(i) + "]";
    if (!has_string(m, "name") || !has_string(m, "type"))
      return fail(file, where + " missing name/type");
    const std::string type = m.find("type")->str();
    if (type == "histogram") {
      const Json* buckets = m.find("buckets");
      if (buckets == nullptr || buckets->type() != Json::Type::kArray ||
          !has_number(m, "count") || !has_number(m, "sum"))
        return fail(file, where + " histogram missing buckets/count/sum");
    } else if (type == "counter" || type == "gauge") {
      if (!has_number(m, "value")) return fail(file, where + " missing value");
    } else {
      return fail(file, where + " unknown type: " + type);
    }
  }
  std::printf("OK   %s: %zu metrics\n", file.c_str(), metrics->array().size());
}

}  // namespace

int main(int argc, char** argv) {
  // --prom <file>: validate a single Prometheus exposition file (used by
  // the tapo_agg smoke test) instead of a full artifact directory.
  if (argc == 3 && std::string(argv[1]) == "--prom") {
    const std::filesystem::path prom = argv[2];
    if (!std::filesystem::exists(prom)) {
      fail(prom.string(), "missing");
    } else {
      check_prometheus(prom);
    }
    if (g_failures > 0) {
      std::fprintf(stderr, "%d check(s) failed\n", g_failures);
      return 1;
    }
    std::printf("prometheus file valid\n");
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <telemetry-artifact-dir> | --prom <file>\n",
                 argv[0]);
    return 1;
  }
  const std::filesystem::path dir = argv[1];
  for (const char* name :
       {"trace.json", "trace.jsonl", "metrics.prom", "metrics.json"}) {
    if (!std::filesystem::exists(dir / name)) fail(name, "missing");
  }
  if (g_failures == 0) {
    check_chrome_trace(dir / "trace.json");
    check_jsonl(dir / "trace.jsonl");
    check_prometheus(dir / "metrics.prom");
    check_metrics_json(dir / "metrics.json");
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all telemetry artifacts valid\n");
  return 0;
}
