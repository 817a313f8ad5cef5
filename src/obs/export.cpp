#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>

#include "util/check.h"
#include "util/format.h"

namespace ehdnn::obs {

namespace {

// Fixed-width microsecond timestamp: deterministic bytes, sub-ns
// resolution (Perfetto sorts on the numeric value either way).
std::string us(double t_s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", t_s * 1e6);
  return buf;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceCapture>& traces) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& line) {
    os << (first ? "\n" : ",\n") << line;
    first = false;
  };
  for (const TraceCapture& tc : traces) {
    const std::string pid = std::to_string(tc.id);
    emit("{\"ph\":\"M\",\"pid\":" + pid +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
         json_str(tc.label) + "}}");
    emit("{\"ph\":\"M\",\"pid\":" + pid +
         ",\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"lifecycle\"}}");
    emit("{\"ph\":\"M\",\"pid\":" + pid +
         ",\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"spans\"}}");

    // Duration synthesis: checkpoint begin→end pairs, and job
    // release→complete/miss spans keyed by job index. A begin whose end
    // fell off the ring (or vice versa) degrades to the instants alone.
    double ckpt_begin_ts = -1.0;
    std::map<std::int32_t, double> job_release_ts;
    for (const Event& e : tc.events) {
      emit("{\"ph\":\"i\",\"pid\":" + pid + ",\"tid\":0,\"ts\":" + us(e.t_s) +
           ",\"s\":\"t\",\"name\":\"" + event_name(e.kind) +
           "\",\"args\":{\"a\":" + std::to_string(e.a) +
           ",\"b\":" + std::to_string(e.b) + "}}");
      switch (e.kind) {
        case EventKind::kCheckpointBegin:
          ckpt_begin_ts = e.t_s;
          break;
        case EventKind::kCheckpointEnd:
          if (ckpt_begin_ts >= 0.0) {
            char dur[64];
            std::snprintf(dur, sizeof dur, "%.3f", (e.t_s - ckpt_begin_ts) * 1e6);
            emit("{\"ph\":\"X\",\"pid\":" + pid + ",\"tid\":1,\"ts\":" +
                 us(ckpt_begin_ts) + ",\"dur\":" + dur +
                 ",\"name\":\"checkpoint\",\"args\":{\"seq\":" + std::to_string(e.a) +
                 "}}");
            ckpt_begin_ts = -1.0;
          }
          break;
        case EventKind::kJobRelease:
          job_release_ts[e.a] = e.t_s;
          break;
        case EventKind::kJobComplete:
        case EventKind::kJobMiss: {
          const auto it = job_release_ts.find(e.a);
          if (it != job_release_ts.end()) {
            char dur[64];
            std::snprintf(dur, sizeof dur, "%.3f", (e.t_s - it->second) * 1e6);
            emit("{\"ph\":\"X\",\"pid\":" + pid + ",\"tid\":1,\"ts\":" +
                 us(it->second) + ",\"dur\":" + dur + ",\"name\":\"job " +
                 std::to_string(e.a) + "\",\"args\":{\"" +
                 (e.kind == EventKind::kJobComplete ? "in_deadline" : "missed") +
                 "\":" + std::to_string(e.kind == EventKind::kJobComplete ? e.b : 1) +
                 "}}");
            job_release_ts.erase(it);
          }
          break;
        }
        default:
          break;
      }
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_text_trace(std::ostream& os, const std::vector<TraceCapture>& traces) {
  os << "# ehdnn-trace-text-v1\n";
  for (const TraceCapture& tc : traces) {
    os << "trace " << tc.id << " label=\"" << tc.label << "\" total=" << tc.total
       << " retained=" << tc.events.size() << " dropped=" << tc.dropped << "\n";
    char ts[64];
    for (const Event& e : tc.events) {
      std::snprintf(ts, sizeof ts, "%.9f", e.t_s);
      os << "  " << ts << " " << event_name(e.kind) << " a=" << e.a << " b=" << e.b
         << "\n";
    }
  }
}

void write_trace_files(const std::vector<TraceCapture>& traces,
                       const std::string& chrome_path, const std::string& text_path,
                       const char* tool) {
  const auto write_one = [&](const std::string& path, auto writer) {
    if (path.empty()) return;
    std::ofstream f(path);
    check_input(f.good(), "cannot write " + path);
    writer(f, traces);
    std::fprintf(stderr, "%s: %zu trace tracks -> %s\n", tool, traces.size(), path.c_str());
  };
  write_one(chrome_path, write_chrome_trace);
  write_one(text_path, write_text_trace);
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& reg,
                        const std::string& indent) {
  os << indent << "\"metrics\": {\n";
  os << indent << "  \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : reg.counters()) {
    os << (first ? "\n" : ",\n") << indent << "    " << json_str(k) << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n" + indent + "  ") << "},\n";
  os << indent << "  \"gauges\": {";
  first = true;
  for (const auto& [k, v] : reg.gauges()) {
    os << (first ? "\n" : ",\n") << indent << "    " << json_str(k) << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n" + indent + "  ") << "}\n";
  os << indent << "}";
}

}  // namespace ehdnn::obs
