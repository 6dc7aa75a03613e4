#include "obs/trace_export.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace greencap::obs {

namespace {

constexpr int kWorkersPid = 1;
constexpr int kLinksPid = 2;
constexpr int kTelemetryPid = 3;
/// Trace convention: transfer spans use resource = 1000 + gpu index.
constexpr std::int32_t kLinkResourceBase = 1000;

void append_meta(std::string& out, bool& first, const char* kind, int pid, int tid,
                 const std::string& label) {
  out += first ? "\n    " : ",\n    ";
  first = false;
  out += "{\"name\": \"";
  out += kind;
  out += "\", \"ph\": \"M\", \"pid\": ";
  json_append_int(out, pid);
  if (tid >= 0) {
    out += ", \"tid\": ";
    json_append_int(out, tid);
  }
  out += ", \"args\": {\"name\": ";
  json_append_string(out, label);
  out += "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const sim::Trace& trace,
                        const ChromeTraceOptions& options) {
  const std::size_t counter_events =
      options.telemetry != nullptr
          ? options.telemetry->channels().size() * options.telemetry->samples().size()
          : 0;
  std::string out;
  out.reserve(1024 + 160 * trace.spans().size() + 128 * trace.markers().size() +
              112 * counter_events);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;

  // -- metadata: process/thread names ------------------------------------
  std::set<std::int32_t> workers;
  std::set<std::int32_t> links;
  for (const sim::Span& s : trace.spans()) {
    if (s.kind == sim::SpanKind::kTransfer && s.resource >= kLinkResourceBase) {
      links.insert(s.resource - kLinkResourceBase);
    } else {
      workers.insert(s.resource);
    }
  }
  append_meta(out, first, "process_name", kWorkersPid, -1, "workers");
  for (const std::int32_t w : workers) {
    const auto idx = static_cast<std::size_t>(w);
    const std::string label = w >= 0 && idx < options.worker_names.size()
                                  ? options.worker_names[idx]
                                  : "worker" + std::to_string(w);
    append_meta(out, first, "thread_name", kWorkersPid, w, label);
  }
  if (!links.empty()) {
    append_meta(out, first, "process_name", kLinksPid, -1, "links");
    for (const std::int32_t l : links) {
      append_meta(out, first, "thread_name", kLinksPid, l, "gpu" + std::to_string(l) + " link");
    }
  }
  if (options.telemetry != nullptr && !options.telemetry->empty()) {
    append_meta(out, first, "process_name", kTelemetryPid, -1, "telemetry");
  }

  // -- spans as complete ("X") events ------------------------------------
  for (const sim::Span& s : trace.spans()) {
    const bool is_link = s.kind == sim::SpanKind::kTransfer && s.resource >= kLinkResourceBase;
    const int pid = is_link ? kLinksPid : kWorkersPid;
    const int tid = is_link ? s.resource - kLinkResourceBase : s.resource;
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"name\": ";
    json_append_string(out, s.name);
    out += ", \"cat\": \"";
    out += sim::to_string(s.kind);
    out += "\", \"ph\": \"X\", \"ts\": ";
    json_append_number(out, s.begin.us());
    out += ", \"dur\": ";
    json_append_number(out, std::max(0.0, s.duration().us()));
    out += ", \"pid\": ";
    json_append_int(out, pid);
    out += ", \"tid\": ";
    json_append_int(out, tid);
    out += ", \"args\": {\"object\": ";
    json_append_int(out, s.object);
    out += "}}";
  }

  // -- markers as global instant events ----------------------------------
  for (const sim::Marker& m : trace.markers()) {
    out += first ? "\n    {" : ",\n    {";
    first = false;
    out += "\"name\": ";
    json_append_string(out, m.name);
    out += ", \"ph\": \"i\", \"s\": \"g\", \"ts\": ";
    json_append_number(out, m.when.us());
    out += ", \"pid\": ";
    json_append_int(out, kWorkersPid);
    out += ", \"tid\": 0}";
  }

  // -- telemetry channels as counter tracks ------------------------------
  if (options.telemetry != nullptr) {
    const TelemetrySeries& series = *options.telemetry;
    for (std::size_t c = 0; c < series.channels().size(); ++c) {
      const TelemetryChannel& chan = series.channels()[c];
      // Every sample of a channel shares its name, pid and unit.
      std::string name;
      json_append_string(name, chan.name);
      std::string args = ", \"pid\": ";
      json_append_int(args, kTelemetryPid);
      args += ", \"args\": {";
      json_append_string(args, chan.unit.empty() ? std::string_view{"value"} : chan.unit);
      args += ": ";
      for (const TelemetrySample& sample : series.samples()) {
        out += first ? "\n    {" : ",\n    {";
        first = false;
        out += "\"name\": ";
        out += name;
        out += ", \"ph\": \"C\", \"ts\": ";
        json_append_number(out, sample.t.us());
        out += args;
        json_append_number(out, sample.values.at(c));
        out += "}}";
      }
    }
  }

  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  os << out;
}

}  // namespace greencap::obs
