#include "prof/profile.hpp"

#include <algorithm>
#include <concepts>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace greencap::prof {

namespace {

// profile.json readers re-verify the conservation identity from the
// serialized numbers, so every double goes out at round-trip precision.
// Each field() appends `prefix` (punctuation and key) and then the value.
void field(std::string& out, std::string_view prefix, double v) {
  out += prefix;
  obs::json_append_number_exact(out, v);
}

void field(std::string& out, std::string_view prefix, std::string_view v) {
  out += prefix;
  obs::json_append_string(out, v);
}

template <std::integral T>
void field(std::string& out, std::string_view prefix, T v) {
  out += prefix;
  obs::json_append_int(out, v);
}

void summarize_decisions(const obs::DecisionLog& log, Profile& profile) {
  for (const obs::ModelAccuracy& acc : log.accuracy_report()) {
    ModelAccuracyRow row;
    row.codelet = acc.codelet;
    row.arch = acc.arch;
    row.samples = acc.samples;
    row.mean_rel_error = acc.mean_rel_error;
    profile.model_accuracy.push_back(std::move(row));
  }
}

void summarize_telemetry(const obs::TelemetrySeries& series, Profile& profile) {
  // Peak instantaneous node draw: max over samples of the sum of every
  // *.power_w channel.
  std::vector<std::size_t> power_channels;
  const auto& channels = series.channels();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const std::string& name = channels[c].name;
    if (name.size() > 8 && name.compare(name.size() - 8, 8, ".power_w") == 0) {
      power_channels.push_back(c);
    }
  }
  for (const obs::TelemetrySample& sample : series.samples()) {
    double node = 0.0;
    for (const std::size_t c : power_channels) {
      node += sample.values[c];
    }
    profile.peak_node_power_w = std::max(profile.peak_node_power_w, node);
  }
}

void append_device(std::string& out, const DeviceRecord& dev, const DeviceAttribution& att) {
  field(out, "{\"kind\":", to_string(dev.kind));
  field(out, ",\"index\":", dev.index);
  field(out, ",\"name\":", dev.name);
  field(out, ",\"level\":", std::string_view{&dev.level, 1});
  field(out, ",\"cap_w\":", dev.cap_w);
  field(out, ",\"static_w\":", dev.static_w);
  field(out, ",\"metered_j\":", dev.metered_j);
  field(out, ",\"tasks_j\":", att.tasks_j);
  field(out, ",\"static_j\":", att.static_j);
  field(out, ",\"residual_j\":", att.residual_j);
  field(out, ",\"busy_s\":", att.busy_s);
  field(out, ",\"idle_s\":", att.idle_s);
  field(out, ",\"task_count\":", att.task_count);
  field(out, ",\"rate_scale\":{\"H\":", dev.rate_scale_h);
  field(out, ",\"B\":", dev.rate_scale_b);
  field(out, ",\"L\":", dev.rate_scale_l);
  out += "}}";
}

}  // namespace

std::string Profile::to_json() const {
  std::string out;
  out.reserve(4096 + 256 * capture.tasks.size() + 96 * critical_path.time_path.size() +
              256 * efficiency.size());
  out += "{\"schema_version\":1,\n\"run\":{";
  field(out, "\"platform\":", capture.platform);
  field(out, ",\"operation\":", capture.operation);
  field(out, ",\"precision\":", capture.precision);
  field(out, ",\"n\":", capture.n);
  field(out, ",\"nb\":", capture.nb);
  field(out, ",\"gpu_config\":", capture.gpu_config);
  field(out, ",\"scheduler\":", capture.scheduler);
  field(out, ",\"window\":{\"begin_s\":", capture.t_begin_s);
  field(out, ",\"end_s\":", capture.t_end_s);
  field(out, "},\"makespan_s\":", capture.makespan_s);
  field(out, ",\"total_flops\":", capture.total_flops);
  field(out, ",\"metrics\":{\"time_s\":", metrics.time_s);
  field(out, ",\"energy_j\":", metrics.energy_j);
  field(out, ",\"gflops\":", metrics.gflops);
  field(out, ",\"gflops_per_w\":", metrics.gflops_per_w);
  field(out, ",\"edp_js\":", metrics.edp_js);
  field(out, ",\"eds_js2\":", metrics.eds_js2);
  out += "}}";

  // -- attribution ----------------------------------------------------------
  field(out, ",\n\"attribution\":{\"total_metered_j\":", attribution.total_metered_j);
  field(out, ",\"total_tasks_j\":", attribution.total_tasks_j);
  field(out, ",\"total_static_j\":", attribution.total_static_j);
  field(out, ",\"total_residual_j\":", attribution.total_residual_j);
  out += "}";

  out += ",\n\"devices\":[";
  for (std::size_t d = 0; d < capture.devices.size(); ++d) {
    if (d != 0) {
      out += ',';
    }
    append_device(out, capture.devices[d], attribution.devices[d]);
  }
  out += "]";

  // -- workers --------------------------------------------------------------
  out += ",\n\"workers\":[";
  for (std::size_t w = 0; w < capture.workers.size(); ++w) {
    const WorkerRecord& wr = capture.workers[w];
    const WorkerBreakdown& b = critical_path.workers[w];
    field(out, w == 0 ? "{\"id\":" : ",{\"id\":", wr.id);
    field(out, ",\"name\":", wr.name);
    field(out, ",\"arch\":", wr.is_cuda ? "cuda" : "cpu");
    field(out, ",\"device\":{\"kind\":", to_string(wr.device_kind));
    field(out, ",\"index\":", wr.device_index);
    field(out, "},\"tasks\":", b.tasks);
    field(out, ",\"busy_s\":", b.busy_s);
    field(out, ",\"transfer_wait_s\":", b.transfer_wait_s);
    field(out, ",\"starvation_s\":", b.starvation_s);
    field(out, ",\"flops\":", b.flops);
    field(out, ",\"energy_j\":", b.energy_j);
    out += "}";
  }
  out += "]";

  // -- tasks ----------------------------------------------------------------
  out += ",\n\"tasks\":[";
  for (std::size_t i = 0; i < capture.tasks.size(); ++i) {
    const TaskRecord& t = capture.tasks[i];
    field(out, i == 0 ? "{\"id\":" : ",{\"id\":", t.id);
    field(out, ",\"label\":", t.label);
    field(out, ",\"codelet\":", t.codelet);
    field(out, ",\"worker\":", t.worker);
    field(out, ",\"start_s\":", t.start_s);
    field(out, ",\"end_s\":", t.end_s);
    field(out, ",\"flops\":", t.flops);
    field(out, ",\"energy_j\":", attribution.task_energy_j[i]);
    field(out, ",\"slack_s\":", critical_path.slack_s[i]);
    out += "}";
  }
  out += "]";

  // -- critical paths -------------------------------------------------------
  field(out, ",\n\"critical_path\":{\"time\":{\"length_s\":", critical_path.length_s);
  field(out, ",\"exec_s\":", critical_path.exec_s);
  field(out, ",\"transfer_wait_s\":", critical_path.transfer_wait_s);
  field(out, ",\"other_wait_s\":", critical_path.other_wait_s);
  out += ",\"steps\":[";
  for (std::size_t i = 0; i < critical_path.time_path.size(); ++i) {
    const PathStep& step = critical_path.time_path[i];
    field(out, i == 0 ? "{\"task\":" : ",{\"task\":", step.task);
    field(out, ",\"link\":", to_string(step.link));
    field(out, ",\"gap_s\":", step.gap_s);
    field(out, ",\"transfer_wait_s\":", step.transfer_wait_s);
    out += "}";
  }
  field(out, "]},\"energy\":{\"joules\":", critical_path.energy_path_j);
  out += ",\"tasks\":[";
  for (std::size_t i = 0; i < critical_path.energy_path.size(); ++i) {
    field(out, i == 0 ? "" : ",", critical_path.energy_path[i]);
  }
  out += "]}}";

  // -- efficiency table -----------------------------------------------------
  out += ",\n\"efficiency\":[";
  for (std::size_t i = 0; i < efficiency.size(); ++i) {
    const EfficiencyCell& cell = efficiency[i];
    field(out, i == 0 ? "{\"codelet\":" : ",{\"codelet\":", cell.codelet);
    field(out, ",\"device\":{\"kind\":", to_string(cell.kind));
    field(out, ",\"index\":", cell.device_index);
    field(out, "},\"level\":", std::string_view{&cell.level, 1});
    field(out, ",\"cap_w\":", cell.cap_w);
    field(out, ",\"tasks\":", cell.tasks);
    field(out, ",\"flops\":", cell.flops);
    field(out, ",\"exec_s\":", cell.exec_s);
    field(out, ",\"energy_j\":", cell.energy_j);
    field(out, ",\"gflops\":", cell.gflops());
    field(out, ",\"gflops_per_w\":", cell.gflops_per_w());
    field(out, ",\"j_per_task\":", cell.j_per_task());
    field(out, ",\"edp_js\":", cell.edp_js());
    out += "}";
  }
  out += "]";

  // -- what-if --------------------------------------------------------------
  out += ",\n\"whatif\":[";
  for (std::size_t i = 0; i < whatif.size(); ++i) {
    const WhatIfEntry& entry = whatif[i];
    field(out, i == 0 ? "{\"config\":" : ",{\"config\":", entry.config);
    field(out, ",\"lower_bound_s\":", entry.lower_bound_s);
    field(out, ",\"dag_bound_s\":", entry.dag_bound_s);
    field(out, ",\"work_bound_s\":", entry.work_bound_s);
    field(out, ",\"vs_measured\":", entry.vs_measured);
    out += "}";
  }
  out += "]";

  // -- optional PR 1 enrichments -------------------------------------------
  out += ",\n\"model_accuracy\":[";
  for (std::size_t i = 0; i < model_accuracy.size(); ++i) {
    const ModelAccuracyRow& row = model_accuracy[i];
    field(out, i == 0 ? "{\"codelet\":" : ",{\"codelet\":", row.codelet);
    field(out, ",\"arch\":", row.arch);
    field(out, ",\"samples\":", row.samples);
    field(out, ",\"mean_rel_error\":", row.mean_rel_error);
    out += "}";
  }
  field(out, "],\"peak_node_power_w\":", peak_node_power_w);
  out += "}\n";
  return out;
}

void Profile::write_json(std::ostream& os) const { os << to_json(); }

Profile analyze(const RunCapture& capture, const AnalyzeOptions& options) {
  Profile profile;
  profile.capture = capture;
  profile.metrics = run_metrics(capture);
  profile.attribution = attribute_energy(capture);
  profile.critical_path = analyze_critical_path(capture, profile.attribution.task_energy_j);
  profile.efficiency = efficiency_table(capture, profile.attribution.task_energy_j);
  profile.whatif = whatif_ladder(capture);
  if (options.decisions != nullptr && !options.decisions->empty()) {
    summarize_decisions(*options.decisions, profile);
  }
  if (options.telemetry != nullptr && !options.telemetry->empty()) {
    summarize_telemetry(*options.telemetry, profile);
  }
  return profile;
}

}  // namespace greencap::prof
