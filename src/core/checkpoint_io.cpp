#include "core/checkpoint_io.hpp"

#include <bit>

namespace greencap::core::ckpt_io {

namespace ck = greencap::ckpt;

namespace {

// -- small shared pieces -----------------------------------------------------

void put_energy_reading(ck::Writer& w, const hw::EnergyReading& r) {
  ck::put_f64_vec(w, r.cpu_joules);
  ck::put_f64_vec(w, r.gpu_joules);
}

hw::EnergyReading get_energy_reading(ck::Reader& r) {
  hw::EnergyReading e;
  e.cpu_joules = ck::get_f64_vec(r);
  e.gpu_joules = ck::get_f64_vec(r);
  return e;
}

void put_degradation(ck::Writer& w, const std::vector<fault::DegradationEvent>& events) {
  w.u64(events.size());
  for (const fault::DegradationEvent& e : events) {
    w.str(e.component);
    w.str(e.detail);
    w.str(e.from);
    w.str(e.to);
    w.str(e.reason);
    w.f64(e.at_s);
  }
}

void put_decisions(ck::Writer& w, const obs::DecisionLog* log) {
  if (log == nullptr) {
    w.u64(0);
    return;
  }
  w.u64(log->size());
  for (const obs::Decision& d : log->decisions()) {
    w.i64(d.task);
    w.str(log->codelet_name(d.codelet));
    w.str(obs::arch_name(d.arch));
    w.i32(d.chosen_worker);
    w.f64(d.decided_at.sec());
    w.f64(d.queue_wait_s);
    w.f64(d.expected_exec_s);
    w.f64(d.realized_exec_s);
    w.u64(d.alternative_count);
    for (const obs::DecisionAlternative& alt : log->alternatives(d)) {
      // worker (i32) and three f64 bit patterns: one 28-byte append.
      char rec[4 + 3 * 8];
      char* at = ck::put_le(rec, static_cast<std::uint32_t>(alt.worker));
      at = ck::put_le(at, std::bit_cast<std::uint64_t>(alt.expected_exec_s));
      at = ck::put_le(at, std::bit_cast<std::uint64_t>(alt.expected_transfer_s));
      ck::put_le(at, std::bit_cast<std::uint64_t>(alt.expected_energy_j));
      w.bytes(rec, sizeof rec);
    }
  }
}

std::vector<fault::DegradationEvent> get_degradation(ck::Reader& r) {
  const std::size_t n = r.length(8 * 5 + 8);
  std::vector<fault::DegradationEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fault::DegradationEvent e;
    e.component = r.str();
    e.detail = r.str();
    e.from = r.str();
    e.to = r.str();
    e.reason = r.str();
    e.at_s = r.f64();
    events.push_back(std::move(e));
  }
  return events;
}

void put_fault_counts(ck::Writer& w, const fault::FaultInjector::Counts& c) {
  w.u64(c.cap_write_failures);
  w.u64(c.drifts);
  w.u64(c.energy_resets);
  w.u64(c.dropouts);
}

fault::FaultInjector::Counts get_fault_counts(ck::Reader& r) {
  fault::FaultInjector::Counts c;
  c.cap_write_failures = r.u64();
  c.drifts = r.u64();
  c.energy_resets = r.u64();
  c.dropouts = r.u64();
  return c;
}

void put_task_ids(ck::Writer& w, const std::vector<rt::TaskId>& ids) {
  w.u64(ids.size());
  for (const rt::TaskId id : ids) w.i64(id);
}

// -- runtime snapshot --------------------------------------------------------

void put_runtime(ck::Writer& w, const rt::RuntimeSnapshot& s) {
  w.section("RTSS");
  w.u64(s.tasks.size());
  for (const rt::TaskSnapshot& t : s.tasks) {
    w.u8(t.state);
    w.i32(t.unresolved_deps);
    w.i32(t.assigned_worker);
    w.f64(t.ready_at_s);
    w.f64(t.dispatched_at_s);
    w.f64(t.data_ready_at_s);
    w.f64(t.start_s);
    w.f64(t.end_s);
    w.f64(t.attributed_power_w);
    w.i64(t.decision_index);
  }
  w.u64(s.workers.size());
  for (const rt::WorkerSnapshot& wk : s.workers) {
    w.boolean(wk.busy);
    w.boolean(wk.quarantined);
    w.f64(wk.busy_until_s);
    w.f64(wk.expected_free_s);
    w.f64(wk.link_free_s);
    w.i64(wk.inflight);
    put_task_ids(w, wk.queue);
    w.u64(wk.tasks_executed);
    w.f64(wk.busy_seconds);
    w.f64(wk.flops_done);
    w.f64(wk.transfer_seconds);
    w.u64(wk.bytes_transferred);
  }
  ck::put_u64_vec(w, s.handle_validity);
  ck::put_f64_vec(w, s.link_free_s);
  w.u64(s.tasks_completed);
  w.f64(s.flops_completed);
  w.f64(s.last_completion_s);
  w.boolean(s.drained);
  ck::put_u64_array4(w, s.rng_state);
  put_task_ids(w, s.scheduler.central);
  w.u64(s.scheduler.pending);
  w.u64(s.scheduler.cursor);
  w.u64(s.perf_history.size());
  for (const auto& h : s.perf_history) {
    w.str(h.codelet);
    w.i32(h.worker);
    w.u8(h.precision);
    w.i64(h.size_key);
    w.u64(h.samples);
    w.f64(h.mean_s);
    w.f64(h.m2);
  }
  w.u64(s.perf_regression.size());
  for (const auto& g : s.perf_regression) {
    w.str(g.codelet);
    w.i32(g.worker);
    w.u8(g.precision);
    w.f64(g.sum_xt);
    w.f64(g.sum_xx);
    w.u64(g.samples);
  }
  w.u64(s.structure_digest);
}

}  // namespace

// -- config ------------------------------------------------------------------

void encode_config(ck::Writer& w, const ExperimentConfig& c) {
  w.section("CFG1");
  w.str(c.platform);
  w.u8(static_cast<std::uint8_t>(c.op));
  w.u8(static_cast<std::uint8_t>(c.precision));
  w.i64(c.n);
  w.i32(c.nb);
  w.u64(c.gpu_config.size());
  for (const power::Level level : c.gpu_config.levels()) {
    w.u8(static_cast<std::uint8_t>(level));
  }
  w.boolean(c.cpu_cap.has_value());
  if (c.cpu_cap) {
    w.u64(c.cpu_cap->package);
    w.f64(c.cpu_cap->fraction_of_tdp);
  }
  w.str(c.scheduler);
  w.u64(c.seed);
  w.boolean(c.recalibrate);
  w.boolean(c.stale_models);
  w.boolean(c.execute_kernels);
  w.boolean(c.obs.trace);
  w.boolean(c.obs.metrics);
  w.boolean(c.obs.decision_log);
  w.f64(c.obs.telemetry_period_ms);
  w.boolean(c.obs.profile);
  w.str(c.resilience.faults);
  w.u64(c.resilience.fault_seed);
  w.f64(c.resilience.reconcile_ms);
  w.boolean(c.resilience.degrade);
  w.i32(c.resilience.max_cap_retries);
}

ExperimentConfig decode_config(ck::Reader& r) {
  r.expect_section("CFG1");
  ExperimentConfig c;
  c.platform = r.str();
  c.op = static_cast<Operation>(r.u8());
  c.precision = static_cast<hw::Precision>(r.u8());
  c.n = r.i64();
  c.nb = r.i32();
  const std::size_t n_levels = r.length(1);
  std::vector<power::Level> levels;
  levels.reserve(n_levels);
  for (std::size_t i = 0; i < n_levels; ++i) {
    levels.push_back(static_cast<power::Level>(r.u8()));
  }
  c.gpu_config = power::GpuConfig{std::move(levels)};
  if (r.boolean()) {
    CpuCap cap;
    cap.package = r.u64();
    cap.fraction_of_tdp = r.f64();
    c.cpu_cap = cap;
  }
  c.scheduler = r.str();
  c.seed = r.u64();
  c.recalibrate = r.boolean();
  c.stale_models = r.boolean();
  c.execute_kernels = r.boolean();
  c.obs.trace = r.boolean();
  c.obs.metrics = r.boolean();
  c.obs.decision_log = r.boolean();
  c.obs.telemetry_period_ms = r.f64();
  c.obs.profile = r.boolean();
  c.resilience.faults = r.str();
  c.resilience.fault_seed = r.u64();
  c.resilience.reconcile_ms = r.f64();
  c.resilience.degrade = r.boolean();
  c.resilience.max_cap_retries = r.i32();
  return c;
}

std::string config_bytes(const ExperimentConfig& config) {
  ck::Writer w;
  encode_config(w, config);
  return w.take();
}

// -- result ------------------------------------------------------------------

void encode_result(ck::Writer& w, const ExperimentResult& res) {
  w.section("RES1");
  encode_config(w, res.config);
  w.f64(res.time_s);
  w.f64(res.gflops);
  w.f64(res.total_energy_j);
  w.f64(res.efficiency_gflops_per_w);
  put_energy_reading(w, res.energy);
  w.u64(res.stats.tasks_submitted);
  w.u64(res.stats.tasks_completed);
  w.u64(res.stats.dependency_edges);
  w.f64(res.stats.makespan.sec());
  w.u64(res.stats.total_bytes_transferred);
  w.u64(res.stats.per_worker.size());
  for (const auto& pw : res.stats.per_worker) {
    w.i32(pw.id);
    w.u8(static_cast<std::uint8_t>(pw.arch));
    w.u64(pw.tasks);
    w.f64(pw.busy_fraction);
  }
  w.u64(res.cpu_tasks);
  w.u64(res.gpu_tasks);
  w.boolean(res.observability != nullptr);
  put_degradation(w, res.degradation.events());
  put_fault_counts(w, res.fault_counts);
  w.i32(res.energy_counter_resets);
}

DecodedResult decode_result(ck::Reader& r) {
  r.expect_section("RES1");
  DecodedResult out;
  ExperimentResult& res = out.result;
  res.config = decode_config(r);
  res.time_s = r.f64();
  res.gflops = r.f64();
  res.total_energy_j = r.f64();
  res.efficiency_gflops_per_w = r.f64();
  res.energy = get_energy_reading(r);
  res.stats.tasks_submitted = r.u64();
  res.stats.tasks_completed = r.u64();
  res.stats.dependency_edges = r.u64();
  res.stats.makespan = sim::SimTime::seconds(r.f64());
  res.stats.total_bytes_transferred = r.u64();
  const std::size_t n_workers = r.length(8);
  res.stats.per_worker.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    rt::RuntimeStats::WorkerStats pw;
    pw.id = r.i32();
    pw.arch = static_cast<rt::WorkerArch>(r.u8());
    pw.tasks = r.u64();
    pw.busy_fraction = r.f64();
    res.stats.per_worker.push_back(pw);
  }
  res.cpu_tasks = r.u64();
  res.gpu_tasks = r.u64();
  out.had_observability = r.boolean();
  for (fault::DegradationEvent& e : get_degradation(r)) {
    res.degradation.add(std::move(e));
  }
  res.fault_counts = get_fault_counts(r);
  res.energy_counter_resets = r.i32();
  return out;
}

// -- run state ---------------------------------------------------------------

void encode_run_state(ck::Writer& w, const RunState& s) {
  w.section("RUN1");
  w.f64(s.t_virtual_s);
  w.f64(s.t_begin_s);
  w.u64(s.watchdog_progress);
  put_energy_reading(w, s.start_energy);
  put_runtime(w, s.runtime);

  w.section("DEVS");
  w.u64(s.gpus.size());
  for (const GpuState& g : s.gpus) {
    w.f64(g.cap_w);
    w.boolean(g.busy);
    w.boolean(g.failed);
    w.f64(g.meter_power_w);
    w.f64(g.meter_joules);
    w.f64(g.meter_last_update_s);
  }
  w.u64(s.cpus.size());
  for (const CpuState& c : s.cpus) {
    w.f64(c.cap_w);
    w.i32(c.active_cores);
    w.f64(c.meter_power_w);
    w.f64(c.meter_joules);
    w.f64(c.meter_last_update_s);
  }
  w.u64(s.trackers.size());
  for (const TrackerState& t : s.trackers) {
    w.f64(t.offset_j);
    w.f64(t.last_raw_j);
    w.i32(t.resets);
  }

  w.section("PWRS");
  w.u64(s.power.best_cap_w.size());
  for (const auto& cap : s.power.best_cap_w) {
    w.boolean(cap.has_value());
    w.f64(cap.value_or(0.0));
  }
  w.u64(s.power.target_mw.size());
  for (const std::uint32_t mw : s.power.target_mw) w.u32(mw);
  w.boolean(s.power.reconcile_active);
  w.f64(s.power.reconcile_period_s);

  w.section("FLTS");
  w.boolean(s.has_injector);
  if (s.has_injector) {
    ck::put_u64_array4(w, s.injector.rng_state);
    w.boolean(s.injector.armed);
    w.f64(s.injector.origin_s);
    w.u64(s.injector.remaining_count.size());
    for (const int c : s.injector.remaining_count) w.i32(c);
    ck::put_bool_vec(w, s.injector.gpu_dropped);
    put_fault_counts(w, s.injector.counts);
  }

  w.section("OBSS");
  w.u64(s.trace_spans.size());
  for (const sim::Span& sp : s.trace_spans) {
    w.u8(static_cast<std::uint8_t>(sp.kind));
    w.i32(sp.resource);
    w.i64(sp.object);
    w.str(sp.name);
    w.f64(sp.begin.sec());
    w.f64(sp.end.sec());
  }
  w.u64(s.trace_markers.size());
  for (const sim::Marker& m : s.trace_markers) {
    w.str(m.name);
    w.f64(m.when.sec());
  }
  w.u64(s.counters.size());
  for (const auto& [name, value] : s.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u64(s.gauges.size());
  for (const auto& [name, value] : s.gauges) {
    w.str(name);
    w.f64(value);
  }
  w.u64(s.histograms.size());
  for (const HistogramState& h : s.histograms) {
    w.str(h.name);
    ck::put_f64_vec(w, h.bounds);
    ck::put_u64_vec(w, h.buckets);
    w.u64(h.count);
    w.f64(h.sum);
    w.f64(h.min);
    w.f64(h.max);
  }
  put_decisions(w, s.decisions);
  w.u64(s.telemetry.size());
  for (const obs::TelemetrySample& row : s.telemetry) {
    w.f64(row.t.sec());
    ck::put_f64_vec(w, row.values);
  }
  put_degradation(w, s.degradation);

  w.section("EVTS");
  w.u64(s.events.size());
  for (const EventRecord& e : s.events) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i32(e.index);
    w.f64(e.when_s);
  }
}

}  // namespace greencap::core::ckpt_io
