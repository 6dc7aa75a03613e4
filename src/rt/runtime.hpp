// The task runtime: StarPU-like execution of a task DAG over a simulated
// heterogeneous node.
//
// Applications register data handles, submit tasks (codelet + accesses +
// priority) and wait_all(). Submission only builds the runtime's task graph
// (rt/task_graph.hpp), inferring dependencies from access modes; the graph
// runs once it is instantiated (instantiate(), which wait_all() calls for a
// graph still pending). The runtime hands ready tasks to the configured
// scheduler, stages data over the PCIe/NVLink models, advances the virtual
// clock through the discrete-event simulator and drives the device
// power/energy models.
// Kernels can optionally really execute on the host (execute_kernels),
// which is how the test suite validates numerics end-to-end.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "hw/platform.hpp"
#include "obs/decision_log.hpp"
#include "obs/metrics.hpp"
#include "rt/codelet.hpp"
#include "rt/data_handle.hpp"
#include "rt/dependencies.hpp"
#include "rt/perf_model.hpp"
#include "rt/scheduler.hpp"
#include "rt/task.hpp"
#include "rt/task_graph.hpp"
#include "rt/types.hpp"
#include "rt/worker.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace greencap::obs {
class TelemetrySampler;
}

namespace greencap::prof {
struct RunCapture;
}

namespace greencap::rt {

struct RuntimeOptions {
  /// One of kSchedulerNames (eager, prio, random, ws, lws, dm, dmda, dmdas,
  /// dmdae).
  std::string scheduler = "dmdas";
  /// Actually run kernel host functions (numerical validation mode).
  bool execute_kernels = false;
  /// Reserve one CPU core per GPU as its driver (StarPU's default).
  bool dedicate_core_per_gpu = true;
  /// Relative std-dev of multiplicative Gaussian noise on execution times
  /// (0 = fully deterministic).
  double exec_noise_rel = 0.0;
  /// Feed every observed execution back into the history model (StarPU's
  /// behaviour). Disable to freeze the models at their calibrated state —
  /// used by the stale-model ablation.
  bool update_perf_model = true;
  /// Stage a task's inputs as soon as the scheduler assigns it to a worker
  /// queue (StarPU's data prefetching), overlapping transfers with the
  /// tasks ahead of it instead of paying them at execution start.
  bool prefetch = false;
  std::uint64_t seed = 42;
  /// Record spans into trace() (off by default: sweeps run thousands of
  /// simulations).
  bool enable_trace = false;
  /// Record per-task attributed device power for the energy profiler
  /// (prof::). Off by default: one model read per task start when on,
  /// nothing at all when off.
  bool profile = false;
  /// Optional metrics registry (not owned). When set, the runtime
  /// registers task/transfer counters and per-codelet execution-time and
  /// queue-wait histograms. Null keeps the hot path untouched.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional scheduler decision log (not owned). When set, every
  /// dispatch records the chosen worker, the per-worker expected
  /// durations/energies, and — at completion — the realized duration.
  obs::DecisionLog* decision_log = nullptr;
  /// Optional fault injector (not owned). The runtime subscribes to GPU
  /// dropout (quarantine + requeue), applies straggler slowdowns to CUDA
  /// executions, and cancels the injector's pending timed faults when the
  /// DAG drains. Null keeps every path byte-identical to an uninjected run.
  fault::FaultInjector* faults = nullptr;
  /// Optional degradation report (not owned) for quarantine/requeue events.
  fault::DegradationReport* degradation = nullptr;
  /// Optional run-scoped logger (not owned; core::RunContext wires it).
  /// Null keeps the runtime silent.
  sim::Logger* log = nullptr;
};

struct TaskDesc {
  const Codelet* codelet = nullptr;
  std::vector<TaskAccess> accesses;
  hw::KernelWork work;
  std::int64_t priority = 0;
  std::string label;
  /// Kernel argument pack, stored in the graph (Task::arg()).
  std::any arg;
  /// Explicit predecessor tasks (StarPU's tag dependencies), on top of the
  /// data dependencies inferred from access modes. Each id must reference
  /// an earlier submission.
  std::vector<TaskId> explicit_deps;
};

/// Checkpointed dynamic state of one task. Static structure (codelet,
/// accesses, priority, label, successors) is NOT here: it is pinned by the
/// snapshot's structure digest.
struct TaskSnapshot {
  std::uint8_t state = 0;
  std::int32_t unresolved_deps = 0;
  std::int32_t assigned_worker = -1;
  double ready_at_s = 0.0;
  double dispatched_at_s = 0.0;
  double data_ready_at_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  double attributed_power_w = 0.0;
  std::int64_t decision_index = -1;
};

/// Checkpointed dynamic state of one worker. The in-flight begin/end
/// simulator events are checkpointed with the global pending-event set.
struct WorkerSnapshot {
  bool busy = false;
  bool quarantined = false;
  double busy_until_s = 0.0;
  double expected_free_s = 0.0;
  double link_free_s = 0.0;
  std::int64_t inflight = -1;  ///< TaskId, -1 when idle
  std::vector<TaskId> queue;
  std::uint64_t tasks_executed = 0;
  double busy_seconds = 0.0;
  double flops_done = 0.0;
  double transfer_seconds = 0.0;
  std::uint64_t bytes_transferred = 0;
};

/// Complete dynamic runtime state, captured mid-run.
struct RuntimeSnapshot {
  std::vector<TaskSnapshot> tasks;
  std::vector<WorkerSnapshot> workers;
  std::vector<std::uint64_t> handle_validity;
  std::vector<double> link_free_s;
  std::uint64_t tasks_completed = 0;
  double flops_completed = 0.0;
  double last_completion_s = 0.0;
  bool drained = false;
  std::array<std::uint64_t, 4> rng_state{};
  SchedulerSnapshot scheduler;
  std::vector<HistoryPerfModel::HistoryEntry> perf_history;
  std::vector<HistoryPerfModel::RegressionEntry> perf_regression;
  /// FNV-1a over the static DAG structure, so a resume's witness check
  /// also fails when the re-run built a different DAG.
  std::uint64_t structure_digest = 0;
};

struct RuntimeStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t dependency_edges = 0;
  sim::SimTime makespan;
  std::uint64_t total_bytes_transferred = 0;
  /// Per-worker: tasks executed and busy fraction of the makespan.
  struct WorkerStats {
    WorkerId id = -1;
    WorkerArch arch = WorkerArch::kCpuCore;
    std::uint64_t tasks = 0;
    double busy_fraction = 0.0;
  };
  std::vector<WorkerStats> per_worker;
};

class Runtime final : public SchedulerContext {
 public:
  Runtime(hw::Platform& platform, sim::Simulator& sim, RuntimeOptions options = {});
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- data ----------------------------------------------------------------

  /// Registers application data living at `host_ptr` (may be null for
  /// timing-only simulations). Returns a handle owned by the runtime.
  DataHandle* register_data(std::uint64_t bytes, void* host_ptr = nullptr,
                            std::string name = {});

  // -- tasks -----------------------------------------------------------------

  /// Appends one task to the runtime's pending graph and wires its
  /// dependencies; nothing runs until the graph is instantiated. Throws
  /// std::logic_error once the graph was sealed (graph()) or the runtime
  /// instantiated one, so no task is submitted after a run.
  TaskId submit(TaskDesc desc);

  /// Runs `graph` on this runtime: the only place task states are created
  /// and first readied. `graph` is sealed, and is either this runtime's own
  /// (graph()) or one built by a runtime that registered the same handles
  /// in the same order as this one did. Creates every task state in one
  /// allocation, interns each codelet once, and readies the tasks without
  /// predecessors in id order. Throws std::logic_error when the runtime
  /// already instantiated a graph or submitted tasks of another.
  void instantiate(std::shared_ptr<const TaskGraph> graph);

  /// The runtime's task graph: the pending one, sealed for sharing (after
  /// this call, submit() throws), else the instantiated one. Null before
  /// any task exists.
  [[nodiscard]] std::shared_ptr<const TaskGraph> graph();

  /// Instantiates a pending graph, then runs the simulation until every
  /// task has completed. Throws std::runtime_error on deadlock (tasks stuck
  /// with unresolved dependencies — indicates an inconsistent DAG).
  void wait_all();

  /// Gathers every handle back to host memory (Chameleon's end-of-routine
  /// tile gather / StarPU's data acquire): books the required
  /// device-to-host transfers on the links and advances the virtual clock
  /// until they complete. Returns the completion time. Call after
  /// wait_all().
  sim::SimTime flush_to_host();

  // -- introspection ---------------------------------------------------------

  [[nodiscard]] const hw::Platform& platform() const { return platform_; }
  [[nodiscard]] hw::Platform& platform() { return platform_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const RuntimeOptions& options() const { return options_; }
  [[nodiscard]] HistoryPerfModel& perf_model() { return perf_model_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] RuntimeStats stats() const;
  /// Useful flops retired so far (sum of completed tasks' work) — the
  /// observable an online efficiency controller divides by joules.
  [[nodiscard]] double flops_completed() const { return flops_completed_; }
  [[nodiscard]] bool all_tasks_done() const { return tasks_completed_ == tasks_.size(); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] const Worker& worker(std::size_t i) const { return workers_.at(i); }
  /// Instantiated tasks: 0 until the graph is instantiated.
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  /// Throws std::out_of_range for an id that names no instantiated task.
  [[nodiscard]] const Task& task(TaskId id) const;

  /// Ground-truth execution time (device model + launch overhead, no
  /// noise) — the oracle the calibrator samples and the estimator's
  /// fallback for uncalibrated entries.
  [[nodiscard]] sim::SimTime oracle_exec_time(const Codelet& codelet, const hw::KernelWork& work,
                                              const Worker& worker) const;

  // -- observability ---------------------------------------------------------

  /// Registers runtime-level telemetry channels on `sampler`: number of
  /// busy workers (total and CUDA-only), ready-queue depth, and tasks
  /// completed. The runtime must outlive the sampler's run.
  void register_telemetry(obs::TelemetrySampler& sampler);

  /// Worker row labels for trace export, indexed by worker id.
  [[nodiscard]] std::vector<std::string> worker_names() const;

  /// Fills `capture.workers` and `capture.tasks` (realized spans, final
  /// attempts only, with dependency edges inverted to predecessor lists)
  /// for the energy-attribution profiler. Run metadata and device records
  /// are the caller's job — it still holds the platform and power config.
  void export_capture(prof::RunCapture& capture) const;

  // -- resilience ------------------------------------------------------------

  /// Registers a callback to run once, at the instant the last
  /// submitted task retires — before wait_all() returns. Used to stop
  /// repeating activities (cap reconciliation, pending fault events) that
  /// would otherwise keep the simulator from going idle or stretch the
  /// virtual timeline past the makespan.
  void add_drain_hook(std::function<void()> hook);

  /// Drops one worker's perf-model history so dm-family schedulers re-adapt
  /// to a device whose effective power state changed (reconciliation
  /// re-assert, throttling). `gpu` is the platform GPU index.
  void invalidate_gpu_history(std::size_t gpu);

  /// Removes `gpu`'s worker from service at `now`: cancels and requeues its
  /// in-flight task, drains its queue back to the scheduler, invalidates
  /// coherence copies held on the dead device (refetching from host) and
  /// its perf-model history. Idempotent per GPU. Wired automatically to
  /// RuntimeOptions::faults dropout events.
  void handle_dropout(int gpu, sim::SimTime now);

  // -- checkpoint / restart --------------------------------------------------

  /// Captures the complete resumable runtime state. Pure read: no clock
  /// advance, no device-model access, no perturbation of the run.
  [[nodiscard]] RuntimeSnapshot snapshot() const;

  /// FNV-1a hash of the static DAG structure (codelets, accesses,
  /// dependency edges, handle sizes) — stable across identical
  /// re-submissions, different for any structural divergence.
  [[nodiscard]] std::uint64_t structure_digest() const;

  // -- SchedulerContext ------------------------------------------------------
  [[nodiscard]] std::vector<Worker>& workers() override { return workers_; }
  [[nodiscard]] sim::SimTime now() const override { return sim_.now(); }
  [[nodiscard]] sim::Xoshiro256& rng() override { return rng_; }
  [[nodiscard]] sim::SimTime estimate_exec(const Task& task, const Worker& worker) override;
  [[nodiscard]] sim::SimTime estimate_transfer(const Task& task, const Worker& worker) override;
  [[nodiscard]] double locality_fraction(const Task& task, const Worker& worker) override;
  [[nodiscard]] double estimate_energy(const Task& task, const Worker& worker) override;

 private:
  void build_workers();
  void make_ready(Task& task);
  void wake_worker(WorkerId id);
  void wake_all_idle();
  void try_start(Worker& worker);
  /// Books the transfers needed by `task` on `worker`, returning the
  /// virtual time at which all inputs are resident.
  sim::SimTime stage_data(Task& task, Worker& worker);
  void begin_execution(Task& task, Worker& worker, sim::SimTime start, sim::SimTime end);
  void finish_task(Task& task, Worker& worker);
  [[nodiscard]] sim::SimTime actual_exec_time(Task& task, const Worker& worker);
  void record_decision(Task& task, Worker& worker);

  hw::Platform& platform_;
  sim::Simulator& sim_;
  RuntimeOptions options_;
  std::unique_ptr<Scheduler> scheduler_;
  HistoryPerfModel perf_model_;
  sim::Xoshiro256 rng_;
  sim::Trace trace_;

  std::vector<Worker> workers_;
  HandleTable handles_;
  /// The graph submit() builds, until it is instantiated.
  std::shared_ptr<TaskGraph> pending_;
  /// Infers pending_'s edges; emptied when pending_ is sealed.
  DependencyTracker deps_;
  /// The graph the tasks run, set once by instantiate().
  std::shared_ptr<const TaskGraph> graph_;
  /// One state per task of graph_, sized once by instantiate().
  std::vector<Task> tasks_;
  /// Decision-log codelet id by perf-model id, interned at first use.
  static constexpr std::uint32_t kNoDecisionCodelet = ~std::uint32_t{0};
  std::vector<std::uint32_t> decision_codelets_;
  /// Per-GPU link availability (index = GPU index).
  std::vector<sim::SimTime> link_free_;
  std::uint64_t tasks_completed_ = 0;
  double flops_completed_ = 0.0;
  sim::SimTime last_completion_;
  std::vector<std::function<void()>> drain_hooks_;

  // Cached metric handles (null when options_.metrics is null) so the
  // execution path pays one pointer test, not a map lookup.
  obs::Counter* m_tasks_submitted_ = nullptr;
  obs::Counter* m_tasks_completed_ = nullptr;
  obs::Counter* m_transfers_ = nullptr;
  obs::Counter* m_bytes_transferred_ = nullptr;
  /// Per perf-model codelet id: its execution-time and queue-wait
  /// histograms, resolved at the codelet's first retirement.
  struct CodeletHistograms {
    obs::Histogram* exec_s = nullptr;
    obs::Histogram* queue_wait_s = nullptr;
  };
  std::vector<CodeletHistograms> m_codelet_histograms_;
  /// Sampler to close out when the last task retires; set by
  /// register_telemetry, never owned.
  obs::TelemetrySampler* telemetry_ = nullptr;
};

}  // namespace greencap::rt
