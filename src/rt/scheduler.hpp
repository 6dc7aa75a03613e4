// Scheduling policies (StarPU's predefined schedulers).
//
// The runtime hands ready tasks to the scheduler via push_ready() and asks
// for work on behalf of idle workers via pop(). The dm family implements
// HEFT-style earliest-expected-completion placement using the performance
// models; dmda adds data-transfer estimates; dmdas additionally honours the
// application's priorities with priority-ordered per-worker queues and a
// data-locality tie-break (paper section III-B).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rt/perf_model.hpp"
#include "rt/task.hpp"
#include "rt/types.hpp"
#include "rt/worker.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace greencap::rt {

/// Runtime services available to scheduling policies.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  [[nodiscard]] virtual std::vector<Worker>& workers() = 0;
  [[nodiscard]] virtual sim::SimTime now() const = 0;
  [[nodiscard]] virtual sim::Xoshiro256& rng() = 0;

  /// Expected execution time of `task` on `worker` (perf model, falling
  /// back to the device model oracle when uncalibrated).
  [[nodiscard]] virtual sim::SimTime estimate_exec(const Task& task, const Worker& worker) = 0;

  /// Expected time to stage `task`'s missing inputs onto `worker`'s node.
  /// Depends on the worker only through its memory node (dm-family
  /// schedulers estimate once per node).
  [[nodiscard]] virtual sim::SimTime estimate_transfer(const Task& task,
                                                       const Worker& worker) = 0;

  /// Fraction of `task`'s input bytes already resident on `worker`'s node.
  [[nodiscard]] virtual double locality_fraction(const Task& task, const Worker& worker) = 0;

  /// Expected energy (joules) `task` would draw on `worker` — device
  /// dynamic power during execution, on top of the node's static floor.
  [[nodiscard]] virtual double estimate_energy(const Task& task, const Worker& worker) = 0;
};

/// Policy-agnostic checkpoint of a scheduler's queue state. Shared-queue
/// contents are stored as TaskIds in queue order; per-worker queues are
/// checkpointed with the workers themselves, so counter-mirroring policies
/// only need their counters here.
struct SchedulerSnapshot {
  std::vector<TaskId> central;  ///< shared-queue tasks, front first
  std::uint64_t pending = 0;    ///< mirrored ready-task count
  std::uint64_t cursor = 0;     ///< round-robin position (work stealing)
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once by the runtime before any task is submitted.
  virtual void attach(SchedulerContext& ctx) { ctx_ = &ctx; }

  /// A task's dependencies are satisfied; place or enqueue it. Returns the
  /// worker the task was assigned to, or -1 for shared-queue policies.
  virtual WorkerId push_ready(Task& task) = 0;

  /// An idle worker requests a task; nullptr if nothing eligible.
  virtual Task* pop(Worker& worker) = 0;

  /// Any task waiting anywhere in this policy's queues?
  [[nodiscard]] virtual bool has_pending() const = 0;

  /// Number of tasks waiting in this policy's queues (telemetry's
  /// ready-queue depth). The default lower-bounds it from has_pending();
  /// the built-in policies all report exact counts.
  [[nodiscard]] virtual std::size_t pending_count() const { return has_pending() ? 1 : 0; }

  /// Removes and returns every task queued on `worker` (quarantine path).
  /// Tasks parked in shared queues are untouched — they simply stop being
  /// eligible for the worker once it is marked quarantined.
  [[nodiscard]] virtual std::vector<Task*> evict(Worker& worker);

  /// Checkpoint capture/restore of the policy's queue state. `resolve`
  /// maps a checkpointed TaskId back to the live task object.
  [[nodiscard]] virtual SchedulerSnapshot snapshot_state() const { return {}; }
  virtual void restore_state(const SchedulerSnapshot& /*snapshot*/,
                             const std::function<Task*(TaskId)>& /*resolve*/) {}

 protected:
  SchedulerContext& ctx() { return *ctx_; }

  /// Policies that mirror queue contents in a pending counter adjust it
  /// here when evict() drains a worker's queue.
  virtual void note_evicted(std::size_t /*count*/) {}

 private:
  SchedulerContext* ctx_ = nullptr;
};

/// "eager": one shared FIFO; any worker takes the oldest eligible task.
class EagerScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "eager"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
  [[nodiscard]] bool has_pending() const override { return !fifo_.empty(); }
  [[nodiscard]] std::size_t pending_count() const override { return fifo_.size(); }
  [[nodiscard]] SchedulerSnapshot snapshot_state() const override {
    SchedulerSnapshot s;
    for (const Task* t : fifo_) s.central.push_back(t->id());
    return s;
  }
  void restore_state(const SchedulerSnapshot& snapshot,
                     const std::function<Task*(TaskId)>& resolve) override {
    fifo_.clear();
    for (const TaskId id : snapshot.central) fifo_.push_back(resolve(id));
  }

 private:
  std::deque<Task*> fifo_;
};

/// "random": weighted-random worker choice, proportional to the worker's
/// expected speed on the task.
class RandomScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
  [[nodiscard]] bool has_pending() const override { return pending_ != 0; }
  [[nodiscard]] std::size_t pending_count() const override { return pending_; }
  [[nodiscard]] SchedulerSnapshot snapshot_state() const override {
    SchedulerSnapshot s;
    s.pending = pending_;
    return s;
  }
  void restore_state(const SchedulerSnapshot& snapshot,
                     const std::function<Task*(TaskId)>& /*resolve*/) override {
    pending_ = static_cast<std::size_t>(snapshot.pending);
  }

 protected:
  void note_evicted(std::size_t count) override { pending_ -= count; }

 private:
  std::size_t pending_ = 0;
};

/// "ws": per-worker deques with work stealing from the most loaded victim.
class WorkStealingScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "ws"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
  [[nodiscard]] bool has_pending() const override { return pending_ != 0; }
  [[nodiscard]] std::size_t pending_count() const override { return pending_; }
  [[nodiscard]] SchedulerSnapshot snapshot_state() const override {
    SchedulerSnapshot s;
    s.pending = pending_;
    s.cursor = next_;
    return s;
  }
  void restore_state(const SchedulerSnapshot& snapshot,
                     const std::function<Task*(TaskId)>& /*resolve*/) override {
    pending_ = static_cast<std::size_t>(snapshot.pending);
    next_ = static_cast<std::size_t>(snapshot.cursor);
  }

 protected:
  /// lws steals from the victim with the best data locality instead of
  /// the most loaded one.
  [[nodiscard]] virtual bool locality_aware() const { return false; }
  void note_evicted(std::size_t count) override { pending_ -= count; }

 private:
  std::size_t next_ = 0;
  std::size_t pending_ = 0;
};

/// "lws": locality work stealing — steals from the victim whose stolen
/// task has the most input bytes already resident on the thief's node.
class LwsScheduler final : public WorkStealingScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "lws"; }

 protected:
  [[nodiscard]] bool locality_aware() const override { return true; }
};

/// "prio": one shared queue ordered by application priority (StarPU's
/// eager-with-priorities); no performance models involved.
class PrioScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "prio"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
  [[nodiscard]] bool has_pending() const override { return !queue_.empty(); }
  [[nodiscard]] std::size_t pending_count() const override { return queue_.size(); }
  [[nodiscard]] SchedulerSnapshot snapshot_state() const override {
    SchedulerSnapshot s;
    for (const Task* t : queue_) s.central.push_back(t->id());
    return s;
  }
  void restore_state(const SchedulerSnapshot& snapshot,
                     const std::function<Task*(TaskId)>& resolve) override {
    queue_.clear();
    for (const TaskId id : snapshot.central) queue_.push_back(resolve(id));
  }

 private:
  std::deque<Task*> queue_;  // kept sorted by priority, descending
};

/// "dm" (dequeue model / heft-tm): earliest expected completion time using
/// the calibrated performance models.
class DmScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dm"; }
  WorkerId push_ready(Task& task) override;
  Task* pop(Worker& worker) override;
  [[nodiscard]] bool has_pending() const override { return pending_ != 0; }
  [[nodiscard]] std::size_t pending_count() const override { return pending_; }
  [[nodiscard]] SchedulerSnapshot snapshot_state() const override {
    SchedulerSnapshot s;
    s.pending = pending_;
    return s;
  }
  void restore_state(const SchedulerSnapshot& snapshot,
                     const std::function<Task*(TaskId)>& /*resolve*/) override {
    pending_ = static_cast<std::size_t>(snapshot.pending);
  }

 protected:
  /// Whether transfer estimates join the completion-time objective (dmda+).
  [[nodiscard]] virtual bool data_aware() const { return false; }
  /// Whether queues are priority-ordered (dmdas).
  [[nodiscard]] virtual bool sorted() const { return false; }
  /// Completion-time slack within which the lowest-energy worker wins
  /// (dmdae); 0 disables the energy objective.
  [[nodiscard]] virtual double energy_slack() const { return 0.0; }
  void note_evicted(std::size_t count) override { pending_ -= count; }

 private:
  struct Candidate {
    Worker* worker;
    sim::SimTime finish;
  };

  std::size_t pending_ = 0;
  // push_ready scratch, reused across calls; no state carries over.
  std::vector<Candidate> candidates_;
  std::vector<std::optional<sim::SimTime>> transfer_by_node_;
};

/// "dmda" (heft-tmdp): dm plus data-transfer penalty in the objective.
class DmdaScheduler : public DmScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dmda"; }

 protected:
  [[nodiscard]] bool data_aware() const override { return true; }
};

/// "dmdas": dmda with application-priority-ordered queues and a
/// data-locality tie-break among equal priorities.
class DmdasScheduler : public DmdaScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "dmdas"; }

 protected:
  [[nodiscard]] bool sorted() const override { return true; }
};

/// "dmdae": energy-aware dmdas — the scheduling extension sketched in the
/// paper's future work ("dynamic scheduling algorithms optimizing energy
/// efficiency"). Among the workers whose expected completion time is within
/// a slack factor of the best one, it places the task on the worker with
/// the lowest expected energy. With slack = 0 it degenerates to dmdas;
/// growing slack trades makespan for joules.
class DmdaeScheduler final : public DmdasScheduler {
 public:
  explicit DmdaeScheduler(double slack = 0.30) : slack_{slack} {}
  [[nodiscard]] std::string name() const override { return "dmdae"; }

 protected:
  [[nodiscard]] double energy_slack() const override { return slack_; }

 private:
  double slack_;
};

/// Factory for the predefined policies:
/// eager, random, ws, dm, dmda, dmdas, dmdae.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

}  // namespace greencap::rt
