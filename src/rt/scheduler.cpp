#include "rt/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

namespace greencap::rt {

bool worker_can_run(const Task& task, const Worker& worker) {
  if (worker.quarantined) {
    return false;  // removed from service (device dropout)
  }
  if (!task.codelet().where.can_run_on(worker.arch())) {
    return false;
  }
  if (task.codelet().can_execute && !task.codelet().can_execute(worker, task)) {
    return false;
  }
  return true;
}

std::vector<Task*> Scheduler::evict(Worker& worker) {
  std::vector<Task*> evicted{worker.queue.begin(), worker.queue.end()};
  worker.queue.clear();
  note_evicted(evicted.size());
  return evicted;
}

namespace {

[[nodiscard]] bool eligible(const Task& task, const Worker& worker) {
  return worker_can_run(task, worker);
}

}  // namespace

// ---------------------------------------------------------------------------
// eager
// ---------------------------------------------------------------------------

WorkerId EagerScheduler::push_ready(Task& task) {
  fifo_.push_back(&task);
  return -1;
}

Task* EagerScheduler::pop(Worker& worker) {
  for (auto it = fifo_.begin(); it != fifo_.end(); ++it) {
    if (eligible(**it, worker)) {
      Task* task = *it;
      fifo_.erase(it);
      return task;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

WorkerId RandomScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  // Weighted random choice: weight = 1 / expected execution time, i.e.
  // proportional to the worker's speed on this task (StarPU's "random"
  // weights workers by relative performance).
  double total_weight = 0.0;
  std::vector<double> weights(workers.size(), 0.0);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!eligible(task, workers[i])) continue;
    const double t = ctx().estimate_exec(task, workers[i]).sec();
    weights[i] = t > 0 ? 1.0 / t : 1.0;
    total_weight += weights[i];
  }
  if (total_weight <= 0.0) {
    throw std::runtime_error("random scheduler: no eligible worker for task " + task.label);
  }
  double pick = ctx().rng().uniform() * total_weight;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (weights[i] <= 0) continue;
    chosen = i;
    pick -= weights[i];
    if (pick <= 0) break;
  }
  workers[chosen].queue.push_back(&task);
  ++pending_;
  return workers[chosen].id();
}

Task* RandomScheduler::pop(Worker& worker) {
  if (worker.queue.empty()) {
    return nullptr;
  }
  Task* task = worker.queue.front();
  worker.queue.pop_front();
  --pending_;
  return task;
}

// ---------------------------------------------------------------------------
// ws (work stealing)
// ---------------------------------------------------------------------------

WorkerId WorkStealingScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  // Round-robin initial placement over eligible workers.
  for (std::size_t tries = 0; tries < workers.size(); ++tries) {
    Worker& w = workers[next_ % workers.size()];
    ++next_;
    if (eligible(task, w)) {
      w.queue.push_back(&task);
      ++pending_;
      return w.id();
    }
  }
  throw std::runtime_error("ws scheduler: no eligible worker for task " + task.label);
}

Task* WorkStealingScheduler::pop(Worker& worker) {
  auto take_from = [this](Worker& victim, Worker& thief, bool from_back) -> Task* {
    auto& q = victim.queue;
    if (from_back) {
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if (eligible(**it, thief)) {
          Task* t = *it;
          q.erase(std::next(it).base());
          --pending_;
          return t;
        }
      }
    } else {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (eligible(**it, thief)) {
          Task* t = *it;
          q.erase(it);
          --pending_;
          return t;
        }
      }
    }
    return nullptr;
  };

  if (Task* local = take_from(worker, worker, /*from_back=*/false)) {
    return local;
  }
  auto& workers = ctx().workers();
  Worker* victim = nullptr;
  if (locality_aware()) {
    // lws: prefer the victim whose tail task keeps the most bytes local.
    double best_locality = -1.0;
    for (Worker& w : workers) {
      if (w.id() == worker.id() || w.queue.empty()) continue;
      if (!eligible(*w.queue.back(), worker)) continue;
      const double locality = ctx().locality_fraction(*w.queue.back(), worker);
      if (locality > best_locality) {
        best_locality = locality;
        victim = &w;
      }
    }
    if (victim == nullptr) {
      // Fall through to load-based stealing (tail tasks all ineligible).
      for (Worker& w : workers) {
        if (w.id() == worker.id() || w.queue.empty()) continue;
        if (victim == nullptr || w.queue.size() > victim->queue.size()) {
          victim = &w;
        }
      }
    }
  } else {
    // ws: steal from the most loaded victim's tail.
    for (Worker& w : workers) {
      if (w.id() == worker.id() || w.queue.empty()) continue;
      if (victim == nullptr || w.queue.size() > victim->queue.size()) {
        victim = &w;
      }
    }
  }
  return victim != nullptr ? take_from(*victim, worker, /*from_back=*/true) : nullptr;
}

// ---------------------------------------------------------------------------
// prio
// ---------------------------------------------------------------------------

WorkerId PrioScheduler::push_ready(Task& task) {
  auto it = queue_.begin();
  for (; it != queue_.end(); ++it) {
    if ((*it)->priority < task.priority) break;
  }
  queue_.insert(it, &task);
  return -1;
}

Task* PrioScheduler::pop(Worker& worker) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (eligible(**it, worker)) {
      Task* t = *it;
      queue_.erase(it);
      return t;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// dm / dmda / dmdas
// ---------------------------------------------------------------------------

WorkerId DmScheduler::push_ready(Task& task) {
  auto& workers = ctx().workers();
  const sim::SimTime now = ctx().now();

  // The transfer estimate depends only on (task, memory node), and every
  // CPU worker shares the host node: estimate once per node.
  transfer_by_node_.clear();
  candidates_.clear();
  sim::SimTime best_finish = sim::SimTime::infinity();
  for (Worker& w : workers) {
    if (!eligible(task, w)) continue;
    sim::SimTime penalty = ctx().estimate_exec(task, w);
    if (data_aware()) {
      const auto node = static_cast<std::size_t>(w.node());
      if (node >= transfer_by_node_.size()) {
        transfer_by_node_.resize(node + 1);
      }
      std::optional<sim::SimTime>& transfer = transfer_by_node_[node];
      if (!transfer) {
        transfer = ctx().estimate_transfer(task, w);
      }
      penalty += *transfer;
    }
    const sim::SimTime finish = std::max(now, w.expected_free) + penalty;
    candidates_.push_back(Candidate{&w, finish});
    best_finish = std::min(best_finish, finish);
  }
  if (candidates_.empty()) {
    throw std::runtime_error("dm scheduler: no eligible worker for task " + task.label);
  }

  Worker* best = nullptr;
  sim::SimTime chosen_finish;
  if (energy_slack() > 0.0) {
    // Energy-aware selection: among workers finishing within the slack of
    // the earliest completion, minimize expected joules.
    const sim::SimTime budget = now + (best_finish - now) * (1.0 + energy_slack());
    double best_energy = std::numeric_limits<double>::infinity();
    for (const Candidate& c : candidates_) {
      if (c.finish > budget) continue;
      const double energy = ctx().estimate_energy(task, *c.worker);
      if (energy < best_energy ||
          (energy == best_energy && best != nullptr && c.finish < chosen_finish)) {
        best_energy = energy;
        best = c.worker;
        chosen_finish = c.finish;
      }
    }
  }
  if (best == nullptr) {
    for (const Candidate& c : candidates_) {
      if (c.finish == best_finish) {
        best = c.worker;
        chosen_finish = c.finish;
        break;
      }
    }
  }
  best->expected_free = chosen_finish;

  if (sorted()) {
    // Priority-ordered insertion; among equal priorities, favour tasks
    // whose data is already resident (data-locality tie-break), then FIFO.
    const double locality = ctx().locality_fraction(task, *best);
    auto it = best->queue.begin();
    for (; it != best->queue.end(); ++it) {
      if ((*it)->priority < task.priority) break;
      if ((*it)->priority == task.priority &&
          ctx().locality_fraction(**it, *best) < locality) {
        break;
      }
    }
    best->queue.insert(it, &task);
  } else {
    best->queue.push_back(&task);
  }
  ++pending_;
  return best->id();
}

Task* DmScheduler::pop(Worker& worker) {
  if (worker.queue.empty()) {
    return nullptr;
  }
  Task* task = worker.queue.front();
  worker.queue.pop_front();
  --pending_;
  return task;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "eager") return std::make_unique<EagerScheduler>();
  if (name == "prio") return std::make_unique<PrioScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>();
  if (name == "ws") return std::make_unique<WorkStealingScheduler>();
  if (name == "lws") return std::make_unique<LwsScheduler>();
  if (name == "dm") return std::make_unique<DmScheduler>();
  if (name == "dmda") return std::make_unique<DmdaScheduler>();
  if (name == "dmdas") return std::make_unique<DmdasScheduler>();
  if (name == "dmdae") return std::make_unique<DmdaeScheduler>();
  throw std::invalid_argument("unknown scheduler: " + name);
}

}  // namespace greencap::rt
