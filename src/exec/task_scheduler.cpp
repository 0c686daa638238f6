#include "exec/task_scheduler.h"

#include "obs/log.h"
#include "obs/metrics.h"

namespace disco::exec {

namespace {

// Scheduling decision counters, registered once and shared by every
// TaskScheduler instance (procs and net transports alike). These surface
// in the driver's "[metrics] exec tasks:" dump line and its Prometheus
// exposition.
struct ExecMetrics {
  obs::Counter& dispatched;
  obs::Counter& retries;
  obs::Counter& straggler_dupes;
  obs::Counter& slot_deaths;

  ExecMetrics()
      : dispatched(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "dispatched", {{"event", "dispatched"}})),
        retries(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "retries", {{"event", "retried"}})),
        straggler_dupes(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "straggler_dupes", {{"event", "straggler_dupe"}})),
        slot_deaths(obs::Global().RegisterCounter(
            "disco_exec_tasks_total", "Executor scheduling decisions",
            "exec tasks", "slot_deaths", {{"event", "slot_death"}})) {}
};

ExecMetrics& Metrics() {
  static ExecMetrics* m = new ExecMetrics;
  return *m;
}

}  // namespace

TaskScheduler::TaskScheduler(std::size_t count, int max_retries,
                             int straggler_ms,
                             std::vector<std::string>* results)
    : count_(count),
      max_retries_(max_retries),
      straggler_ms_(straggler_ms),
      results_(results),
      tasks_(count) {
  results_->assign(count, std::string());
  for (std::size_t i = 0; i < count; ++i) pending_.push_back(i);
}

std::size_t TaskScheduler::AddSlot() {
  slots_.push_back(Slot{});
  return slots_.size() - 1;
}

void TaskScheduler::ReviveSlot(std::size_t slot) {
  Slot& s = slots_[slot];
  if (s.alive) return;
  s.alive = true;
  s.task = kNoTask;
}

std::size_t TaskScheduler::NextTask(std::size_t slot,
                                    Clock::time_point now) {
  Slot& s = slots_[slot];
  // Pop until a live task: a pending entry may be stale (its task already
  // finished via a speculative duplicate, or was requeued twice across a
  // corrupted accounting episode). Skipping with a single pop-and-return
  // would leave this slot idle for a whole poll round while real work
  // sits right behind the stale entry.
  while (!pending_.empty()) {
    const std::size_t task = pending_.front();
    pending_.pop_front();
    if (tasks_[task].done) continue;
    s.task = task;
    s.since = now;
    tasks_[task].inflight++;
    Metrics().dispatched.Inc();
    obs::Log(obs::LogLevel::kDebug, "[exec] slot %zu <- task %zu", slot,
             task);
    return task;
  }
  if (straggler_ms_ <= 0) return kNoTask;
  // Speculative duplication: the oldest single-copy task past the
  // deadline, if any (ties broken by assignment age, then slot order —
  // both deterministic given the event sequence).
  const Slot* slowest = nullptr;
  for (const Slot& other : slots_) {
    if (!other.alive || other.task == kNoTask) continue;
    const TaskState& t = tasks_[other.task];
    if (t.done || t.inflight != 1) continue;
    if (now - other.since < std::chrono::milliseconds(straggler_ms_)) {
      continue;
    }
    if (slowest == nullptr || other.since < slowest->since) {
      slowest = &other;
    }
  }
  if (slowest == nullptr) return kNoTask;
  const std::size_t task = slowest->task;
  s.task = task;
  s.since = now;
  tasks_[task].inflight++;
  Metrics().straggler_dupes.Inc();
  obs::Log(obs::LogLevel::kInfo,
           "[exec] straggler: duplicating task %zu onto slot %zu", task,
           slot);
  return task;
}

bool TaskScheduler::AttemptFailed(std::size_t task, const std::string& why) {
  if (tasks_[task].done) return true;  // a duplicate already finished it
  if (++tasks_[task].failures > max_retries_) {
    return Fail(task, true,
                "task " + std::to_string(task) + " failed after " +
                    std::to_string(tasks_[task].failures) +
                    " attempt(s): " + why);
  }
  if (tasks_[task].inflight == 0) pending_.push_back(task);
  Metrics().retries.Inc();
  obs::Log(obs::LogLevel::kInfo,
           "[exec] retrying task %zu (attempt %d): %s", task,
           tasks_[task].failures + 1, why.c_str());
  return true;
}

bool TaskScheduler::Fail(std::size_t task, bool task_known,
                         std::string message) {
  error_ = std::move(message);
  failed_task_ = task;
  task_known_ = task_known;
  return false;
}

bool TaskScheduler::OnResult(std::size_t slot, std::size_t index,
                             std::string payload) {
  Slot& s = slots_[slot];
  if (index >= count_ || index != s.task) {
    // A frame for a task this slot was never handed is stream corruption
    // (duplicated, reordered, or forged): decrementing tasks_[index]'s
    // inflight on trust would strand that task — its inflight could go
    // negative and the inflight==0 requeue guard would never fire.
    return Fail(0, false,
                "worker sent a frame for task " + std::to_string(index) +
                    (s.task == kNoTask
                         ? " while idle"
                         : " while running task " +
                               std::to_string(s.task)));
  }
  s.task = kNoTask;
  tasks_[index].inflight--;
  if (!tasks_[index].done) {
    tasks_[index].done = true;
    (*results_)[index] = std::move(payload);
    ++done_count_;
  }
  return true;
}

bool TaskScheduler::OnTaskError(std::size_t slot, std::size_t index,
                                const std::string& why) {
  Slot& s = slots_[slot];
  if (index >= count_ || index != s.task) {
    return Fail(0, false,
                "worker sent an error frame for task " +
                    std::to_string(index) +
                    (s.task == kNoTask
                         ? " while idle"
                         : " while running task " +
                               std::to_string(s.task)));
  }
  s.task = kNoTask;
  tasks_[index].inflight--;
  return AttemptFailed(index, why);
}

bool TaskScheduler::OnProtocolError(std::size_t slot,
                                    const std::string& message) {
  (void)slot;
  return Fail(0, false, "worker reported a protocol error: " + message);
}

bool TaskScheduler::OnSlotDeath(std::size_t slot, const std::string& why) {
  Slot& s = slots_[slot];
  if (!s.alive) return true;
  s.alive = false;
  Metrics().slot_deaths.Inc();
  obs::Log(obs::LogLevel::kInfo, "[exec] slot %zu died: %s", slot,
           why.c_str());
  const std::size_t task = s.task;
  s.task = kNoTask;
  if (task == kNoTask) return true;
  tasks_[task].inflight--;
  return AttemptFailed(task, why);
}

std::size_t TaskScheduler::FirstUnfinished() const {
  std::size_t i = 0;
  while (i < count_ && tasks_[i].done) ++i;
  return i;
}

void TaskScheduler::PushPendingFrontForTest(std::size_t task) {
  pending_.push_front(task);
}

}  // namespace disco::exec
