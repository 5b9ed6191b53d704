// The resource manager's stochastic model of one core's queue (§IV-B).
//
// Tracks the currently-executing task (by its start time and execution-time
// pmf) and the FIFO of tasks queued behind it. The "ready-time" pmf of the
// core at query time t_l is
//
//   truncate-renormalize(exec_running shifted by start, t_l)
//     (x) exec_q1 (x) ... (x) exec_qm
//
// where (x) is convolution. The running task's shifted pmf is built once
// per start and the suffix convolution of queued-task pmfs is cached
// (rebuilt on dequeue), so one query costs one truncation plus one
// convolution.
//
// The resulting ready pmf is memoized. Truncating at t_l depends on t_l only
// through `first`, the index of the first shifted impulse >= t_l
// (pmf::Pmf::TruncationAt): the same impulses survive and are divided by the
// same retained mass, summed in the same order. So the memo key is `first`,
// and any later query whose t_l falls in the same inter-impulse gap is served
// the stored pmf, bit-identical to a recomputation. Only the Delta(t_l)
// fallback (nothing or at most kMassTolerance survives) and the idle core
// depend on t_l itself; there the key also holds the exact t_l. Every
// mutator drops the memo.
//
// Pmf pointers reference the TaskTypeTable (or any equally stable storage)
// and must outlive the model.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "pmf/pmf.hpp"

namespace ecdra::robustness {

/// A task as the queue model sees it.
struct ModeledTask {
  std::size_t task_id = 0;
  /// Execution-time pmf at the task's assigned (node, P-state).
  const pmf::Pmf* exec = nullptr;
  double deadline = 0.0;
};

class CoreQueueModel {
 public:
  /// Number of tasks assigned to this core (running + queued); the SQ
  /// heuristic's |MQ(i,j,k,t_l)|.
  [[nodiscard]] std::size_t queue_length() const noexcept {
    return (running_ ? 1 : 0) + queued_.size();
  }
  [[nodiscard]] bool idle() const noexcept { return !running_; }
  [[nodiscard]] const std::optional<ModeledTask>& running() const noexcept {
    return running_;
  }
  [[nodiscard]] double running_start() const noexcept { return start_time_; }
  [[nodiscard]] const std::deque<ModeledTask>& queued() const noexcept {
    return queued_;
  }

  /// Ready-time pmf of this core as predicted at time `now` — the stochastic
  /// time at which all currently-assigned work completes. Delta(now) when
  /// the core is empty.
  [[nodiscard]] const pmf::Pmf& ReadyPmf(double now) const;

  /// Expectation of ReadyPmf(now), computed without any convolution
  /// (expectation is additive over the queue).
  [[nodiscard]] double ExpectedReadyTime(double now) const;

  /// The simulator started `task` on this (previously idle) core at `now`.
  void StartTask(const ModeledTask& task, double now);
  /// A new task was assigned behind the running one.
  void Enqueue(const ModeledTask& task);
  /// The running task finished; if the queue is non-empty the caller must
  /// follow up with StartNext.
  void FinishRunning();
  /// Promotes the head of the queue to running at time `now`.
  void StartNext(double now);
  /// Removes the head of the queue without running it (task cancellation —
  /// the §VIII future-work extension). The core must be idle, as
  /// cancellation decisions happen when a core picks its next task.
  void DropNext();
  /// Forgets every assigned task (running and queued) — the core failed and
  /// its work is stranded (fault extension). The model returns to the
  /// empty-core state; ReadyPmf becomes Delta(now).
  void Reset() noexcept;

 private:
  void BuildRunningCompletion();
  void RebuildSuffix();
  void InvalidateCache() noexcept { cache_valid_ = false; }

  std::optional<ModeledTask> running_;
  double start_time_ = 0.0;
  std::deque<ModeledTask> queued_;
  /// Convolution of all queued (not running) exec pmfs; empty when none.
  pmf::Pmf queued_suffix_;
  /// Sum of queued exec-pmf means, for the scalar fast path.
  double queued_mean_sum_ = 0.0;

  /// The running task's exec pmf shifted by start_time_; empty when idle.
  pmf::Pmf running_completion_;

  mutable pmf::Pmf cached_ready_;
  /// Memo key: the truncation index of running_completion_, plus the exact
  /// query time when the result depends on it (idle core, Delta fallback).
  mutable std::size_t cached_first_ = 0;
  mutable double cached_now_ = 0.0;
  mutable bool cache_valid_ = false;
  /// Reused working pmf for the shift/truncate pipeline, so ReadyPmf and
  /// ExpectedReadyTime perform no allocation per query.
  mutable pmf::Pmf scratch_;
};

}  // namespace ecdra::robustness
