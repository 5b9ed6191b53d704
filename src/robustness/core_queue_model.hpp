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
// the stored pmf, bit-identical to a recomputation. A hit costs O(1): the
// stored cut f is still the cut at t_l exactly when
// imp[f-1].value < t_l <= imp[f].value (the left test dropped at f = 0),
// so no query rescans the support or re-sums the retained mass. Only the
// Delta(t_l) fallback (nothing or at most kMassTolerance survives) and the
// idle core depend on t_l itself; there the memo stores that it was a
// fallback, and a hit needs the exact t_l. Every mutator drops the memo.
//
// An epoch is the span between two mutators: the running pmf and the queued
// suffix are fixed in it, and only the cut moves. The sums r_k + s_j of the
// cross product do not depend on the cut; only which rows survive and their
// renormalised probabilities do. So at an epoch's second convolving miss
// outside the Delta fallback the model sorts the full running × suffix
// cross product once into its pmf::CrossOrder, and the epoch's later misses
// walk that order (pmf::ConvolveTruncatedInto) instead of truncating and
// re-sorting: bit-identical, and with the same op counts. The order's
// storage is at most 2 KiB, allocated at the core's first build and reused
// by later epochs; a policy that never asks for ReadyPmf never allocates it.
// An epoch with a single miss never pays for an order. Two cases keep
// truncate-then-convolve: an epoch whose cross product holds an exact value
// tie (the sort's comparison fallback orders ties in an unspecified way),
// and every query while a deep validator is active, so that
// `--validate deep` still audits the truncated pmf.
//
// Pmf pointers reference the TaskTypeTable (or any equally stable storage)
// and must outlive the model.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Where the epoch stands on its cross-product order.
  enum class EpochOrder : std::uint8_t {
    kNoMiss,     // no convolving miss yet
    kOneMiss,    // one; the next builds the order
    kBuilt,      // built: misses walk it
    kUnusable,   // not unique or too large: misses sort as before
  };

  void BuildRunningCompletion();
  void RebuildSuffix();
  void InvalidateCache() noexcept {
    cache_valid_ = false;
    epoch_order_state_ = EpochOrder::kNoMiss;
  }
  /// The memo answers `now` (requires cache_valid_).
  [[nodiscard]] bool MemoHolds(double now) const noexcept;
  /// Whether a convolving miss outside the Delta fallback walks the epoch
  /// order; advances the epoch's state, building the order on its second
  /// such miss.
  [[nodiscard]] bool UseEpochOrder() const;

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
  /// Memo key: the truncation index of running_completion_, or, when the
  /// answer was the Delta fallback or an idle core's, the exact query time.
  mutable std::size_t cached_first_ = 0;
  mutable double cached_now_ = 0.0;
  mutable bool cached_fallback_ = false;
  mutable bool cache_valid_ = false;
  mutable EpochOrder epoch_order_state_ = EpochOrder::kNoMiss;
  mutable pmf::CrossOrder epoch_order_;
};

}  // namespace ecdra::robustness
