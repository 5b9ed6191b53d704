#include "robustness/core_queue_model.hpp"

#include "obs/counters.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"

namespace ecdra::robustness {

bool CoreQueueModel::MemoHolds(double now) const noexcept {
  if (cached_fallback_) return cached_now_ == now;
  // TruncationAt(now) advances past every impulse below `now` and stops at
  // the first that is not, so it stops at cached_first_ exactly when:
  const pmf::Impulse* const imp = running_completion_.impulses().data();
  const std::size_t f = cached_first_;
  return (f == 0 || imp[f - 1].value < now) && !(imp[f].value < now);
}

bool CoreQueueModel::UseEpochOrder() const {
  if (validate::DeepValidator() != nullptr) return false;
  switch (epoch_order_state_) {
    case EpochOrder::kNoMiss:
      epoch_order_state_ = EpochOrder::kOneMiss;
      return false;
    case EpochOrder::kOneMiss:
      epoch_order_state_ =
          epoch_order_.Build(running_completion_, queued_suffix_)
              ? EpochOrder::kBuilt
              : EpochOrder::kUnusable;
      return epoch_order_state_ == EpochOrder::kBuilt;
    case EpochOrder::kBuilt:
      return true;
    case EpochOrder::kUnusable:
      return false;
  }
  return false;
}

const pmf::Pmf& CoreQueueModel::ReadyPmf(double now) const {
  if (cache_valid_ && MemoHolds(now)) {
    obs::Bump(&obs::Counters::ready_pmf_hits);
    return cached_ready_;
  }
  obs::Bump(&obs::Counters::ready_pmf_misses);

  // An idle core's answer, Delta(now), depends on `now` like a fallback cut.
  const pmf::Pmf::TruncationPoint cut =
      running_ ? running_completion_.TruncationAt(now)
               : pmf::Pmf::TruncationPoint{.delta_fallback = true};
  if (!running_) {
    ECDRA_ASSERT(queued_.empty(), "queued tasks require a running task");
    cached_ready_ = pmf::Pmf::Delta(now);
  } else if (!queued_.empty() && !cut.delta_fallback && UseEpochOrder()) {
    pmf::ConvolveTruncatedInto(running_completion_, cut, queued_suffix_,
                               epoch_order_, pmf::Pmf::kDefaultMaxImpulses,
                               cached_ready_);
  } else {
    // §IV-B: completion pmf of the running task with past impulses removed
    // and the rest renormalized, convolved with the suffix in place
    // (ConvolveInto's output may alias its input). cached_ready_ keeps its
    // storage, so a cache miss costs zero allocations.
    cached_ready_ = running_completion_;
    cached_ready_.TruncateBelowInPlace(now);
    if (!queued_.empty()) {
      pmf::ConvolveInto(cached_ready_, queued_suffix_,
                        pmf::Pmf::kDefaultMaxImpulses, cached_ready_);
    }
  }
  cached_first_ = cut.first;
  cached_now_ = now;
  cached_fallback_ = cut.delta_fallback;
  cache_valid_ = true;
  return cached_ready_;
}

double CoreQueueModel::ExpectedReadyTime(double now) const {
  if (!running_) return now;
  // One working pmf per thread, reused: no per-core copy, and no fresh Pmf
  // (whose inline buffer is zero-filled on construction) per call.
  thread_local pmf::Pmf completion;
  completion = *running_->exec;
  completion.ShiftInPlace(start_time_);
  completion.TruncateBelowInPlace(now);
  return completion.Expectation() + queued_mean_sum_;
}

void CoreQueueModel::StartTask(const ModeledTask& task, double now) {
  ECDRA_REQUIRE(task.exec != nullptr, "modeled task needs an exec pmf");
  ECDRA_REQUIRE(!running_, "StartTask on a busy core; use Enqueue");
  running_ = task;
  start_time_ = now;
  BuildRunningCompletion();
  InvalidateCache();
}

void CoreQueueModel::Enqueue(const ModeledTask& task) {
  ECDRA_REQUIRE(task.exec != nullptr, "modeled task needs an exec pmf");
  ECDRA_REQUIRE(running_, "Enqueue on an idle core; use StartTask");
  queued_.push_back(task);
  queued_mean_sum_ += task.exec->Expectation();
  if (queued_.size() == 1) {
    queued_suffix_ = *task.exec;
  } else {
    pmf::ConvolveInto(queued_suffix_, *task.exec, pmf::Pmf::kDefaultMaxImpulses,
                      queued_suffix_);
  }
  InvalidateCache();
}

void CoreQueueModel::FinishRunning() {
  ECDRA_REQUIRE(running_, "FinishRunning on an idle core");
  running_.reset();
  running_completion_ = pmf::Pmf();
  InvalidateCache();
}

void CoreQueueModel::StartNext(double now) {
  ECDRA_REQUIRE(!running_, "StartNext while a task is still running");
  ECDRA_REQUIRE(!queued_.empty(), "StartNext with an empty queue");
  running_ = queued_.front();
  queued_.pop_front();
  start_time_ = now;
  queued_mean_sum_ -= running_->exec->Expectation();
  BuildRunningCompletion();
  RebuildSuffix();
  InvalidateCache();
}

void CoreQueueModel::DropNext() {
  ECDRA_REQUIRE(!running_, "DropNext while a task is running");
  ECDRA_REQUIRE(!queued_.empty(), "DropNext with an empty queue");
  queued_mean_sum_ -= queued_.front().exec->Expectation();
  queued_.pop_front();
  RebuildSuffix();
  InvalidateCache();
}

void CoreQueueModel::Reset() noexcept {
  running_.reset();
  running_completion_ = pmf::Pmf();
  queued_.clear();
  queued_suffix_ = pmf::Pmf();
  queued_mean_sum_ = 0.0;
  InvalidateCache();
}

void CoreQueueModel::BuildRunningCompletion() {
  running_completion_ = *running_->exec;
  running_completion_.ShiftInPlace(start_time_);
}

void CoreQueueModel::RebuildSuffix() {
  if (queued_.empty()) {
    queued_suffix_ = pmf::Pmf();
    queued_mean_sum_ = 0.0;  // clear accumulated floating-point drift
    return;
  }
  queued_suffix_ = *queued_.front().exec;
  double mean_sum = queued_.front().exec->Expectation();
  for (std::size_t i = 1; i < queued_.size(); ++i) {
    pmf::ConvolveInto(queued_suffix_, *queued_[i].exec,
                      pmf::Pmf::kDefaultMaxImpulses, queued_suffix_);
    mean_sum += queued_[i].exec->Expectation();
  }
  queued_mean_sum_ = mean_sum;
}

}  // namespace ecdra::robustness
