#include "robustness/core_queue_model.hpp"

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace ecdra::robustness {

const pmf::Pmf& CoreQueueModel::ReadyPmf(double now) const {
  // An idle core's answer, Delta(now), depends on `now` like a fallback cut.
  const pmf::Pmf::TruncationPoint cut =
      running_ ? running_completion_.TruncationAt(now)
               : pmf::Pmf::TruncationPoint{.delta_fallback = true};
  if (cache_valid_ && cached_first_ == cut.first &&
      (!cut.delta_fallback || cached_now_ == now)) {
    obs::Bump(&obs::Counters::ready_pmf_hits);
    return cached_ready_;
  }
  obs::Bump(&obs::Counters::ready_pmf_misses);

  if (!running_) {
    ECDRA_ASSERT(queued_.empty(), "queued tasks require a running task");
    cached_ready_ = pmf::Pmf::Delta(now);
  } else {
    // §IV-B: completion pmf of the running task with past impulses removed
    // and the rest renormalized. All in place: scratch_ and cached_ready_
    // keep their storage, so a cache miss costs zero allocations.
    scratch_ = running_completion_;
    scratch_.TruncateBelowInPlace(now);
    if (queued_.empty()) {
      cached_ready_ = scratch_;
    } else {
      pmf::ConvolveInto(scratch_, queued_suffix_, pmf::Pmf::kDefaultMaxImpulses,
                        cached_ready_);
    }
  }
  cached_first_ = cut.first;
  cached_now_ = now;
  cache_valid_ = true;
  return cached_ready_;
}

double CoreQueueModel::ExpectedReadyTime(double now) const {
  if (!running_) return now;
  scratch_ = *running_->exec;
  scratch_.ShiftInPlace(start_time_);
  scratch_.TruncateBelowInPlace(now);
  return scratch_.Expectation() + queued_mean_sum_;
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
