// Failure-aware recovery policies: what the resource manager does with the
// tasks stranded on a core the instant it fails.
#pragma once

#include <string_view>

namespace ecdra::fault {

enum class RecoveryPolicy {
  /// Pessimistic baseline: the running task and the core's whole pending
  /// FIFO are lost — each becomes a missed deadline (the task never
  /// finishes). Models a resource manager with no failure awareness.
  kDropQueued,
  /// Failure-aware recovery: every stranded task (the running one restarts
  /// from scratch — its partial execution is wasted — and the queued ones
  /// follow in FIFO order) re-enters immediate-mode mapping at the failure
  /// instant, passing through the energy and robustness filters again
  /// against the surviving cores. Tasks the filters reject are lost.
  kRequeueToScheduler,
};

/// Stable short name: "drop" / "requeue".
[[nodiscard]] std::string_view RecoveryPolicyName(RecoveryPolicy policy) noexcept;

/// Inverse of RecoveryPolicyName; throws std::invalid_argument for unknown
/// names.
[[nodiscard]] RecoveryPolicy ParseRecoveryPolicy(std::string_view name);

/// Comma-separated list of every recognised policy name, for CLI choice
/// lists and error diagnostics ("drop, requeue").
[[nodiscard]] std::string_view RecoveryPolicyNames() noexcept;

}  // namespace ecdra::fault
