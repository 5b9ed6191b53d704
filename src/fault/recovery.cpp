#include "fault/recovery.hpp"

#include <stdexcept>
#include <string>

namespace ecdra::fault {

std::string_view RecoveryPolicyName(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kDropQueued:
      return "drop";
    case RecoveryPolicy::kRequeueToScheduler:
      return "requeue";
  }
  return "unknown";
}

RecoveryPolicy ParseRecoveryPolicy(std::string_view name) {
  if (name == "drop") return RecoveryPolicy::kDropQueued;
  if (name == "requeue") return RecoveryPolicy::kRequeueToScheduler;
  throw std::invalid_argument("unknown recovery policy: " + std::string(name) +
                              " (valid: " + std::string(RecoveryPolicyNames()) +
                              ")");
}

std::string_view RecoveryPolicyNames() noexcept {
  return "drop, requeue";
}

}  // namespace ecdra::fault
