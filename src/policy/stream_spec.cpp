#include "policy/stream_spec.hpp"

#include "policy/scenario_spec.hpp"

namespace ecdra::policy {

std::string_view RunModeName(RunMode mode) noexcept {
  switch (mode) {
    case RunMode::kFixedTrace:
      return "fixed";
    case RunMode::kStream:
      return "stream";
    case RunMode::kBatch:
      return "batch";
  }
  return "fixed";
}

bool StreamSpec::any() const { return !DescribeStreamFields(*this).empty(); }

std::string DescribeStreamFields(const StreamSpec& stream) {
  ScenarioSpec spec;
  spec.stream = stream;
  const ScenarioSpec defaults;
  std::string out;
  for (const Knob& knob : Knobs()) {
    if (!knob.key.starts_with("stream.")) continue;
    const std::string value = knob.get(spec);
    if (value == knob.get(defaults)) continue;
    if (!out.empty()) out += ", ";
    out += knob.key;
    out += " = ";
    out += value;
  }
  return out;
}

void RequireStreamCompatible(RunMode mode, const StreamSpec& stream) {
  if (mode == RunMode::kStream) {
    if (stream.energy_rate > 0.0) return;
    throw StreamSpecError(
        "stream mode requires stream.energy_rate > 0 (set --energy-rate)");
  }
  const std::string fields = DescribeStreamFields(stream);
  if (fields.empty()) return;
  throw StreamSpecError(std::string(RunModeName(mode)) +
                        " mode cannot honor a streaming scenario: " + fields +
                        " (run with --stream, or drop the stream block)");
}

}  // namespace ecdra::policy
