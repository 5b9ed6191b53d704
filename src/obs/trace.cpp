#include "obs/trace.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace ecdra::obs {
namespace {

/// Shortest round-trip decimal representation, locale-independent. JSON has
/// no encoding for non-finite numbers, so those degrade to null.
void AppendNumber(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  os.write(buf, static_cast<std::streamsize>(ptr - buf));
}

void WriteDecision(std::ostream& os, const MappingDecisionRecord& decision) {
  os << "{\"event\":\"decision\",\"trial\":" << decision.trial
     << ",\"task\":" << decision.task_id << ",\"time\":";
  AppendNumber(os, decision.time);
  os << ",\"deadline\":";
  AppendNumber(os, decision.deadline);
  os << ",\"assigned\":" << (decision.assigned ? "true" : "false");
  if (!decision.assigned) {
    os << ",\"discard_stage\":\"" << json::Escape(decision.discard_stage)
       << "\"";
  } else {
    os << ",\"core\":" << decision.flat_core
       << ",\"pstate\":" << decision.pstate << ",\"eet\":";
    AppendNumber(os, decision.eet);
    os << ",\"eec\":";
    AppendNumber(os, decision.eec);
    os << ",\"rho\":";
    AppendNumber(os, decision.rho);
  }
  os << ",\"candidates\":" << decision.candidates_generated << ",\"stages\":[";
  for (std::size_t i = 0; i < decision.stages.size(); ++i) {
    const FilterStageRecord& stage = decision.stages[i];
    if (i != 0) os << ",";
    os << "{\"filter\":\"" << json::Escape(stage.filter)
       << "\",\"pruned\":" << stage.pruned
       << ",\"survivors\":" << stage.survivors << "}";
  }
  os << "],\"decision_us\":";
  AppendNumber(os, decision.decision_us);
  if (decision.remap) os << ",\"remap\":true";
  os << "}\n";
}

void WriteFault(std::ostream& os, const FaultEventRecord& fault) {
  os << "{\"event\":\"fault\",\"trial\":" << fault.trial << ",\"time\":";
  AppendNumber(os, fault.time);
  os << ",\"kind\":\"" << json::Escape(fault.kind)
     << "\",\"core\":" << fault.flat_core;
  if (fault.kind == "throttle_start") {
    os << ",\"pstate_floor\":" << fault.pstate_floor;
  }
  if (fault.kind == "failure" || fault.kind == "domain_outage") {
    os << ",\"tasks_lost\":" << fault.tasks_lost
       << ",\"tasks_requeued\":" << fault.tasks_requeued;
  }
  if (fault.kind == "domain_outage" || fault.kind == "domain_repair") {
    os << ",\"domain\":" << fault.domain;
  }
  os << "}\n";
}

void WriteGovernor(std::ostream& os, const GovernorActionRecord& action) {
  os << "{\"event\":\"governor\",\"trial\":" << action.trial << ",\"time\":";
  AppendNumber(os, action.time);
  os << ",\"governor\":\"" << json::Escape(action.governor)
     << "\",\"action\":\"" << json::Escape(action.action) << "\"";
  if (action.action == "cap") {
    os << ",\"core\":" << action.flat_core
       << ",\"pstate_floor\":" << action.pstate_floor;
  } else if (action.action == "park") {
    os << ",\"core\":" << action.flat_core;
  } else if (action.action == "allowance") {
    os << ",\"scale\":";
    AppendNumber(os, action.scale);
  }
  os << "}\n";
}

void WriteWindow(std::ostream& os, const StreamWindowRecord& window) {
  os << "{\"event\":\"window\",\"trial\":" << window.trial
     << ",\"index\":" << window.index << ",\"start\":";
  AppendNumber(os, window.start);
  os << ",\"end\":";
  AppendNumber(os, window.end);
  os << ",\"arrivals\":" << window.arrivals << ",\"admitted\":"
     << window.admitted << ",\"deferred\":" << window.deferred
     << ",\"dropped\":" << window.dropped << ",\"released\":"
     << window.released << ",\"on_time\":" << window.on_time
     << ",\"late\":" << window.late << ",\"over_energy\":"
     << window.over_energy << ",\"joules\":";
  AppendNumber(os, window.joules);
  os << ",\"on_time_per_joule\":";
  AppendNumber(os, window.on_time_per_joule);
  os << ",\"missed_rate\":";
  AppendNumber(os, window.missed_rate);
  os << ",\"available\":";
  AppendNumber(os, window.available);
  os << ",\"queue_depth\":" << window.queue_depth
     << ",\"pen_depth\":" << window.pen_depth << ",\"emergency\":"
     << (window.emergency ? "true" : "false") << "}\n";
}

void WriteProfit(std::ostream& os, const ProfitRecord& profit) {
  os << "{\"event\":\"profit\",\"trial\":" << profit.trial << ",\"time\":";
  AppendNumber(os, profit.time);
  os << ",\"revenue\":";
  AppendNumber(os, profit.revenue);
  os << ",\"cost\":";
  AppendNumber(os, profit.energy_cost);
  os << ",\"net\":";
  AppendNumber(os, profit.net_profit);
  os << ",\"offered\":";
  AppendNumber(os, profit.value_offered);
  os << ",\"paid\":" << profit.paid_finishes
     << ",\"decayed\":" << profit.decayed_finishes << "}\n";
}

void WriteSnapshot(std::ostream& os, const EnergySnapshotRecord& snapshot) {
  os << "{\"event\":\"energy\",\"trial\":" << snapshot.trial << ",\"time\":";
  AppendNumber(os, snapshot.time);
  os << ",\"consumed\":";
  AppendNumber(os, snapshot.consumed);
  os << ",\"budget\":";
  AppendNumber(os, snapshot.budget);
  os << ",\"estimated_remaining\":";
  AppendNumber(os, snapshot.estimated_remaining);
  os << "}\n";
}

class SynchronizedSink final : public TraceSink {
 public:
  explicit SynchronizedSink(TraceSink& inner) : inner_(&inner) {}

  void Record(const MappingDecisionRecord& decision) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(decision);
  }
  void Record(const EnergySnapshotRecord& snapshot) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(snapshot);
  }
  void Record(const FaultEventRecord& fault) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(fault);
  }
  void Record(const GovernorActionRecord& action) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(action);
  }
  void Record(const StreamWindowRecord& window) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(window);
  }
  void Record(const ProfitRecord& profit) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Record(profit);
  }
  void Flush() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_->Flush();
  }

 private:
  std::mutex mutex_;
  TraceSink* inner_;
};

class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path) : file_(path) {
    if (!file_.good()) {
      throw std::invalid_argument("cannot open trace file: " + path);
    }
  }

  void Record(const MappingDecisionRecord& decision) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteDecision(file_, decision);
  }
  void Record(const EnergySnapshotRecord& snapshot) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteSnapshot(file_, snapshot);
  }
  void Record(const FaultEventRecord& fault) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteFault(file_, fault);
  }
  void Record(const GovernorActionRecord& action) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteGovernor(file_, action);
  }
  void Record(const StreamWindowRecord& window) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteWindow(file_, window);
  }
  void Record(const ProfitRecord& profit) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    WriteProfit(file_, profit);
  }
  void Flush() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    file_.flush();
  }

 private:
  std::mutex mutex_;
  std::ofstream file_;
};

}  // namespace

void JsonlTraceSink::Record(const MappingDecisionRecord& decision) {
  WriteDecision(*os_, decision);
}

void JsonlTraceSink::Record(const EnergySnapshotRecord& snapshot) {
  WriteSnapshot(*os_, snapshot);
}

void JsonlTraceSink::Record(const FaultEventRecord& fault) {
  WriteFault(*os_, fault);
}

void JsonlTraceSink::Record(const GovernorActionRecord& action) {
  WriteGovernor(*os_, action);
}

void JsonlTraceSink::Record(const StreamWindowRecord& window) {
  WriteWindow(*os_, window);
}

void JsonlTraceSink::Record(const ProfitRecord& profit) {
  WriteProfit(*os_, profit);
}

void JsonlTraceSink::Flush() { os_->flush(); }

std::unique_ptr<TraceSink> MakeSynchronized(TraceSink& sink) {
  return std::make_unique<SynchronizedSink>(sink);
}

std::unique_ptr<TraceSink> OpenJsonlTraceFile(const std::string& path) {
  return std::make_unique<JsonlFileSink>(path);
}

}  // namespace ecdra::obs
