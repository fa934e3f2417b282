#pragma once

// Construction-profile helpers shared by the builders in core/: the label
// of a profile entry, and the wall-time clock of the centralized builders.

#include <string>
#include <utility>
#include <vector>

#include "congest/network.hpp"
#include "util/timer.hpp"

namespace usne {

/// "p<phase>.<task>", the label of one construction-profile entry.
inline std::string profile_label(int phase, const char* task) {
  std::string label = "p";
  label += std::to_string(phase);
  label += '.';
  label += task;
  return label;
}

/// Wall time per (phase, task) for the centralized builders, which have no
/// scheduler to split it: each cut() closes the task that ran since the
/// previous cut into one PhaseProfileEntry with only StageTimes::wall_s
/// filled in. Without a sink it reads no clock.
class TaskClock {
 public:
  explicit TaskClock(std::vector<congest::PhaseProfileEntry>* sink) : sink_(sink) {
    if (sink_ != nullptr) mark_ = MonoClock::now();
  }

  void cut(int phase, const char* task) {
    if (sink_ == nullptr) return;
    const MonoClock::time_point now = MonoClock::now();
    congest::PhaseProfileEntry entry;
    entry.label = profile_label(phase, task);
    entry.times.wall_s = elapsed_s(mark_, now);
    sink_->push_back(std::move(entry));
    mark_ = now;
  }

 private:
  std::vector<congest::PhaseProfileEntry>* sink_;
  MonoClock::time_point mark_{};
};

}  // namespace usne
