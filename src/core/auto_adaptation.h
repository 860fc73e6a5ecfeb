// Rule-based automatic workflow adaptation (extension).
//
// The paper notes that AgentWork (Mueller/Greiner/Rahm, ref. [4]) built
// "rule-based workflow adaptation" on this platform: instead of a user
// deciding each ad-hoc deviation, ECA-style rules watch runtime events and
// derive the change automatically — the full correctness machinery
// (state pre-conditions, re-verification, substitution blocks) still
// guards every automatic change.
//
// An AdaptationRule fires when an activity enters `trigger_state` (and its
// name matches, if a pattern is given); its action builds the Delta to
// apply to that instance. Firings are queued by the observer callback and
// applied by Drain() — observers must not re-enter the engine.

#ifndef ADEPT_CORE_AUTO_ADAPTATION_H_
#define ADEPT_CORE_AUTO_ADAPTATION_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/adept.h"

namespace adept {

struct AdaptationRule {
  std::string name;
  // Fire when an activity enters this state...
  NodeState trigger_state = NodeState::kFailed;
  // ...and its name equals this (empty = any activity).
  std::string activity_name;
  // Builds the corrective change; return an empty Delta to skip.
  std::function<Delta(const ProcessInstance&, NodeId)> action;
};

struct AdaptationOutcome {
  InstanceId instance;
  NodeId node;
  std::string rule;
  Status status;  // result of applying the rule's delta
};

class AutoAdapter : public InstanceObserver {
 public:
  explicit AutoAdapter(AdeptSystem* system) : system_(system) {}

  void AddRule(AdaptationRule rule) { rules_.push_back(std::move(rule)); }

  // InstanceObserver: queue matching firings.
  void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                         NodeState from, NodeState to) override;

  // Applies every queued firing through the system API (ad-hoc change with
  // full compliance checking). Rules whose change is rejected report their
  // status in the outcome list; the queue is emptied either way.
  std::vector<AdaptationOutcome> Drain();

  size_t pending() const { return queue_.size(); }

 private:
  struct Firing {
    InstanceId instance;
    NodeId node;
    size_t rule_index;
  };

  AdeptSystem* system_;
  std::vector<AdaptationRule> rules_;
  std::deque<Firing> queue_;
};

}  // namespace adept

#endif  // ADEPT_CORE_AUTO_ADAPTATION_H_
