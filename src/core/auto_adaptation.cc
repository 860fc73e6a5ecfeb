#include "core/auto_adaptation.h"

namespace adept {

void AutoAdapter::OnNodeStateChange(const ProcessInstance& instance,
                                    NodeId node, NodeState from,
                                    NodeState to) {
  (void)from;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const AdaptationRule& rule = rules_[i];
    if (to != rule.trigger_state) continue;
    if (!rule.activity_name.empty()) {
      const Node* n = instance.schema().FindNode(node);
      if (n == nullptr || n->name != rule.activity_name) continue;
    }
    queue_.push_back(Firing{instance.id(), node, i});
  }
}

std::vector<AdaptationOutcome> AutoAdapter::Drain() {
  std::vector<AdaptationOutcome> outcomes;
  while (!queue_.empty()) {
    Firing firing = queue_.front();
    queue_.pop_front();
    const AdaptationRule& rule = rules_[firing.rule_index];
    AdaptationOutcome outcome{firing.instance, firing.node, rule.name,
                              Status::OK()};
    // The rule's action reads the live instance under the owner's lock;
    // the derived delta is applied afterwards through the facade.
    Delta delta;
    Status read = system_->WithInstance(
        firing.instance, [&](const ProcessInstance& instance) {
          delta = rule.action(instance, firing.node);
        });
    if (!read.ok()) {
      outcome.status = Status::NotFound("instance vanished before adaptation");
      outcomes.push_back(std::move(outcome));
      continue;
    }
    if (delta.empty()) {
      outcome.status = Status::OK();  // rule chose not to act
      outcomes.push_back(std::move(outcome));
      continue;
    }
    outcome.status =
        system_->ApplyAdHocChange(firing.instance, std::move(delta));
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace adept
