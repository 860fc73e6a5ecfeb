// Observer interface for instance-level runtime events.
//
// The worklist service, the claim ledger and the monitoring component
// subscribe to these callbacks. Observers must not re-enter the instance
// synchronously.

#ifndef ADEPT_RUNTIME_EVENTS_H_
#define ADEPT_RUNTIME_EVENTS_H_

#include <vector>

#include "common/ids.h"
#include "runtime/data_value.h"
#include "runtime/marking.h"

namespace adept {

class ProcessInstance;

class InstanceObserver {
 public:
  virtual ~InstanceObserver() = default;

  virtual void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                                 NodeState from, NodeState to) {
    (void)instance;
    (void)node;
    (void)from;
    (void)to;
  }
  virtual void OnInstanceFinished(const ProcessInstance& instance) {
    (void)instance;
  }
  virtual void OnDataWrite(const ProcessInstance& instance, NodeId writer,
                           DataId data, const DataValue& value) {
    (void)instance;
    (void)writer;
    (void)data;
    (void)value;
  }
  // A migration changed the instance (ChangesInstance) without one node
  // event per change — a bias cancellation remaps node ids — so an
  // observer keyed by node reconciles the whole instance here. Fired by
  // AdeptSystem::Migrate, live and on replay.
  virtual void OnInstanceMigrated(const ProcessInstance& instance) {
    (void)instance;
  }
};

// Broadcasts instance events to any number of subscribers (the engine holds
// a single observer slot; the facade fans out to worklists, monitors, ...).
class ObserverFanout : public InstanceObserver {
 public:
  void Add(InstanceObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void OnNodeStateChange(const ProcessInstance& instance, NodeId node,
                         NodeState from, NodeState to) override {
    for (InstanceObserver* o : observers_) {
      o->OnNodeStateChange(instance, node, from, to);
    }
  }
  void OnInstanceFinished(const ProcessInstance& instance) override {
    for (InstanceObserver* o : observers_) o->OnInstanceFinished(instance);
  }
  void OnDataWrite(const ProcessInstance& instance, NodeId writer, DataId data,
                   const DataValue& value) override {
    for (InstanceObserver* o : observers_) {
      o->OnDataWrite(instance, writer, data, value);
    }
  }
  void OnInstanceMigrated(const ProcessInstance& instance) override {
    for (InstanceObserver* o : observers_) o->OnInstanceMigrated(instance);
  }

 private:
  std::vector<InstanceObserver*> observers_;
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_EVENTS_H_
