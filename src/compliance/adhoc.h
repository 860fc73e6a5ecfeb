// Ad-hoc instance changes (paper Sec. 2, "Ad-hoc changes of single
// instances").
//
// ApplyAdHocChange is the complete pipeline for deviating a single running
// instance from its type schema:
//   1. state pre-conditions (compliance/conditions.h) on the current marking
//   2. structural application + re-verification of the combined bias
//      (InstanceStore::AddBias -> Delta::ApplyToSchema -> verifier)
//   3. representation update (substitution block / full copy per strategy)
//   4. schema adoption + automatic marking re-evaluation (state adaptation,
//      e.g. demoting activities that a new sync edge now gates)
//   5. trace record of the change
// A failure in any step leaves the instance untouched.

#ifndef ADEPT_COMPLIANCE_ADHOC_H_
#define ADEPT_COMPLIANCE_ADHOC_H_

#include "change/delta.h"
#include "runtime/instance.h"
#include "storage/instance_store.h"

namespace adept {

// `delta` is only read: the store pins instance-range ids on its own copies
// of the ops, which become the instance's bias. With `log_warnings`, the
// warnings the change introduced (absent from the instance's report before
// it) are logged; WAL replay passes false, since they were logged when the
// change was made. Error contract:
//   kNotCompliant        a state pre-condition is violated
//   kFailedPrecondition  an op does not apply structurally
//   kVerificationFailed  the changed schema breaks a buildtime guarantee
Status ApplyAdHocChange(ProcessInstance& instance, InstanceStore& store,
                        const Delta& delta, bool log_warnings = true);

}  // namespace adept

#endif  // ADEPT_COMPLIANCE_ADHOC_H_
