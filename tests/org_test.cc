#include <gtest/gtest.h>

#include "change/change_op.h"
#include "core/adept.h"
#include "org/org_model.h"
#include "model/schema_builder.h"

namespace adept {
namespace {

// Order process whose activities carry staff-assignment roles.
std::shared_ptr<const ProcessSchema> RoleSchema(RoleId clerk, RoleId packer) {
  SchemaBuilder b("role_proc", 1);
  b.Activity("take order", {.role = clerk});
  b.Activity("pack", {.role = packer});
  b.Activity("ship", {.role = packer});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

class WorklistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clerk_ = *org_.AddRole("clerk");
    packer_ = *org_.AddRole("packer");
    alice_ = *org_.AddUser("alice");
    bob_ = *org_.AddUser("bob");
    ASSERT_TRUE(org_.AssignRole(alice_, clerk_).ok());
    ASSERT_TRUE(org_.AssignRole(bob_, packer_).ok());
    schema_ = RoleSchema(clerk_, packer_);
    ASSERT_NE(schema_, nullptr);
  }

  // A standalone system whose org model holds the fixture's roles and
  // users under the same ids, with role_proc deployed.
  std::unique_ptr<AdeptSystem> MakeSystem() {
    auto system = AdeptSystem::Create();
    EXPECT_TRUE(system.ok());
    OrgModel& org = (*system)->org();
    EXPECT_EQ(*org.AddRole("clerk"), clerk_);
    EXPECT_EQ(*org.AddRole("packer"), packer_);
    EXPECT_EQ(*org.AddUser("alice"), alice_);
    EXPECT_EQ(*org.AddUser("bob"), bob_);
    EXPECT_TRUE(org.AssignRole(alice_, clerk_).ok());
    EXPECT_TRUE(org.AssignRole(bob_, packer_).ok());
    EXPECT_TRUE((*system)->DeployProcessType(schema_).ok());
    return std::move(system).value();
  }

  OrgModel org_;
  RoleId clerk_, packer_;
  UserId alice_, bob_;
  std::shared_ptr<const ProcessSchema> schema_;
};

TEST(OrgModelTest, RolesAndUsers) {
  OrgModel org;
  auto clerk = org.AddRole("clerk");
  ASSERT_TRUE(clerk.ok());
  EXPECT_FALSE(org.AddRole("clerk").ok());

  auto alice = org.AddUser("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_FALSE(org.AddUser("alice").ok());

  ASSERT_TRUE(org.AssignRole(*alice, *clerk).ok());
  EXPECT_TRUE(org.UserHasRole(*alice, *clerk));
  EXPECT_EQ(org.UsersInRole(*clerk).size(), 1u);
  EXPECT_EQ(org.RolesOf(*alice).size(), 1u);

  ASSERT_TRUE(org.RevokeRole(*alice, *clerk).ok());
  EXPECT_FALSE(org.UserHasRole(*alice, *clerk));
  EXPECT_FALSE(org.RevokeRole(*alice, *clerk).ok());

  EXPECT_EQ(*org.FindUser("alice"), *alice);
  EXPECT_EQ(*org.FindRole("clerk"), *clerk);
  EXPECT_FALSE(org.FindUser("nobody").ok());
  EXPECT_EQ(*org.UserName(*alice), "alice");
  EXPECT_EQ(*org.RoleName(*clerk), "clerk");
}

TEST_F(WorklistTest, OffersFollowActivation) {
  auto adept = MakeSystem();
  WorklistService& worklists = adept->worklists();
  InstanceId id = *adept->CreateInstance("role_proc");

  // "take order" is activated -> offered to alice (clerk), not bob.
  auto alice_offers = worklists.OffersFor(alice_);
  ASSERT_EQ(alice_offers.size(), 1u);
  EXPECT_EQ(alice_offers[0].node, schema_->FindNodeByName("take order"));
  EXPECT_TRUE(worklists.OffersFor(bob_).empty());

  // Claim and start.
  ASSERT_TRUE(worklists.Claim(alice_offers[0].id, alice_).ok());
  EXPECT_TRUE(worklists.OffersFor(alice_).empty());  // claimed, not offered
  ASSERT_TRUE(adept->StartActivity(id, alice_offers[0].node).ok());
  ASSERT_TRUE(adept->CompleteActivity(id, alice_offers[0].node).ok());

  // Next item goes to bob.
  auto bob_offers = worklists.OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("pack"));
}

TEST_F(WorklistTest, ClaimAuthorizationEnforced) {
  auto adept = MakeSystem();
  ASSERT_TRUE(adept->CreateInstance("role_proc").ok());
  WorklistService& worklists = adept->worklists();
  auto offers = worklists.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  // bob is no clerk.
  EXPECT_EQ(worklists.Claim(offers[0].id, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklists.Claim(offers[0].id, alice_).ok());
  // Double claim rejected.
  EXPECT_FALSE(worklists.Claim(offers[0].id, alice_).ok());
}

// The first worklists() call derives offers from the instances as they
// stand: only the currently activated role activity, nothing from the
// history before the call, and later events keep it current.
TEST_F(WorklistTest, FirstCallDerivesOffersFromProgressedInstance) {
  auto adept = MakeSystem();
  InstanceId id = *adept->CreateInstance("role_proc");
  NodeId take_order = schema_->FindNodeByName("take order");
  ASSERT_TRUE(adept->StartActivity(id, take_order).ok());
  ASSERT_TRUE(adept->CompleteActivity(id, take_order).ok());

  WorklistService& worklists = adept->worklists();
  EXPECT_TRUE(worklists.OffersFor(alice_).empty());
  auto offers = worklists.OffersFor(bob_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].instance, id);
  EXPECT_EQ(offers[0].node, schema_->FindNodeByName("pack"));
  WorklistStats stats = worklists.Stats();
  EXPECT_EQ(stats.offered, 1u);
  EXPECT_EQ(stats.claimed + stats.started, 0u);

  // Subscribed from here on: the claimed task runs through the service
  // and its completion offers the successor.
  ASSERT_TRUE(worklists.Claim(offers[0].id, bob_).ok());
  ASSERT_TRUE(worklists.Start(offers[0].id, bob_).ok());
  ASSERT_TRUE(worklists.Complete(offers[0].id, bob_).ok());
  EXPECT_EQ(worklists.Stats().completed_total, 1u);
  offers = worklists.OffersFor(bob_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].node, schema_->FindNodeByName("ship"));
}

TEST_F(WorklistTest, AdHocDeletionRevokesWorkItem) {
  auto adept = MakeSystem();
  WorklistService& worklists = adept->worklists();
  InstanceId id = *adept->CreateInstance("role_proc");
  ASSERT_EQ(worklists.Stats().offered, 1u);

  // Delete the offered activity ad hoc: the work item must be revoked.
  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("take order")));
  ASSERT_TRUE(adept->ApplyAdHocChange(id, std::move(delta)).ok());

  EXPECT_EQ(worklists.Stats().revoked_total, 1u);
  // The successor ("pack") is offered instead.
  auto bob_offers = worklists.OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("pack"));
}

TEST_F(WorklistTest, AdHocDeletionRevokesClaimedItemExactlyOnce) {
  auto adept = MakeSystem();
  WorklistService& worklists = adept->worklists();
  InstanceId id = *adept->CreateInstance("role_proc");

  // Claim the offered "take order" before it is deleted ad hoc.
  auto offers = worklists.OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(worklists.Claim(offers[0].id, alice_).ok());

  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("take order")));
  ASSERT_TRUE(adept->ApplyAdHocChange(id, std::move(delta)).ok());

  // Retracted exactly once — claimed items included.
  EXPECT_EQ(worklists.Stats().revoked_total, 1u);
  EXPECT_TRUE(worklists.OffersFor(alice_).empty());
  EXPECT_FALSE(worklists.Claim(offers[0].id, alice_).ok());
}

// Regression: a migration with bias cancellation rewrites the instance
// marking wholesale (no per-node events), leaving work items that
// reference the cancelled bias node ids. Claiming such a stale item used
// to succeed; Migrate now resyncs the worklist and the claim fails
// kNotFound.
TEST_F(WorklistTest, StaleItemAfterBiasCancellationMigration) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  RoleId clerk = *adept.org().AddRole("clerk");
  UserId alice = *adept.org().AddUser("alice");
  ASSERT_TRUE(adept.org().AssignRole(alice, clerk).ok());

  SchemaBuilder b("bias_proc", 1);
  NodeId a = b.Activity("a", {.role = clerk});
  NodeId c = b.Activity("c", {.role = clerk});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());

  InstanceId id = *adept.CreateInstance("bias_proc");
  ASSERT_TRUE(adept.StartActivity(id, a).ok());
  ASSERT_TRUE(adept.CompleteActivity(id, a).ok());

  // Ad-hoc: insert "x" between a and c; it activates and is offered.
  auto make_insert = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "x";
    spec.role = clerk;
    delta.Add(std::make_unique<SerialInsertOp>(spec, a, c));
    return delta;
  };
  ASSERT_TRUE(adept.ApplyAdHocChange(id, make_insert()).ok());
  auto offers = adept.worklists().OffersFor(alice);
  ASSERT_EQ(offers.size(), 1u);
  WorkItemId stale = offers[0].id;

  // The type evolves by the semantically identical change; migration
  // cancels the bias and remaps the instance state onto the type's ids.
  auto v2 = adept.EvolveProcessType(*v1, make_insert());
  ASSERT_TRUE(v2.ok());
  auto report = adept.Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->MigratedTotal(), 1u);

  // The stale item (bias node id) is gone; claiming it is kNotFound.
  EXPECT_EQ(adept.worklists().Claim(stale, alice).code(),
            StatusCode::kNotFound);
  // Exactly one live offer for the remapped "x" node remains, claimable.
  offers = adept.worklists().OffersFor(alice);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_NE(offers[0].id, stale);
  auto snapshot = adept.SnapshotOf(id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->schema->FindNode(offers[0].node), nullptr);
  EXPECT_TRUE(adept.worklists().Claim(offers[0].id, alice).ok());
}

// Migration demotion (paper: state adaptation may deactivate an activity
// when the type change inserts a predecessor) retracts offered and
// claimed items exactly once.
TEST_F(WorklistTest, MigrationDemotionRevokesClaimedItems) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& adept = **system;
  RoleId clerk = *adept.org().AddRole("clerk");
  UserId alice = *adept.org().AddUser("alice");
  ASSERT_TRUE(adept.org().AssignRole(alice, clerk).ok());

  SchemaBuilder b("demote_proc", 1);
  NodeId a = b.Activity("a", {.role = clerk});
  NodeId c = b.Activity("c", {.role = clerk});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept.DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());

  InstanceId offered_id = *adept.CreateInstance("demote_proc");
  InstanceId claimed_id = *adept.CreateInstance("demote_proc");
  for (InstanceId id : {offered_id, claimed_id}) {
    ASSERT_TRUE(adept.StartActivity(id, a).ok());
    ASSERT_TRUE(adept.CompleteActivity(id, a).ok());
  }
  auto offers = adept.worklists().OffersFor(alice);
  ASSERT_EQ(offers.size(), 2u);
  const WorkItem claimed_item =
      offers[0].instance == claimed_id ? offers[0] : offers[1];
  ASSERT_TRUE(adept.worklists().Claim(claimed_item.id, alice).ok());

  Delta delta;
  NewActivitySpec spec;
  spec.name = "gate";
  spec.role = clerk;
  delta.Add(std::make_unique<SerialInsertOp>(spec, a, c));
  auto v2 = adept.EvolveProcessType(*v1, std::move(delta));
  ASSERT_TRUE(v2.ok());
  auto report = adept.Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->MigratedTotal(), 2u);

  // Both "c" items (one offered, one claimed) retracted exactly once;
  // the new "gate" is offered on both instances.
  EXPECT_EQ(adept.worklists().Stats().revoked_total, 2u);
  offers = adept.worklists().OffersFor(alice);
  ASSERT_EQ(offers.size(), 2u);
  for (const WorkItem& item : offers) {
    EXPECT_NE(item.node, c);
  }
  EXPECT_FALSE(adept.worklists().Claim(claimed_item.id, alice).ok());
}

TEST_F(WorklistTest, SkippedBranchRevokesOffer) {
  SchemaBuilder b("xor_roles", 1);
  DataId sel = b.Data("sel", DataType::kInt);
  NodeId init = b.Activity("init", {.role = clerk_});
  b.Writes(init, sel);
  b.Conditional(sel, {
      [&](SchemaBuilder& s) { s.Activity("left", {.role = packer_}); },
      [&](SchemaBuilder& s) { s.Activity("right", {.role = packer_}); },
  });
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());

  auto adept = MakeSystem();
  ASSERT_TRUE(adept->DeployProcessType(*schema).ok());
  WorklistService& worklists = adept->worklists();
  InstanceId id = *adept->CreateInstance("xor_roles");
  ASSERT_TRUE(adept->StartActivity(id, init).ok());
  ASSERT_TRUE(
      adept->CompleteActivity(id, init, {{sel, DataValue::Int(0)}}).ok());

  // Only "left" is offered; "right" was skipped without ever being offered.
  auto offers = worklists.OffersFor(bob_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].node, (*schema)->FindNodeByName("left"));
}

}  // namespace
}  // namespace adept
