#include <gtest/gtest.h>

#include "change/change_op.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "org/org_model.h"
#include "worklist/worklist_service.h"

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

// A WorklistService over one AdeptSystem: the application owns the org
// model and the service, and subscribes the service to the system.
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

    auto system = AdeptSystem::Create();
    ASSERT_TRUE(system.ok());
    adept_ = std::move(*system);
    auto service = WorklistService::Create(&org_, adept_.get());
    ASSERT_TRUE(service.ok());
    worklist_ = std::move(*service);
    adept_->AddObserver(worklist_.get());
  }

  OrgModel org_;
  RoleId clerk_, packer_;
  UserId alice_, bob_;
  std::shared_ptr<const ProcessSchema> schema_;
  // Declared before the system, so destroyed after it: the system never
  // holds a dangling observer.
  std::unique_ptr<WorklistService> worklist_;
  std::unique_ptr<AdeptSystem> adept_;
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
  ASSERT_TRUE(adept_->DeployProcessType(schema_).ok());
  InstanceId id = *adept_->CreateInstance("role_proc");

  // "take order" is activated -> offered to alice (clerk), not bob.
  auto alice_offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(alice_offers.size(), 1u);
  EXPECT_EQ(alice_offers[0].node, schema_->FindNodeByName("take order"));
  EXPECT_TRUE(worklist_->OffersFor(bob_).empty());

  // Claim and start.
  ASSERT_TRUE(worklist_->Claim(alice_offers[0].id, alice_).ok());
  EXPECT_TRUE(worklist_->OffersFor(alice_).empty());  // claimed, not offered
  ASSERT_TRUE(adept_->StartActivity(id, alice_offers[0].node).ok());
  ASSERT_TRUE(adept_->CompleteActivity(id, alice_offers[0].node).ok());

  // Next item goes to bob.
  auto bob_offers = worklist_->OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("pack"));
}

TEST_F(WorklistTest, ClaimAuthorizationEnforced) {
  ASSERT_TRUE(adept_->DeployProcessType(schema_).ok());
  ASSERT_TRUE(adept_->CreateInstance("role_proc").ok());
  auto offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  // bob is no clerk.
  EXPECT_EQ(worklist_->Claim(offers[0].id, bob_).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(worklist_->Claim(offers[0].id, alice_).ok());
  // Double claim rejected.
  EXPECT_FALSE(worklist_->Claim(offers[0].id, alice_).ok());
}

TEST_F(WorklistTest, AdHocDeletionRevokesWorkItem) {
  ASSERT_TRUE(adept_->DeployProcessType(schema_).ok());
  InstanceId id = *adept_->CreateInstance("role_proc");
  ASSERT_EQ(worklist_->Stats().offered, 1u);

  // Delete the offered activity ad hoc: the work item must be revoked.
  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("take order")));
  ASSERT_TRUE(adept_->ApplyAdHocChange(id, std::move(delta)).ok());

  EXPECT_EQ(worklist_->Stats().revoked_total, 1u);
  // The successor ("pack") is offered instead.
  auto bob_offers = worklist_->OffersFor(bob_);
  ASSERT_EQ(bob_offers.size(), 1u);
  EXPECT_EQ(bob_offers[0].node, schema_->FindNodeByName("pack"));
}

TEST_F(WorklistTest, AdHocDeletionRevokesClaimedItemExactlyOnce) {
  ASSERT_TRUE(adept_->DeployProcessType(schema_).ok());
  InstanceId id = *adept_->CreateInstance("role_proc");

  // Claim the offered "take order" before it is deleted ad hoc.
  auto offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_TRUE(worklist_->Claim(offers[0].id, alice_).ok());

  Delta delta;
  delta.Add(std::make_unique<DeleteActivityOp>(
      schema_->FindNodeByName("take order")));
  ASSERT_TRUE(adept_->ApplyAdHocChange(id, std::move(delta)).ok());

  // Retracted exactly once — claimed items included.
  EXPECT_EQ(worklist_->Stats().revoked_total, 1u);
  EXPECT_TRUE(worklist_->OffersFor(alice_).empty());
  EXPECT_TRUE(worklist_->AssignedTo(alice_).empty());
  EXPECT_EQ(worklist_->Claim(offers[0].id, alice_).code(),
            StatusCode::kNotFound);
}

// Regression: a migration with bias cancellation rewrites the instance
// marking wholesale (no per-node events), leaving work items that
// reference the cancelled bias node ids. Claiming such a stale item used
// to succeed; Migrate now reports each migrated instance to its observers
// (OnInstanceMigrated), the service reconciles it, and the claim fails
// kNotFound.
TEST_F(WorklistTest, StaleItemAfterBiasCancellationMigration) {
  SchemaBuilder b("bias_proc", 1);
  NodeId a = b.Activity("a", {.role = clerk_});
  NodeId c = b.Activity("c", {.role = clerk_});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept_->DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());

  InstanceId id = *adept_->CreateInstance("bias_proc");
  ASSERT_TRUE(adept_->StartActivity(id, a).ok());
  ASSERT_TRUE(adept_->CompleteActivity(id, a).ok());

  // Ad-hoc: insert "x" between a and c; it activates and is offered.
  auto make_insert = [&] {
    Delta delta;
    NewActivitySpec spec;
    spec.name = "x";
    spec.role = clerk_;
    delta.Add(std::make_unique<SerialInsertOp>(spec, a, c));
    return delta;
  };
  ASSERT_TRUE(adept_->ApplyAdHocChange(id, make_insert()).ok());
  auto offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  WorkItemId stale = offers[0].id;
  // The insert demoted "c", retracting its offer once already.
  const size_t revoked_before = worklist_->Stats().revoked_total;

  // The type evolves by the semantically identical change; migration
  // cancels the bias and remaps the instance state onto the type's ids.
  auto v2 = adept_->EvolveProcessType(*v1, make_insert());
  ASSERT_TRUE(v2.ok());
  auto report = adept_->Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->MigratedTotal(), 1u);

  // The stale item (bias node id) is gone; claiming it is kNotFound.
  EXPECT_EQ(worklist_->Claim(stale, alice_).code(), StatusCode::kNotFound);
  EXPECT_EQ(worklist_->Stats().revoked_total, revoked_before + 1);
  // Exactly one live offer for the remapped "x" node remains, claimable.
  offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_NE(offers[0].id, stale);
  auto snapshot = adept_->SnapshotOf(id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->schema->FindNode(offers[0].node), nullptr);
  EXPECT_TRUE(worklist_->Claim(offers[0].id, alice_).ok());
}

// Migration demotion (paper: state adaptation may deactivate an activity
// when the type change inserts a predecessor) retracts offered and
// claimed items exactly once.
TEST_F(WorklistTest, MigrationDemotionRevokesClaimedItems) {
  SchemaBuilder b("demote_proc", 1);
  NodeId a = b.Activity("a", {.role = clerk_});
  NodeId c = b.Activity("c", {.role = clerk_});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto v1 = adept_->DeployProcessType(*schema);
  ASSERT_TRUE(v1.ok());

  InstanceId offered_id = *adept_->CreateInstance("demote_proc");
  InstanceId claimed_id = *adept_->CreateInstance("demote_proc");
  for (InstanceId id : {offered_id, claimed_id}) {
    ASSERT_TRUE(adept_->StartActivity(id, a).ok());
    ASSERT_TRUE(adept_->CompleteActivity(id, a).ok());
  }
  auto offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 2u);
  const WorkItem claimed_item =
      offers[0].instance == claimed_id ? offers[0] : offers[1];
  ASSERT_TRUE(worklist_->Claim(claimed_item.id, alice_).ok());

  Delta delta;
  NewActivitySpec spec;
  spec.name = "gate";
  spec.role = clerk_;
  delta.Add(std::make_unique<SerialInsertOp>(spec, a, c));
  auto v2 = adept_->EvolveProcessType(*v1, std::move(delta));
  ASSERT_TRUE(v2.ok());
  auto report = adept_->Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->MigratedTotal(), 2u);

  // Both "c" items (one offered, one claimed) retracted exactly once;
  // the new "gate" is offered on both instances.
  EXPECT_EQ(worklist_->Stats().revoked_total, 2u);
  offers = worklist_->OffersFor(alice_);
  ASSERT_EQ(offers.size(), 2u);
  for (const WorkItem& item : offers) {
    EXPECT_NE(item.node, c);
  }
  EXPECT_EQ(worklist_->Claim(claimed_item.id, alice_).code(),
            StatusCode::kNotFound);
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
  ASSERT_TRUE(adept_->DeployProcessType(*schema).ok());

  InstanceId id = *adept_->CreateInstance("xor_roles");
  ASSERT_TRUE(adept_->StartActivity(id, init).ok());
  ASSERT_TRUE(
      adept_->CompleteActivity(id, init, {{sel, DataValue::Int(0)}}).ok());

  // Only "left" is offered; "right" was skipped without ever being offered.
  auto offers = worklist_->OffersFor(bob_);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].node, (*schema)->FindNodeByName("left"));
  EXPECT_EQ(worklist_->Stats().revoked_total, 0u);
}

}  // namespace
}  // namespace adept
