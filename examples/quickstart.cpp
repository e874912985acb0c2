// Quickstart: model a process, deploy it, run an instance, watch worklists.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/adept.h"
#include "model/schema_builder.h"
#include "monitor/monitor.h"
#include "org/org_model.h"
#include "worklist/worklist_service.h"

using namespace adept;

int main() {
  // 1. A system (in-memory; pass wal_path/snapshot_path for durability).
  auto system = AdeptSystem::Create();
  if (!system.ok()) {
    std::cerr << system.status() << "\n";
    return 1;
  }
  AdeptSystem& adept = **system;

  // 2. Organization: who works here? The worklist offers activated
  // activities to the holders of their role; it observes the system.
  OrgModel org;
  RoleId clerk = *org.AddRole("clerk");
  RoleId warehouse = *org.AddRole("warehouse");
  UserId alice = *org.AddUser("alice");
  UserId bob = *org.AddUser("bob");
  (void)org.AssignRole(alice, clerk);
  (void)org.AssignRole(bob, warehouse);
  auto service = WorklistService::Create(&org, &adept);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  WorklistService& worklist = **service;
  adept.AddObserver(&worklist);

  // 3. Model the paper's online ordering process (Fig. 1, schema S).
  SchemaBuilder builder("online_order", 1);
  builder.Activity("get order", {.role = clerk});
  builder.Activity("collect data", {.role = clerk});
  builder.Parallel({
      [&](SchemaBuilder& b) { b.Activity("confirm order", {.role = clerk}); },
      [&](SchemaBuilder& b) {
        b.Activity("compose order", {.role = warehouse});
      },
  });
  builder.Activity("pack goods", {.role = warehouse});
  builder.Activity("deliver goods", {.role = warehouse});
  auto schema = builder.Build();
  if (!schema.ok()) {
    std::cerr << "modeling failed: " << schema.status() << "\n";
    return 1;
  }

  // 4. Deploy (runs buildtime verification) and print the block structure.
  auto v1 = adept.DeployProcessType(*schema);
  if (!v1.ok()) {
    std::cerr << "deploy failed: " << v1.status() << "\n";
    return 1;
  }
  std::cout << RenderSchema(**schema) << "\n";

  // 5. Create and run one instance, pulling work from worklists. Reads go
  // through the published snapshot (ReadInstance/SnapshotOf) — lock-free
  // and race-free on any AdeptApi implementation; monitoring never blocks
  // the engine.
  InstanceId instance = *adept.CreateInstance("online_order");
  auto finished = [&] {
    auto snapshot = adept.SnapshotOf(instance);
    return snapshot != nullptr && snapshot->finished;
  };
  int step = 0;
  while (!finished()) {
    bool worked = false;
    for (UserId user : {alice, bob}) {
      auto offers = worklist.OffersFor(user);
      if (offers.empty()) continue;
      const WorkItem& item = offers.front();
      (void)worklist.Claim(item.id, user);
      (void)adept.StartActivity(instance, item.node);
      Status done = adept.CompleteActivity(instance, item.node);
      std::string name = "?";
      (void)adept.ReadInstance(instance, [&](const InstanceSnapshot& s) {
        const Node* node = s.schema->FindNode(item.node);
        if (node != nullptr) name = node->name;
      });
      std::printf("step %d: %-8s completes '%s' (%s)\n", ++step,
                  org.UserName(user)->c_str(), name.c_str(),
                  done.ok() ? "ok" : done.ToString().c_str());
      worked = true;
    }
    if (!worked) break;
  }

  (void)adept.ReadInstance(instance, [&](const InstanceSnapshot& s) {
    std::cout << "\n" << RenderInstance(s);
    std::cout << "\ninstance finished: " << (s.finished ? "yes" : "no")
              << "\n";
  });
  return 0;
}
