// Read-vs-write stress for the lock-free instance read path.
//
// N reader threads hammer AdeptCluster::ReadInstance/SnapshotOf and
// WorklistService::OffersFor while writer threads run CompleteActivity
// steps (via DriveStep) and ad-hoc changes, the main thread runs a full
// type migration, and — with the writers quiesced, readers still running —
// one elastic Resize(2 -> 4). Every observed snapshot must be internally
// consistent (the redundant fields of InstanceSnapshot agree with its
// marking), per-instance progress must be monotonic, and no read may ever
// report a live instance absent or torn — including through the
// evicted-at-source / published-at-destination window of the resize. A
// second test races a skewed two-index query against writers that move
// instances in and out of both index sets.
//
// The ASan/UBSan and TSan CI jobs run this binary; the seqlock'd routing
// epoch, the striped snapshot table, and the shared_ptr'd read view are
// exactly the pieces a race would surface in.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "model/schema_builder.h"
#include "query/query.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_read_stress_" + std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static int counter_;
  std::filesystem::path path_;
};

int TempDir::counter_ = 0;

// Loop-bearing, role-carrying process: loops make activation epochs
// meaningful for OffersFor, roles make offers exist at all.
std::shared_ptr<const ProcessSchema> StressSchema(RoleId clerk) {
  SchemaBuilder b("stress", 1);
  DataId again = b.Data("again", DataType::kBool);
  b.Activity("prepare", {.role = clerk});
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId check = s.Activity("check", {.role = clerk});
    s.Writes(check, again);
  });
  b.Activity("finish", {.role = clerk});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// The invariants every published snapshot must satisfy in isolation. A
// torn read (fields from two different mutations) breaks the redundancy
// between the lists/counters and the marking.
void ValidateSnapshot(const InstanceSnapshot& snapshot) {
  for (NodeId node : snapshot.activated_nodes) {
    EXPECT_EQ(snapshot.marking.node(node), NodeState::kActivated)
        << "activated set disagrees with marking (instance "
        << snapshot.id << ", node " << node << ")";
    const int64_t* since = snapshot.activated_since.Find(node);
    EXPECT_NE(since, nullptr)
        << "activated node missing its activation stamp (instance "
        << snapshot.id << ", node " << node << ")";
    if (since != nullptr) {
      EXPECT_LE(*since, snapshot.trace_next_sequence);
    }
  }
  for (NodeId node : snapshot.running_nodes) {
    EXPECT_EQ(snapshot.marking.node(node), NodeState::kRunning)
        << "running set disagrees with marking (instance " << snapshot.id
        << ", node " << node << ")";
  }
  uint64_t total = 0;
  for (const auto& [_, runs] : snapshot.completed_runs) total += runs;
  EXPECT_EQ(total, snapshot.completed_total)
      << "completed_runs sum torn (instance " << snapshot.id << ")";
  EXPECT_EQ(snapshot.finished,
            snapshot.marking.node(snapshot.schema->end_node()) ==
                NodeState::kCompleted)
      << "finished flag disagrees with end-node marking (instance "
      << snapshot.id << ")";
  if (snapshot.started) {
    EXPECT_GE(snapshot.trace_length, 1) << "started but empty trace";
  }
  EXPECT_GE(snapshot.trace_next_sequence, snapshot.trace_length);
}

TEST(ReadStressTest, ReadersNeverObserveTornOrLostInstances) {
  constexpr int kPopulation = 24;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;

  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("stress.wal");
  options.snapshot_path = dir.File("stress.snapshot");
  options.sync = SyncMode::kNone;  // durability I/O is not under test here
  auto cluster = AdeptCluster::Create(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  RoleId clerk = *(*cluster)->org().AddRole("clerk");
  std::vector<UserId> users;
  for (int u = 0; u < kReaders; ++u) {
    UserId user = *(*cluster)->org().AddUser("user" + std::to_string(u));
    ASSERT_TRUE((*cluster)->org().AssignRole(user, clerk).ok());
    users.push_back(user);
  }

  auto schema = StressSchema(clerk);
  ASSERT_NE(schema, nullptr);
  auto v1 = (*cluster)->DeployProcessType(schema);
  ASSERT_TRUE(v1.ok()) << v1.status();

  std::vector<InstanceId> ids;
  for (int i = 0; i < kPopulation; ++i) {
    auto id = (*cluster)->CreateInstance("stress");
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> pause_writers{false};
  std::atomic<int> paused_writers{0};
  std::atomic<size_t> reads_total{0};
  std::atomic<size_t> failed_reads{0};

  // --- Readers: never pause, not even during the resize ---------------------
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Per-instance progress floor: trace_next_sequence must never go
      // backwards from this reader's point of view (it survives ad-hoc
      // changes, migration, and the cross-shard move of the resize).
      std::unordered_map<uint64_t, int64_t> floor;
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        InstanceId id = ids[i++ % ids.size()];
        Status st = (*cluster)->ReadInstance(
            id, [&](const InstanceSnapshot& snapshot) {
              ValidateSnapshot(snapshot);
              EXPECT_EQ(snapshot.id, id);
              int64_t& seen = floor[id.value()];
              EXPECT_GE(snapshot.trace_next_sequence, seen)
                  << "instance " << id << " went backwards";
              seen = snapshot.trace_next_sequence;
            });
        if (!st.ok()) failed_reads.fetch_add(1, std::memory_order_relaxed);
        reads_total.fetch_add(1, std::memory_order_relaxed);
        // The hottest worklist query rides the same lock-free path.
        if ((i & 15) == 0) {
          std::vector<WorkItem> offers =
              (*cluster)->Worklist().OffersFor(users[static_cast<size_t>(r)]);
          for (const WorkItem& item : offers) {
            EXPECT_EQ(item.state, WorkItemState::kOffered);
          }
        }
      }
    });
  }

  // --- Writers: drive steps + ad-hoc changes, pausable for the resize ------
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      SimulationDriver driver({.seed = 100 + static_cast<uint64_t>(w),
                               .loop_continue_probability = 0.8,
                               .max_loop_iterations = 1000000});
      size_t rounds = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (pause_writers.load(std::memory_order_acquire)) {
          paused_writers.fetch_add(1, std::memory_order_acq_rel);
          while (pause_writers.load(std::memory_order_acquire) &&
                 !stop.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
          }
          paused_writers.fetch_sub(1, std::memory_order_acq_rel);
          continue;
        }
        // Each writer owns every kWriters-th instance: writers never race
        // each other on one instance, readers race all of them.
        for (size_t i = static_cast<size_t>(w); i < ids.size();
             i += kWriters) {
          (void)(*cluster)->DriveStep(ids[i], driver);
        }
        if (++rounds % 32 == 0) {
          // Ad-hoc change on one owned instance (may be rejected by
          // compliance depending on progress — the mutation attempt is
          // the point, not its success).
          Delta delta;
          NewActivitySpec spec;
          spec.name = "adhoc" + std::to_string(rounds);
          spec.role = clerk;
          delta.Add(std::make_unique<SerialInsertOp>(
              spec, schema->FindNodeByName("prepare"),
              schema->FindNodeByName("loop_start")));
          (void)(*cluster)->ApplyAdHocChange(ids[static_cast<size_t>(w)],
                                             std::move(delta));
        }
      }
    });
  }

  // --- Main thread: migration under load, then resize under readers --------
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Delta evolution;
  NewActivitySpec audit;
  audit.name = "audit";
  audit.role = clerk;
  evolution.Add(std::make_unique<SerialInsertOp>(
      audit, schema->FindNodeByName("prepare"),
      schema->FindNodeByName("loop_start")));
  auto v2 = (*cluster)->EvolveProcessType(*v1, std::move(evolution));
  ASSERT_TRUE(v2.ok()) << v2.status();
  auto report = (*cluster)->Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();

  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Resize needs writer quiescence (the documented contract); lock-free
  // readers are exempt and keep hammering throughout.
  pause_writers.store(true, std::memory_order_release);
  while (paused_writers.load(std::memory_order_acquire) < kWriters) {
    std::this_thread::yield();
  }
  ASSERT_TRUE((*cluster)->Resize(4).ok());
  EXPECT_EQ((*cluster)->shard_count(), 4u);
  pause_writers.store(false, std::memory_order_release);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (auto& t : writers) t.join();

  // No read ever failed: the population is never deleted, so NotFound (or
  // a poisoned-topology error) at any point — including mid-resize —
  // means the read path lost an instance.
  EXPECT_EQ(failed_reads.load(), 0u);
  EXPECT_GT(reads_total.load(), 0u);

  // Post-run: the lock-free sweep sees exactly the population, every
  // snapshot valid, and every instance still readable.
  size_t swept = 0;
  (*cluster)->ForEachSnapshot([&](const InstanceSnapshot& snapshot) {
    ValidateSnapshot(snapshot);
    ++swept;
  });
  EXPECT_EQ(swept, static_cast<size_t>(kPopulation));
  for (InstanceId id : ids) {
    EXPECT_NE((*cluster)->SnapshotOf(id), nullptr);
  }
}

// Structural sharing under fire: readers RETAIN old snapshot roots (the
// COW tries share interior nodes with every later version) and keep
// re-walking them while a writer applies 10k mutations to the same
// instance and the cluster resizes underneath. Any writer mutation that
// touched a shared node in place instead of path-copying — or any
// publication that freed a node a retained root still references — is a
// use-after-free / data race this test surfaces under ASan/TSan.
// The cardinality-planned intersection under churn: one reader loops the
// skewed `state == running && biased == true` (few biased, most running)
// while writers drive instances to completion (running -> finished) and
// replace them with fresh ones, every eighth of which is biased by an
// ad-hoc change. The index sets the planner counts, draws from and
// narrows by change under it; every hit must still satisfy the predicate,
// and every result must be strictly ascending by id.
TEST(ReadStressTest, SkewedIntersectionNeverReturnsAStaleMatch) {
  constexpr int kPerWriter = 32;
  constexpr int kWriters = 2;
  constexpr int kBiasEvery = 8;
  const char* kPredicate = "state == running && biased == true";

  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  RoleId clerk = *(*cluster)->org().AddRole("clerk");
  auto schema = StressSchema(clerk);
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE((*cluster)->DeployProcessType(schema).ok());
  const NodeId prepare = schema->FindNodeByName("prepare");
  const NodeId loop_start = schema->FindNodeByName("loop_start");

  std::atomic<int> created{0};
  // A fresh instance; every kBiasEvery-th one is biased before it leaves
  // "prepare", so the insert after it is always applicable.
  auto create = [&]() -> InstanceId {
    auto id = (*cluster)->CreateInstance("stress");
    EXPECT_TRUE(id.ok()) << id.status();
    if (!id.ok()) return InstanceId();
    if (created.fetch_add(1, std::memory_order_relaxed) % kBiasEvery == 0) {
      Delta delta;
      NewActivitySpec spec;
      spec.name = "extra";
      spec.role = clerk;
      delta.Add(std::make_unique<SerialInsertOp>(spec, prepare, loop_start));
      Status st = (*cluster)->ApplyAdHocChange(*id, std::move(delta));
      EXPECT_TRUE(st.ok()) << st;
    }
    return *id;
  };
  std::vector<std::vector<InstanceId>> owned(kWriters);
  for (auto& ids : owned) {
    for (int i = 0; i < kPerWriter; ++i) ids.push_back(create());
  }

  auto compiled = CompiledQuery::Compile(kPredicate);
  ASSERT_TRUE(compiled.ok());
  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  std::atomic<size_t> indexed{0};
  std::atomic<size_t> bad{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto result = (*cluster)->Query(kPredicate);
      if (!result.ok()) {
        bad.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      queries.fetch_add(1, std::memory_order_relaxed);
      if (result->index_probes == 2) {
        indexed.fetch_add(1, std::memory_order_relaxed);
      }
      uint64_t previous = 0;
      for (const auto& hit : *result) {
        if (!compiled->Matches(*hit) || hit->id.value() <= previous) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
        previous = hit->id.value();
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      SimulationDriver driver({.seed = 300 + static_cast<uint64_t>(w),
                               .loop_continue_probability = 0.3});
      while (!stop.load(std::memory_order_relaxed)) {
        for (InstanceId& id : owned[static_cast<size_t>(w)]) {
          auto stepped = (*cluster)->DriveStep(id, driver);
          if (!stepped.ok() || !*stepped) id = create();
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  reader.join();
  for (auto& t : writers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_GT(indexed.load(), 0u) << "the skewed pair never ran narrowed";
  EXPECT_GT(created.load(), kWriters * kPerWriter) << "no instance finished";
}

TEST(ReadStressTest, RetainedSnapshotRootsSurviveMutationsAndResize) {
  constexpr int kMutations = 10000;
  constexpr int kRetained = 64;

  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("retain.wal");
  options.snapshot_path = dir.File("retain.snapshot");
  options.sync = SyncMode::kNone;
  auto cluster = AdeptCluster::Create(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  RoleId clerk = *(*cluster)->org().AddRole("clerk");
  auto schema = StressSchema(clerk);
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE((*cluster)->DeployProcessType(schema).ok());
  auto id = (*cluster)->CreateInstance("stress");
  ASSERT_TRUE(id.ok()) << id.status();

  NodeId prepare = schema->FindNodeByName("prepare");
  ASSERT_TRUE((*cluster)->StartActivity(*id, prepare).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> walks{0};

  // Readers keep a rolling window of old roots and fully re-walk a
  // retained snapshot's shared containers on every pass, checking the
  // walk still agrees with the snapshot's own redundant fields.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<std::shared_ptr<const InstanceSnapshot>> retained;
      size_t pass = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const InstanceSnapshot> now =
            (*cluster)->SnapshotOf(*id);
        if (now != nullptr) {
          retained.push_back(std::move(now));
          if (retained.size() > kRetained) {
            retained.erase(retained.begin());
          }
        }
        if (retained.empty()) continue;
        const InstanceSnapshot& old = *retained[pass++ % retained.size()];
        size_t nodes = 0;
        old.marking.node_states().ForEach(
            [&](NodeId, NodeState) { ++nodes; });
        EXPECT_EQ(nodes, old.marking.node_states().size());
        ValidateSnapshot(old);
        uint64_t completed = 0;
        old.completed_runs.ForEach(
            [&](NodeId, uint64_t runs) { completed += runs; });
        EXPECT_EQ(completed, old.completed_total);
        walks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: 10k suspend/resume toggles of one running activity — every
  // toggle path-copies into the marking and running-set tries that all
  // retained roots share — with a Resize() mid-stream.
  for (int i = 0; i < kMutations; ++i) {
    Status st = (i % 2 == 0) ? (*cluster)->SuspendActivity(*id, prepare)
                             : (*cluster)->ResumeActivity(*id, prepare);
    ASSERT_TRUE(st.ok()) << "mutation " << i << ": " << st;
    if (i == kMutations / 2) {
      ASSERT_TRUE((*cluster)->Resize(4).ok());
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(walks.load(), 0u);

  // The live snapshot reflects all 10k toggles (ended on "resume").
  std::shared_ptr<const InstanceSnapshot> last = (*cluster)->SnapshotOf(*id);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->marking.node(prepare), NodeState::kRunning);
}

}  // namespace
}  // namespace adept
