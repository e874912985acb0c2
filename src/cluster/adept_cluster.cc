#include "cluster/adept_cluster.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "worklist/worklist_service.h"

namespace adept {

// --- BatchOp factories -------------------------------------------------------

AdeptCluster::BatchOp AdeptCluster::BatchOp::Create(std::string type_name) {
  BatchOp op;
  op.kind = Kind::kCreate;
  op.type_name = std::move(type_name);
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::CreateOn(SchemaId schema) {
  BatchOp op;
  op.kind = Kind::kCreate;
  op.schema = schema;
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::Start(InstanceId id,
                                                   NodeId node) {
  BatchOp op;
  op.kind = Kind::kStart;
  op.id = id;
  op.node = node;
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::Complete(
    InstanceId id, NodeId node,
    std::vector<ProcessInstance::DataWrite> writes) {
  BatchOp op;
  op.kind = Kind::kComplete;
  op.id = id;
  op.node = node;
  op.writes = std::move(writes);
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::Fail(InstanceId id, NodeId node,
                                                  std::string reason) {
  BatchOp op;
  op.kind = Kind::kFail;
  op.id = id;
  op.node = node;
  op.reason = std::move(reason);
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::SelectBranch(InstanceId id,
                                                          NodeId node,
                                                          int branch_value) {
  BatchOp op;
  op.kind = Kind::kSelectBranch;
  op.id = id;
  op.node = node;
  op.branch_value = branch_value;
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::LoopDecision(InstanceId id,
                                                          NodeId node,
                                                          bool iterate) {
  BatchOp op;
  op.kind = Kind::kLoopDecision;
  op.id = id;
  op.node = node;
  op.iterate = iterate;
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::DriveStep(InstanceId id) {
  BatchOp op;
  op.kind = Kind::kDriveStep;
  op.id = id;
  return op;
}

AdeptCluster::BatchOp AdeptCluster::BatchOp::AdHocChange(InstanceId id,
                                                         Delta delta) {
  BatchOp op;
  op.kind = Kind::kAdHocChange;
  op.id = id;
  op.delta = std::make_shared<Delta>(std::move(delta));
  return op;
}

// --- Construction / recovery -------------------------------------------------

AdeptCluster::AdeptCluster(const ClusterOptions& options) : options_(options) {}

AdeptOptions AdeptCluster::ShardOptions(const ClusterOptions& options,
                                        int index) {
  AdeptOptions shard_options;
  shard_options.default_strategy = options.default_strategy;
  shard_options.sync = options.sync;
  // The cluster pipelines durability itself: records are enqueued under the
  // shard lock, the wait happens after the lock is released.
  shard_options.defer_wal_sync = true;
  shard_options.wal_path =
      ShardRouting::PathFor(options.wal_path, static_cast<size_t>(index));
  shard_options.snapshot_path =
      ShardRouting::PathFor(options.snapshot_path, static_cast<size_t>(index));
  shard_options.query_indexes = options.query_indexes;
  return shard_options;
}

namespace {

Result<std::unique_ptr<SimulationDriver>> MakeShardDriver(
    const ClusterOptions& options, int index) {
  DriverOptions driver_options = options.driver;
  driver_options.seed += static_cast<uint64_t>(index);
  return std::make_unique<SimulationDriver>(driver_options);
}

// True when shard `index` left durable state at the configured base paths.
bool ShardFilesExist(const ClusterOptions& options, size_t index) {
  const std::string wal = ShardRouting::PathFor(options.wal_path, index);
  const std::string snapshot =
      ShardRouting::PathFor(options.snapshot_path, index);
  return (!wal.empty() && std::filesystem::exists(wal)) ||
         (!snapshot.empty() && std::filesystem::exists(snapshot));
}

// Highest contiguous shard index with durable state, i.e. the shard count
// the durable cluster was last written with (0 when nothing is on disk).
size_t CountShardsOnDisk(const ClusterOptions& options) {
  if (options.wal_path.empty() && options.snapshot_path.empty()) return 0;
  size_t count = 0;
  while (ShardFilesExist(options, count)) ++count;
  return count;
}

// The resize error contract: name the recovered and requested counts and
// the repair action.
Status ResizeError(size_t recovered, size_t requested,
                   const std::string& detail) {
  return Status::Corruption(
      "cluster resize from " + std::to_string(recovered) +
      " recovered shard(s) to " + std::to_string(requested) +
      " requested shard(s) failed: " + detail +
      "; repair: recover with shards=" + std::to_string(recovered) +
      " (the recorded count), or restore the damaged per-shard files and "
      "retry the resize");
}

// Best-effort removal of a retired shard's durability files.
void RemoveShardFiles(const ClusterOptions& options, size_t index) {
  std::error_code ec;
  const std::string wal = ShardRouting::PathFor(options.wal_path, index);
  const std::string snapshot =
      ShardRouting::PathFor(options.snapshot_path, index);
  if (!wal.empty()) std::filesystem::remove(wal, ec);
  if (!snapshot.empty()) std::filesystem::remove(snapshot, ec);
}

}  // namespace

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Build(
    const ClusterOptions& options,
    const std::function<Result<std::unique_ptr<AdeptSystem>>(
        const AdeptOptions&)>& make_system) {
  if (options.shards < 1) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  std::unique_ptr<AdeptCluster> cluster(new AdeptCluster(options));
  cluster->routing_ = ShardRouting(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    auto shard = std::make_shared<Shard>();
    ADEPT_ASSIGN_OR_RETURN(shard->system,
                           make_system(ShardOptions(options, i)));
    ADEPT_ASSIGN_OR_RETURN(shard->driver, MakeShardDriver(options, i));
    cluster->shards_.push_back(std::move(shard));
  }
  size_t threads =
      options.worker_threads > 0
          ? static_cast<size_t>(options.worker_threads)
          : std::min(static_cast<size_t>(options.shards),
                     static_cast<size_t>(
                         std::max(1u, std::thread::hardware_concurrency())));
  cluster->pool_ = std::make_unique<WorkerPool>(threads);
  cluster->PublishReadView();
  return cluster;
}

void AdeptCluster::RunParallel(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  BlockingCounter pending(tasks.size() - 1);
  for (size_t i = 0; i + 1 < tasks.size(); ++i) {
    pool_->Submit([&tasks, i, &pending] {
      tasks[i]();
      pending.DecrementCount();
    });
  }
  tasks.back()();
  pending.Wait();
}

Status AdeptCluster::AttachWorklist(bool recover) {
  WorklistServiceOptions worklist_options;
  if (!options_.wal_path.empty()) {
    worklist_options.journal_path = options_.wal_path + ".worklist";
  }
  worklist_options.sync = options_.sync;
  if (recover) {
    ADEPT_ASSIGN_OR_RETURN(
        worklist_,
        WorklistService::Recover(
            &org_, this, worklist_options,
            [this](const WorklistService::InstanceVisitor& visitor) {
              ForEachInstance(visitor);
            }));
  } else {
    ADEPT_ASSIGN_OR_RETURN(
        worklist_, WorklistService::Create(&org_, this, worklist_options));
  }
  for (auto& shard_ptr : shards_) {
    shard_ptr->system->AddObserver(worklist_.get());
  }
  return Status::OK();
}

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Create(
    const ClusterOptions& options) {
  ADEPT_ASSIGN_OR_RETURN(
      std::unique_ptr<AdeptCluster> cluster,
      Build(options, [](const AdeptOptions& shard_options) {
        return AdeptSystem::Create(shard_options);
      }));
  // A fresh cluster starts a fresh durable history at these paths. The
  // per-shard Create() calls reset shards 0..N-1, but a previous (larger)
  // cluster may have left ".shard<k>" files beyond the count and an org
  // file — Recover() probes for both and would resurrect the dead
  // cluster's state into this one.
  for (size_t k = cluster->shards_.size(); ShardFilesExist(options, k); ++k) {
    RemoveShardFiles(options, k);
  }
  if (!options.wal_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options.wal_path + ".org", ec);
    if (ec) {
      return Status::Corruption("cannot discard stale org file '" +
                                options.wal_path + ".org': " + ec.message());
    }
  }
  ADEPT_RETURN_IF_ERROR(cluster->AttachWorklist(/*recover=*/false));
  return cluster;
}

Result<std::unique_ptr<AdeptCluster>> AdeptCluster::Recover(
    const ClusterOptions& options) {
  // The shard count the durable state was written with; differing from
  // options.shards is not corruption but a resize request.
  const size_t on_disk = CountShardsOnDisk(options);
  const size_t requested = static_cast<size_t>(std::max(options.shards, 1));
  const size_t recorded = on_disk == 0 ? requested : on_disk;

  auto built = Build(options, [](const AdeptOptions& shard_options) {
    return AdeptSystem::Recover(shard_options);
  });
  if (!built.ok()) {
    if (on_disk != 0 && on_disk != requested) {
      return ResizeError(recorded, requested, built.status().ToString());
    }
    return built.status();
  }
  std::unique_ptr<AdeptCluster> cluster = std::move(*built);

  // Shrink: durable shards beyond the requested count become donors —
  // recovered in full, drained below, retired afterwards.
  std::vector<std::shared_ptr<Shard>> donors;
  for (size_t k = requested; k < on_disk; ++k) {
    auto donor = std::make_shared<Shard>();
    auto system = AdeptSystem::Recover(ShardOptions(options, k));
    if (!system.ok()) {
      return ResizeError(recorded, requested,
                         "donor shard " + std::to_string(k) +
                             " did not recover: " + system.status().ToString());
    }
    donor->system = std::move(*system);
    donors.push_back(std::move(donor));
  }

  // Grow: freshly created shards start with an empty schema repository;
  // replicate the cluster's schema history before instances arrive.
  ADEPT_RETURN_IF_ERROR(cluster->ReplicateSchemasToFreshShards(donors));

  // Redistribute every instance the requested routing places elsewhere
  // (crash-window duplicates are deduped back to exactly one owner).
  Status moved = cluster->MoveMisplacedInstances(&donors);
  if (!moved.ok()) {
    return ResizeError(recorded, requested, moved.ToString());
  }

  if (on_disk != 0 && on_disk != requested) {
    // The topology changed: checkpoint it (when snapshots are configured)
    // so the donors' durable copies become redundant, then retire the
    // donor files. Without snapshots the WAL-logged moves already carry
    // the new placement.
    if (!options.snapshot_path.empty()) {
      for (auto& shard_ptr : cluster->shards_) {
        ADEPT_RETURN_IF_ERROR(shard_ptr->system->SaveSnapshot());
      }
    }
    for (size_t k = requested; k < on_disk; ++k) {
      donors[k - requested].reset();  // joins the WAL writer, closes files
      RemoveShardFiles(options, k);
    }
  }

  // Re-derive the shard-affine id allocators; an id still on the wrong
  // shard after redistribution is damage, not a resize.
  ADEPT_RETURN_IF_ERROR(cluster->DeriveShardAllocators(recorded));

  // Restore the durable org model (if the cluster ever checkpointed one)
  // before the worklist rebuild; without an org file the historical
  // contract applies — the application repopulates users/roles after
  // Recover() in the same call order.
  ADEPT_RETURN_IF_ERROR(cluster->RestoreOrg());

  // Rebuild open work items: offers from recovered instance state, claims
  // from the worklist journal (both keyed by instance id — placement
  // changes above do not disturb them).
  ADEPT_RETURN_IF_ERROR(cluster->AttachWorklist(/*recover=*/true));
  return cluster;
}

Status AdeptCluster::ReplicateSchemasToFreshShards(
    const std::vector<std::shared_ptr<Shard>>& donors) {
  AdeptSystem* reference = nullptr;
  for (auto& shard_ptr : shards_) {
    if (shard_ptr->system->repository().size() > 0) {
      reference = shard_ptr->system.get();
      break;
    }
  }
  for (size_t i = 0; reference == nullptr && i < donors.size(); ++i) {
    if (donors[i]->system->repository().size() > 0) {
      reference = donors[i]->system.get();
    }
  }
  if (reference == nullptr) return Status::OK();  // nothing ever deployed
  const JsonValue repo = reference->repository().ToJson();
  for (auto& shard_ptr : shards_) {
    AdeptSystem& system = *shard_ptr->system;
    if (system.repository().size() > 0) continue;
    ADEPT_RETURN_IF_ERROR(system.ReplicateSchemas(repo));
    ADEPT_RETURN_IF_ERROR(system.WaitWalDurable(system.last_enqueued_lsn()));
  }
  return Status::OK();
}

Status AdeptCluster::MoveMisplacedInstances(
    const std::vector<std::shared_ptr<Shard>>* donors) {
  struct Move {
    AdeptSystem* src;
    AdeptSystem* dst;
    InstanceId id;
  };
  std::vector<Move> moves;
  auto collect = [&](AdeptSystem& system, bool placed, size_t index) {
    for (InstanceId id : system.engine().InstanceIds()) {
      size_t owner = routing_.OwnerOf(id);
      if (placed && owner == index) continue;
      moves.push_back({&system, shards_[owner]->system.get(), id});
    }
  };
  for (size_t j = 0; j < shards_.size(); ++j) {
    // During a shrink, shards_ still holds indexes beyond the new count;
    // everything there is misplaced by construction.
    collect(*shards_[j]->system, j < routing_.shards(), j);
  }
  if (donors != nullptr) {
    for (const auto& donor : *donors) {
      collect(*donor->system, /*placed=*/false, 0);
    }
  }
  if (moves.empty()) return Status::OK();

  // Phase 1: import at the destinations, then make every destination
  // durable. A destination that already holds the id is the crash window
  // between a durable import and its evict — the copies are identical
  // (moves only run quiesced), so keep the destination's and fall through
  // to the evict.
  std::set<AdeptSystem*> dirty;
  for (const Move& move : moves) {
    if (move.dst->engine().Find(move.id) != nullptr) continue;
    ADEPT_ASSIGN_OR_RETURN(JsonValue exported,
                           move.src->ExportInstance(move.id));
    ADEPT_RETURN_IF_ERROR(move.dst->ImportInstance(exported));
    dirty.insert(move.dst);
  }
  for (AdeptSystem* system : dirty) {
    ADEPT_RETURN_IF_ERROR(
        system->WaitWalDurable(system->last_enqueued_lsn()));
  }
  dirty.clear();

  // Phase 2: evict at the sources — enqueued only after every import is
  // durable, so a durable evict always implies a durable import and no
  // crash point leaves an instance on zero shards.
  for (const Move& move : moves) {
    ADEPT_RETURN_IF_ERROR(move.src->EvictInstance(move.id));
    dirty.insert(move.src);
  }
  for (AdeptSystem* system : dirty) {
    ADEPT_RETURN_IF_ERROR(
        system->WaitWalDurable(system->last_enqueued_lsn()));
  }
  return Status::OK();
}

Status AdeptCluster::DeriveShardAllocators(size_t recovered_count) {
  for (auto& shard_ptr : shards_) shard_ptr->next_seq = 0;
  for (size_t j = 0; j < shards_.size(); ++j) {
    Shard& shard = *shards_[j];
    for (InstanceId id : shard.system->engine().InstanceIds()) {
      if (!routing_.Owns(j, id)) {
        return ResizeError(
            recovered_count, routing_.shards(),
            "instance " + std::to_string(id.value()) +
                " still lands on shard " + std::to_string(j) +
                " after redistribution (mid-move WAL damage?)");
      }
      shard.next_seq = std::max(shard.next_seq, routing_.SeqOf(id) + 1);
    }
  }
  return Status::OK();
}

AdeptCluster::~AdeptCluster() { DetachReplication(); }

// --- Schema management (fan-out) ---------------------------------------------

namespace {

Status SchemaPoisoned() {
  return Status::FailedPrecondition(
      "a previous schema fan-out failed part-way; shards disagree on schema "
      "state — rebuild the cluster (Recover) before further schema changes");
}

}  // namespace

Status AdeptCluster::CheckTopology() const {
  if (topology_poisoned_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "a cluster resize failed part-way; the in-memory topology is "
        "inconsistent — rebuild the cluster from durable state (Recover) "
        "before further calls");
  }
  return Status::OK();
}

Result<SchemaId> AdeptCluster::FanOutSchemaOp(
    const char* what,
    const std::function<Result<SchemaId>(AdeptSystem&)>& op) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  if (schema_poisoned_) return SchemaPoisoned();
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  SchemaId canonical;
  std::vector<uint64_t> lsns(shards_.size(), 0);
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto result = op(*shard.system);
    lsns[i] = shard.system->last_enqueued_lsn();
    if (i == 0) {
      // Verification failures surface here, before any shard is touched.
      if (!result.ok()) return result.status();
      canonical = *result;
    } else if (!result.ok() || *result != canonical) {
      schema_poisoned_ = true;
      return Status::Internal(std::string("schema ") + what +
                              " diverged on shard " + std::to_string(i) +
                              "; schema management is now disabled");
    }
  }
  // All shard locks are released; the per-shard writers flush in parallel.
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status durable = shards_[i]->system->WaitWalDurable(lsns[i]);
    if (!durable.ok()) {
      // Every shard applied the change in memory but shard i's log durably
      // lacks the record: after a crash the shards disagree, the same
      // hazard as a diverged fan-out — refuse further schema management.
      schema_poisoned_ = true;
      return durable;
    }
  }
  return canonical;
}

Result<SchemaId> AdeptCluster::DeployProcessType(
    std::shared_ptr<const ProcessSchema> schema) {
  return FanOutSchemaOp("deploy", [&](AdeptSystem& system) {
    return system.DeployProcessType(schema);
  });
}

Result<SchemaId> AdeptCluster::EvolveProcessType(SchemaId base, Delta delta) {
  return FanOutSchemaOp("evolution", [&](AdeptSystem& system) {
    return system.EvolveProcessType(base, delta.Clone());
  });
}

Result<SchemaId> AdeptCluster::LatestVersion(
    const std::string& type_name) const {
  // schema_mu_ keeps the read from observing a half-applied fan-out (shard 0
  // already evolved, later shards not yet).
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  const Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->LatestVersion(type_name);
}

Result<std::shared_ptr<const ProcessSchema>> AdeptCluster::Schema(
    SchemaId id) const {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  const Shard& shard = *shards_[0];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->Schema(id);
}

// --- Instance lifecycle (routed) ---------------------------------------------

InstanceId AdeptCluster::NextIdLocked(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  return routing_.IdFor(shard_index, shard.next_seq++);
}

Result<InstanceId> AdeptCluster::CreateOnShard(size_t shard_index,
                                               const std::string& type_name,
                                               SchemaId schema) {
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  ADEPT_RETURN_IF_ERROR(CheckShardWritable(shard_index));
  Shard& shard = *shards_[shard_index];
  uint64_t lsn = 0;
  Result<InstanceId> created = [&]() -> Result<InstanceId> {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!schema.valid()) {
      ADEPT_ASSIGN_OR_RETURN(schema, shard.system->LatestVersion(type_name));
    }
    auto result =
        shard.system->CreateInstanceWithId(schema, NextIdLocked(shard_index));
    lsn = shard.system->last_enqueued_lsn();
    return result;
  }();
  if (!created.ok()) return created;
  ADEPT_RETURN_IF_ERROR(shard.system->WaitWalDurable(lsn));
  return created;
}

Result<InstanceId> AdeptCluster::CreateInstance(const std::string& type_name) {
  return CreateOnShard(NextCreationShard(), type_name, SchemaId::Invalid());
}

Result<InstanceId> AdeptCluster::CreateInstanceOn(SchemaId schema) {
  return CreateOnShard(NextCreationShard(), std::string(), schema);
}

const ProcessInstance* AdeptCluster::InstanceImpl(InstanceId id) const {
  if (!id.valid()) return nullptr;
  const Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.system->engine().Find(id);
}

Status AdeptCluster::WithInstance(
    InstanceId id,
    const std::function<void(const ProcessInstance&)>& fn) const {
  if (!id.valid()) return Status::NotFound("invalid instance id");
  const Shard& shard = *shards_[ShardOf(id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const ProcessInstance* instance = shard.system->engine().Find(id);
  if (instance == nullptr) return Status::NotFound("no such instance");
  fn(*instance);
  return Status::OK();
}

void AdeptCluster::ForEachInstance(
    const std::function<void(const ProcessInstance&)>& fn) const {
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (InstanceId id : shard.system->engine().InstanceIds()) {
      const ProcessInstance* instance = shard.system->engine().Find(id);
      if (instance != nullptr) fn(*instance);
    }
  }
}

// --- Lock-free read path -----------------------------------------------------

void AdeptCluster::PublishReadView() {
  auto view = std::make_unique<ReadView>();
  view->routing = routing_;
  view->systems.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    view->systems.push_back(shard_ptr->system.get());
  }
  old_views_.push_back(std::move(view));
  read_view_.store(old_views_.back().get(), std::memory_order_release);
}

Result<std::shared_ptr<const InstanceSnapshot>> AdeptCluster::FindSnapshot(
    InstanceId id) const {
  if (!id.valid()) return Status::NotFound("invalid instance id");
  for (;;) {
    // Poison beats retry: a failed resize leaves the epoch odd forever.
    ADEPT_RETURN_IF_ERROR(CheckTopology());
    const uint64_t before = read_epoch_.load(std::memory_order_acquire);
    const ReadView* view = read_view_.load(std::memory_order_acquire);
    std::shared_ptr<const InstanceSnapshot> snapshot =
        view->systems[view->routing.OwnerOf(id)]->SnapshotOf(id);
    // A hit is always safe to return: the snapshot is immutable and was
    // live on its shard at lookup time (at worst it is a bounded-stale
    // pre-move version of an instance that just migrated).
    if (snapshot != nullptr) return snapshot;
    const uint64_t after = read_epoch_.load(std::memory_order_acquire);
    if (before == after && (before & 1) == 0) {
      // Stable topology across the whole lookup: the id is genuinely
      // absent (never created, or evicted by a completed shrink).
      return Status::NotFound("no such instance");
    }
    // A Resize() is repartitioning (or just finished): the instance may
    // sit in the evicted-at-source / published-at-destination window.
    // Retry against the settling view; resizes are rare and bounded.
    std::this_thread::yield();
  }
}

std::shared_ptr<const InstanceSnapshot> AdeptCluster::SnapshotOf(
    InstanceId id) const {
  auto found = FindSnapshot(id);
  return found.ok() ? *found : nullptr;
}

Status AdeptCluster::ReadInstance(
    InstanceId id,
    const std::function<void(const InstanceSnapshot&)>& fn) const {
  ADEPT_ASSIGN_OR_RETURN(std::shared_ptr<const InstanceSnapshot> snapshot,
                         FindSnapshot(id));
  fn(*snapshot);
  return Status::OK();
}

void AdeptCluster::CollectQueryMatches(const CompiledQuery& query,
                                       QueryResult* result) const {
  // The same seqlock discipline as FindSnapshot, extended to a sweep: a
  // resize concurrent with a naive sweep could hide an instance entirely
  // (imported to a shard outside the stale view, then evicted at the
  // source before the sweep arrives) or match its pre- and post-move
  // copies twice. Collect per-shard matches first, accept the batch only
  // after the epoch proved stable across the whole collection — within
  // one stable epoch every instance lives on exactly one shard, so the
  // merge is duplicate-free. Index candidacy is per shard; every hit was
  // re-validated against its shard's current published snapshot. Each
  // shard appends its matches as one ascending run; the runs are merged
  // once the batch is accepted.
  std::vector<size_t> run_ends;
  for (;;) {
    const bool poisoned = !CheckTopology().ok();
    const uint64_t before = read_epoch_.load(std::memory_order_acquire);
    if (!poisoned && (before & 1) != 0) {
      std::this_thread::yield();  // resize in flight; the view is settling
      continue;
    }
    *result = QueryResult();
    run_ends.clear();
    const ReadView* view = read_view_.load(std::memory_order_acquire);
    for (AdeptSystem* system : view->systems) {
      system->CollectQueryMatches(query, result);
      run_ends.push_back(result->snapshots.size());
    }
    const uint64_t after = read_epoch_.load(std::memory_order_acquire);
    // After a failed resize the epoch never stabilizes; sweep the last
    // published view best-effort instead of spinning forever.
    if (poisoned || before == after) break;
  }
  MergeQueryRuns(run_ends, result);
}

Result<QueryResult> AdeptCluster::Query(const std::string& query) const {
  ADEPT_ASSIGN_OR_RETURN(CompiledQuery compiled,
                         CompiledQuery::Compile(query));
  // Surface poisoning as the distinguishing error (like ReadInstance)
  // rather than a silently partial sweep.
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  QueryResult result;
  CollectQueryMatches(compiled, &result);
  // Graceful degradation: snapshots keep serving while a shard lacks its
  // quorum, but the caller is told the data may trail the failed writes.
  result.degraded = ReplicationDegraded();
  return result;
}

void AdeptCluster::ForEachSnapshot(
    const std::function<void(const InstanceSnapshot&)>& fn) const {
  // A match-all query: the sweep is just the degenerate case of the query
  // fan-out (one consolidated epoch-stable read path instead of two).
  QueryResult batch;
  CollectQueryMatches(CompiledQuery::MatchAll(), &batch);
  for (const auto& snapshot : batch) {
    fn(*snapshot);
  }
}

// Pipelined routing: the engine turn and the WAL enqueue happen under the
// shard lock, the durability wait after it — a thread working shard A waits
// for A's writer while a thread on shard B is already inside B's engine.
template <typename Fn>
auto AdeptCluster::RouteDurable(InstanceId id, Fn&& fn)
    -> decltype(fn(std::declval<AdeptSystem&>())) {
  Status topology = CheckTopology();
  if (!topology.ok()) return topology;
  const size_t shard_index = ShardOf(id);
  // Fenced / no-live-quorum shards refuse BEFORE mutating: the caller can
  // safely re-issue elsewhere, which a mid-flight quorum timeout (maybe-
  // applied) never allows.
  Status writable = CheckShardWritable(shard_index);
  if (!writable.ok()) return writable;
  Shard& shard = *shards_[shard_index];
  uint64_t lsn = 0;
  auto result = [&] {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto inner = fn(*shard.system);
    lsn = shard.system->last_enqueued_lsn();
    return inner;
  }();
  if (!result.ok()) return result;
  Status durable = shard.system->WaitWalDurable(lsn);
  if (!durable.ok()) return durable;
  return result;
}

Status AdeptCluster::StartActivity(InstanceId id, NodeId node) {
  return RouteDurable(
      id, [&](AdeptSystem& system) { return system.StartActivity(id, node); });
}

Status AdeptCluster::CompleteActivity(
    InstanceId id, NodeId node,
    const std::vector<ProcessInstance::DataWrite>& writes) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.CompleteActivity(id, node, writes);
  });
}

Status AdeptCluster::FailActivity(InstanceId id, NodeId node,
                                  const std::string& reason) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.FailActivity(id, node, reason);
  });
}

Status AdeptCluster::RetryActivity(InstanceId id, NodeId node) {
  return RouteDurable(
      id, [&](AdeptSystem& system) { return system.RetryActivity(id, node); });
}

Status AdeptCluster::SuspendActivity(InstanceId id, NodeId node) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.SuspendActivity(id, node);
  });
}

Status AdeptCluster::ResumeActivity(InstanceId id, NodeId node) {
  return RouteDurable(
      id, [&](AdeptSystem& system) { return system.ResumeActivity(id, node); });
}

Status AdeptCluster::SelectBranch(InstanceId id, NodeId split,
                                  int branch_value) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.SelectBranch(id, split, branch_value);
  });
}

Status AdeptCluster::SetLoopDecision(InstanceId id, NodeId loop_end,
                                     bool iterate) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.SetLoopDecision(id, loop_end, iterate);
  });
}

Result<bool> AdeptCluster::DriveStep(InstanceId id, SimulationDriver& driver) {
  return RouteDurable(
      id, [&](AdeptSystem& system) { return system.DriveStep(id, driver); });
}

Status AdeptCluster::DriveToCompletion(InstanceId id, SimulationDriver& driver,
                                       int max_steps) {
  return RouteDurable(id, [&](AdeptSystem& system) {
    return system.DriveToCompletion(id, driver, max_steps);
  });
}

Status AdeptCluster::ApplyAdHocChange(InstanceId id, Delta delta) {
  return RouteDurable(
      id, [&, delta = std::move(delta)](AdeptSystem& system) mutable {
        return system.ApplyAdHocChange(id, std::move(delta));
      });
}

// --- Dynamic change (fan-out) ------------------------------------------------

namespace {

// A failed shard turns the whole call into an error, but the message names
// the failed shards and how many instances the successful ones already
// migrated — that migration work is committed (and WAL-logged) per shard.
Result<MigrationReport> MergeReports(
    std::vector<Result<MigrationReport>>& reports) {
  std::string failures;
  size_t migrated_elsewhere = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].ok()) {
      migrated_elsewhere += reports[i]->MigratedTotal();
      continue;
    }
    if (!failures.empty()) failures += "; ";
    failures += "shard " + std::to_string(i) + ": " +
                reports[i].status().ToString();
  }
  if (!failures.empty()) {
    return Status::Internal(
        "migration failed on " + failures + " (other shards committed " +
        std::to_string(migrated_elsewhere) + " migrated instances)");
  }
  MigrationReport merged;
  bool first = true;
  for (auto& report : reports) {
    if (first) {
      merged = std::move(*report);
      first = false;
      continue;
    }
    for (auto& result : report->results) {
      merged.results.push_back(std::move(result));
    }
  }
  return merged;
}

}  // namespace

Result<MigrationReport> AdeptCluster::Migrate(SchemaId from, SchemaId to,
                                              const MigrationOptions& options) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  std::vector<Result<MigrationReport>> reports(
      shards_.size(), Result<MigrationReport>(Status::Internal("not run")));
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < shards_.size(); ++i) {
    tasks.push_back([this, i, from, to, &options, &reports] {
      Shard& shard = *shards_[i];
      uint64_t lsn = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        reports[i] = shard.system->Migrate(from, to, options);
        lsn = shard.system->last_enqueued_lsn();
      }
      // Each task awaits its own shard's writer with the lock released.
      if (reports[i].ok()) {
        Status durable = shard.system->WaitWalDurable(lsn);
        if (!durable.ok()) reports[i] = durable;
      }
    });
  }
  RunParallel(std::move(tasks));
  return MergeReports(reports);
}

Result<MigrationReport> AdeptCluster::MigrateToLatest(
    const std::string& type_name, const MigrationOptions& options) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  std::vector<Result<MigrationReport>> reports(
      shards_.size(), Result<MigrationReport>(Status::Internal("not run")));
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < shards_.size(); ++i) {
    tasks.push_back([this, i, &type_name, &options, &reports] {
      Shard& shard = *shards_[i];
      uint64_t lsn = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        reports[i] = shard.system->MigrateToLatest(type_name, options);
        lsn = shard.system->last_enqueued_lsn();
      }
      if (reports[i].ok()) {
        Status durable = shard.system->WaitWalDurable(lsn);
        if (!durable.ok()) reports[i] = durable;
      }
    });
  }
  RunParallel(std::move(tasks));
  return MergeReports(reports);
}

// --- Durability / observers --------------------------------------------------

Status AdeptCluster::SaveSnapshot() {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  return SaveSnapshotLocked();
}

Status AdeptCluster::SaveSnapshotLocked() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    ADEPT_RETURN_IF_ERROR(shard.system->SaveSnapshot());
  }
  // The checkpoint also persists the org model and rewrites the claim
  // journal as one record per live claim — both keep Recover() exact
  // while bounding the cluster's durable footprint at O(live state).
  ADEPT_RETURN_IF_ERROR(PersistOrg());
  return worklist_->CompactJournal();
}

// --- Replication -------------------------------------------------------------

Status AdeptCluster::AttachReplication(const ReplicationOptions& options) {
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  if (!replication_.empty()) {
    return Status::FailedPrecondition(
        "replication is already attached; DetachReplication() first");
  }
  if (options_.wal_path.empty() || options_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "replication needs configured WAL and snapshot paths");
  }
  ADEPT_ASSIGN_OR_RETURN(uint64_t epoch,
                         ReadReplicationEpoch(options_.wal_path));

  std::vector<std::unique_ptr<ReplicationPrimary>> primaries;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::shared_ptr<Shard> shard_ptr = shards_[k];
    WalWriter* writer = shard_ptr->system->wal_writer();
    if (writer == nullptr) {
      return Status::Internal("shard " + std::to_string(k) +
                              " has no WAL writer to replicate");
    }
    ReplicationSource source;
    source.shard = k;
    source.wal_path = ShardRouting::PathFor(options_.wal_path, k);
    source.snapshot_path = ShardRouting::PathFor(options_.snapshot_path, k);
    // The snapshot-transfer path checkpoints the shard so the blob it
    // ships is fresh; the shard lock mirrors SaveSnapshotLocked().
    source.checkpoint = [shard_ptr]() -> Status {
      std::lock_guard<std::mutex> lock(shard_ptr->mu);
      return shard_ptr->system->SaveSnapshot();
    };
    source.epoch = epoch;
    source.start_lsn = writer->durable_lsn();
    ADEPT_ASSIGN_OR_RETURN(auto primary,
                           ReplicationPrimary::Start(source, options));
    primaries.push_back(std::move(primary));
  }

  // All primaries came up — only now arm the commit hooks, so a partial
  // failure above leaves commits purely local.
  for (size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->system->wal_writer()->SetCommitHook(primaries[k].get());
  }
  replication_ = std::move(primaries);
  replication_epoch_ = epoch;
  return Status::OK();
}

void AdeptCluster::DetachReplication() {
  if (replication_.empty()) return;
  // Disarm the hooks first so no commit can reach a stopping primary.
  for (auto& shard_ptr : shards_) {
    WalWriter* writer = shard_ptr->system->wal_writer();
    if (writer != nullptr) writer->SetCommitHook(nullptr);
  }
  for (auto& primary : replication_) primary->Stop();
  replication_.clear();
  replication_epoch_ = 0;
}

Status AdeptCluster::CheckShardWritable(size_t shard_index) const {
  if (shard_index >= replication_.size()) return Status::OK();
  const ReplicationPrimary* primary = replication_[shard_index].get();
  if (primary == nullptr) return Status::OK();
  return primary->CheckWritable();
}

bool AdeptCluster::ReplicationDegraded() const {
  for (const auto& primary : replication_) {
    if (primary != nullptr && !primary->HasLiveQuorum()) return true;
  }
  return false;
}

ClusterReplicationStatus AdeptCluster::ReplicationStatus() const {
  ClusterReplicationStatus status;
  status.attached = !replication_.empty();
  status.epoch = replication_epoch_;
  for (const auto& primary : replication_) {
    if (primary != nullptr) status.shards.push_back(primary->GetStatus());
  }
  return status;
}

Status AdeptCluster::WaitShardDurable(size_t shard_index, uint64_t lsn) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument(
        StrFormat("no shard %zu in a %zu-shard cluster", shard_index,
                  shards_.size()));
  }
  return shards_[shard_index]->system->WaitWalDurable(lsn);
}

JsonValue ClusterReplicationStatus::ToJson() const {
  JsonValue shard_list = JsonValue::MakeArray();
  for (const PrimaryStatus& shard : shards) {
    shard_list.Append(shard.ToJson());
  }
  JsonValue j = JsonValue::MakeObject();
  j.Set("attached", JsonValue(attached));
  j.Set("epoch", JsonValue(epoch));
  j.Set("degraded", JsonValue(degraded()));
  j.Set("shards", std::move(shard_list));
  return j;
}

std::string AdeptCluster::OrgPath() const {
  return options_.wal_path.empty() ? std::string()
                                   : options_.wal_path + ".org";
}

Status AdeptCluster::PersistOrg() {
  const std::string path = OrgPath();
  if (path.empty()) return Status::OK();
  return WriteFileAtomic(path, org_.ToJson().Dump());
}

Status AdeptCluster::RestoreOrg() {
  const std::string path = OrgPath();
  if (path.empty() || !std::filesystem::exists(path)) return Status::OK();
  Status st = [&]() -> Status {
    ADEPT_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
    ADEPT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(content));
    return org_.LoadFromJson(json);
  }();
  if (!st.ok()) {
    return Status::Corruption(
        "cannot restore the org model from '" + path + "': " + st.ToString() +
        "; repair: restore the file, or remove it to fall back to "
        "repopulating the org after Recover()");
  }
  return st;
}

void AdeptCluster::AddObserver(InstanceObserver* observer) {
  observers_.push_back(observer);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.system->AddObserver(observer);
  }
}

// --- Elastic resizing --------------------------------------------------------

Status AdeptCluster::Resize(int new_shard_count) {
  if (new_shard_count < 1) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  const size_t m = static_cast<size_t>(new_shard_count);
  std::lock_guard<std::mutex> schema_lock(schema_mu_);
  if (schema_poisoned_) return SchemaPoisoned();
  ADEPT_RETURN_IF_ERROR(CheckTopology());
  if (!replication_.empty()) {
    return Status::FailedPrecondition(
        "cannot resize while replication is attached; DetachReplication(), "
        "resize primary and replicas to the same shard count, re-attach");
  }
  const size_t n = shards_.size();
  if (m == n) return Status::OK();

  // Drain every shard's writer so the handover below never interleaves
  // with records still in flight.
  for (auto& shard_ptr : shards_) {
    AdeptSystem& system = *shard_ptr->system;
    ADEPT_RETURN_IF_ERROR(system.WaitWalDurable(system.last_enqueued_lsn()));
  }

  // Grow: fresh shards with fresh ".shard<k>" files, the replicated
  // schema history, and the same observer set as the original shards.
  // A failure here rolls back cleanly — nothing but the fresh shards
  // (and their empty files) exists yet.
  if (m > n) {
    Status grown = [&]() -> Status {
      for (size_t k = n; k < m; ++k) {
        auto shard = std::make_shared<Shard>();
        ADEPT_ASSIGN_OR_RETURN(
            shard->system,
            AdeptSystem::Create(ShardOptions(options_, static_cast<int>(k))));
        ADEPT_ASSIGN_OR_RETURN(shard->driver,
                               MakeShardDriver(options_, static_cast<int>(k)));
        shard->system->AddObserver(worklist_.get());
        for (InstanceObserver* observer : observers_) {
          shard->system->AddObserver(observer);
        }
        shards_.push_back(std::move(shard));
      }
      return ReplicateSchemasToFreshShards({});
    }();
    if (!grown.ok()) {
      while (shards_.size() > n) {
        const size_t k = shards_.size() - 1;
        shards_.pop_back();
        RemoveShardFiles(options_, k);
      }
      return grown;
    }
  }

  // Swap the routing invariant and move what it now places elsewhere. The
  // worklist survives untouched: items (including claims) are keyed by
  // instance id, and the export/import handover fires no instance events.
  // From here on a failure leaves in-memory placement inconsistent with
  // the routing — poison the cluster so every later call fails loudly
  // (the durable state is intact; Recover() rebuilds a consistent one).
  //
  // Lock-free readers keep running throughout (they are the one facade
  // call exempt from the quiescence contract): the epoch goes odd here,
  // so a reader that misses an instance mid-move — evicted at the source,
  // view not yet republished — retries instead of reporting NotFound,
  // and the old ReadView's shared_ptrs keep retired shards alive for
  // readers still inside them.
  read_epoch_.fetch_add(1, std::memory_order_acq_rel);
  routing_ = ShardRouting(m);
  Status applied = [&]() -> Status {
    ADEPT_RETURN_IF_ERROR(MoveMisplacedInstances(nullptr));
    options_.shards = new_shard_count;

    // Checkpoint the new topology before any old file is retired: with
    // snapshots configured the drained shards' durable copies become
    // redundant; without them the WAL-logged moves already carry the new
    // placement.
    if (!options_.snapshot_path.empty()) {
      ADEPT_RETURN_IF_ERROR(SaveSnapshotLocked());
    }

    // Shrink: retire the drained shards and their durability files. The
    // Shard objects are parked, not destroyed: a lock-free reader inside
    // a stale ReadView may still dereference their systems.
    while (shards_.size() > m) {
      const size_t k = shards_.size() - 1;
      retired_shards_.push_back(std::move(shards_.back()));
      shards_.pop_back();
      RemoveShardFiles(options_, k);
    }

    return DeriveShardAllocators(n);
  }();
  if (!applied.ok()) {
    // The epoch stays odd; FindSnapshot's poison check turns retrying
    // readers into kFailedPrecondition instead of a spin.
    topology_poisoned_.store(true, std::memory_order_release);
    return applied;
  }

  // Publish the new topology to lock-free readers, then stabilize the
  // epoch (even again): from here a miss is a genuine miss.
  PublishReadView();
  read_epoch_.fetch_add(1, std::memory_order_acq_rel);

  // Size the worker pool for the new shard count (unless pinned).
  if (options_.worker_threads <= 0) {
    const size_t threads =
        std::min(m, static_cast<size_t>(
                        std::max(1u, std::thread::hardware_concurrency())));
    pool_ = std::make_unique<WorkerPool>(threads);
  }

  // Self-check sweep: reconcile the worklist with engine truth under the
  // new placement (a no-op when the handover was clean).
  ForEachInstance([this](const ProcessInstance& instance) {
    worklist_->Reconcile(instance);
  });
  return Status::OK();
}

// --- Batch execution ---------------------------------------------------------

AdeptCluster::BatchResult AdeptCluster::ExecuteOpLocked(Shard& shard,
                                                        size_t shard_index,
                                                        const BatchOp& op) {
  BatchResult result;
  result.id = op.id;
  result.shard = shard_index;
  AdeptSystem& system = *shard.system;
  // Capture the shard's WAL position right after the op so the result
  // carries its exact LSN (the failover reconciliation key).
  struct LsnStamp {
    AdeptSystem& system;
    BatchResult& result;
    ~LsnStamp() { result.lsn = system.last_enqueued_lsn(); }
  } stamp{system, result};
  switch (op.kind) {
    case BatchOp::Kind::kCreate: {
      SchemaId schema = op.schema;
      if (!schema.valid()) {
        auto latest = system.LatestVersion(op.type_name);
        if (!latest.ok()) {
          result.status = latest.status();
          return result;
        }
        schema = *latest;
      }
      auto created =
          system.CreateInstanceWithId(schema, NextIdLocked(shard_index));
      if (created.ok()) {
        result.id = *created;
      } else {
        result.status = created.status();
      }
      return result;
    }
    case BatchOp::Kind::kStart:
      result.status = system.StartActivity(op.id, op.node);
      return result;
    case BatchOp::Kind::kComplete:
      result.status = system.CompleteActivity(op.id, op.node, op.writes);
      return result;
    case BatchOp::Kind::kFail:
      result.status = system.FailActivity(op.id, op.node, op.reason);
      return result;
    case BatchOp::Kind::kSelectBranch:
      result.status = system.SelectBranch(op.id, op.node, op.branch_value);
      return result;
    case BatchOp::Kind::kLoopDecision:
      result.status = system.SetLoopDecision(op.id, op.node, op.iterate);
      return result;
    case BatchOp::Kind::kDriveStep: {
      auto progressed = system.DriveStep(op.id, *shard.driver);
      if (progressed.ok()) {
        result.progressed = *progressed;
      } else {
        result.status = progressed.status();
      }
      return result;
    }
    case BatchOp::Kind::kAdHocChange: {
      if (op.delta == nullptr) {
        result.status = Status::InvalidArgument("batch ad-hoc op needs delta");
        return result;
      }
      result.status = system.ApplyAdHocChange(op.id, op.delta->Clone());
      return result;
    }
  }
  result.status = Status::Internal("unknown batch op kind");
  return result;
}

std::vector<AdeptCluster::BatchResult> AdeptCluster::SubmitBatch(
    const std::vector<BatchOp>& ops) {
  std::vector<BatchResult> results(ops.size());
  Status topology = CheckTopology();
  if (!topology.ok()) {
    for (size_t i = 0; i < ops.size(); ++i) {
      results[i].status = topology;
      results[i].id = ops[i].id;
    }
    return results;
  }
  // Route every op up front (creates get their round-robin placement here),
  // then run one task per shard that has work.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t shard_index = ops[i].kind == BatchOp::Kind::kCreate
                             ? NextCreationShard()
                             : ShardOf(ops[i].id);
    by_shard[shard_index].push_back(i);
  }
  std::vector<std::function<void()>> tasks;
  for (size_t shard_index = 0; shard_index < by_shard.size(); ++shard_index) {
    if (by_shard[shard_index].empty()) continue;
    tasks.push_back([this, shard_index, &by_shard, &ops, &results] {
      // The fail-fast gate runs per shard group: a no-quorum/fenced shard
      // rejects its whole group before any mutation (definitely-not-
      // applied), while healthy shards of the same batch proceed.
      Status writable = CheckShardWritable(shard_index);
      if (!writable.ok()) {
        for (size_t op_index : by_shard[shard_index]) {
          results[op_index].status = writable;
          results[op_index].id = ops[op_index].id;
          results[op_index].shard = shard_index;
        }
        return;
      }
      Shard& shard = *shards_[shard_index];
      uint64_t lsn = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (size_t op_index : by_shard[shard_index]) {
          results[op_index] =
              ExecuteOpLocked(shard, shard_index, ops[op_index]);
        }
        lsn = shard.system->last_enqueued_lsn();
      }
      // Batch-level group commit: one durability wait covers the whole
      // shard group, after the lock is released. On failure every op that
      // reported success is downgraded — its record may not have survived.
      Status durable = shard.system->WaitWalDurable(lsn);
      if (!durable.ok()) {
        for (size_t op_index : by_shard[shard_index]) {
          if (results[op_index].status.ok()) {
            results[op_index].status = durable;
          }
        }
      }
    });
  }
  RunParallel(std::move(tasks));
  return results;
}

}  // namespace adept
