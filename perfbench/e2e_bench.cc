// End-to-end benchmark of the ADEPT2 engine: two domain workloads driven
// through ClusterClient against a 2-shard, WAL-backed cluster that a
// FailoverCoordinator runs with one standby at quorum 2.
//
//   e2e_bench --workload <adapt_migrate|worklist_monitor>
//             --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--spans <file>]
//
// A run is a sequence of rounds. Each round deploys a fresh cluster
// (timed as set-up), does a fixed amount of work on it (timed), checks the
// outputs, stops the deployment and recovers the primary's files (timed).
// Rounds repeat until the timed work done while the host stole no CPU adds
// up to --seconds, so every round does the same work, and the reported
// figures are taken over the samples taken while it stole none. With
// --trace 1 every second round records spans around the calls into each
// engine module, and after the rounds the per-layer probes run; see
// README.md for what each figure means.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. The exit code is 0 only when every check held.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/adept_cluster.h"
#include "cluster/cluster_client.h"
#include "cluster/failover_coordinator.h"
#include "cluster/shard_routing.h"
#include "common/logging.h"
#include "compliance/adhoc.h"
#include "perfbench/trace.h"
#include "query/query.h"
#include "query/query_index.h"
#include "runtime/instance_snapshot.h"
#include "storage/wal.h"
#include "storage/wal_writer.h"
#include "worklist/worklist_service.h"

namespace perfbench {
namespace {

using adept::AdeptCluster;
using adept::ClusterClient;
using adept::ClusterOptions;
using adept::DataId;
using adept::DataType;
using adept::DataValue;
using adept::InstanceId;
using adept::InstanceSnapshot;
using adept::NodeId;
using adept::NodeState;
using adept::ProcessInstance;
using adept::ProcessSchema;
using adept::RoleId;
using adept::SchemaBuilder;
using adept::SchemaId;
using adept::Status;
using adept::UserId;
using adept::WorkItem;
using BatchOp = adept::AdeptCluster::BatchOp;
using OpKind = adept::AdeptCluster::BatchOp::Kind;

// --- Workload sizes -----------------------------------------------------------
// Chosen so that one round times between half a second and two seconds of
// work on a 4-core host, so a run has ten rounds or more, and a round has
// enough samples for its p90 (ten beyond it at the least).

constexpr int kShards = 2;
// adapt_migrate: preloaded population and the chunk one drive batch covers.
constexpr int kPopulation = 10000;
constexpr int kChunk = 32;
constexpr int kPreloadBatch = 250;
// worklist_monitor: background order instances (query fodder) and the
// treatment cases worked through the worklists in one round.
constexpr int kBackground = 5000;
constexpr int kPatients = 250;
// Quiescent query rotations after each adapt_migrate round.
constexpr int kQuietRotations = 100;
// No run starts a new round after this much wall time, so that a run ends
// within about a minute however slow the host.
constexpr double kWallBudgetS = 55;
// Largest share of the host's CPU time stolen while a sample was taken that
// still lets the sample count towards the figures, and how often the host's
// steal counter is read.
constexpr double kCleanSteal = 0.02;
constexpr int kStealPeriodMs = 100;

// --- Host steal -------------------------------------------------------------------

// Host CPU steal and total jiffies from /proc/stat; {0, 0} when unreadable.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  uint64_t v[8] = {};
  const int n = std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                            " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {v[7], total};
}

// Reads the host's steal counter every kStealPeriodMs on a background
// thread, so that the steal during any interval of the run can be looked up
// afterwards.
class StealMonitor {
 public:
  StealMonitor() {
    Sample();
    thread_ = std::thread([this] { Loop(); });
  }
  ~StealMonitor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

  // Read under the lock, so that the readings stay in time order.
  void Sample() {
    std::lock_guard<std::mutex> lock(mu_);
    const auto [steal, total] = StealTicks();
    readings_.push_back({NanosOf(Clock::now()), steal, total});
  }

  // Share of the host's CPU time stolen over [t0, t1], widened to the
  // readings around it; 0 when /proc/stat cannot be read.
  double Share(int64_t t0_ns, int64_t t1_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto hi = std::lower_bound(
        readings_.begin(), readings_.end(), t1_ns,
        [](const Reading& r, int64_t t) { return r.t_ns < t; });
    if (hi == readings_.end()) --hi;
    auto lo = std::upper_bound(
        readings_.begin(), readings_.end(), t0_ns,
        [](int64_t t, const Reading& r) { return t < r.t_ns; });
    if (lo != readings_.begin()) --lo;
    if (hi->total <= lo->total) return 0;
    return static_cast<double>(hi->steal - lo->steal) /
           static_cast<double>(hi->total - lo->total);
  }

 private:
  struct Reading {
    int64_t t_ns;
    uint64_t steal, total;
  };
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      Sample();
      lock.lock();
      wake_.wait_for(lock, std::chrono::milliseconds(kStealPeriodMs),
                     [this] { return stop_; });
    }
  }

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Reading> readings_;
  std::thread thread_;
};

// --- Run state ------------------------------------------------------------------

// One timed sample with the interval it covers, so that the host's steal
// during it can be looked up when the figures are taken.
struct Timed {
  int64_t t0_ns = 0, t1_ns = 0;
  double value = 0;  // a time, or the units of work done in the interval
};

// The interval from t0 to now; its value is its length in seconds times
// `scale`.
Timed Since(Clock::time_point t0, double scale) {
  const Clock::time_point t1 = Clock::now();
  return {NanosOf(t0), NanosOf(t1),
          std::chrono::duration<double>(t1 - t0).count() * scale};
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string spans_path;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// One cluster write as recorded for the twin replays; `key` orders the
// stream causally (the time the client issued it) and `original` holds the
// id each create returned in the live run.
struct RecordedBatch {
  int64_t key = 0;
  std::vector<BatchOp> ops;
  std::vector<InstanceId> original;
  bool timed = false;
};

struct Run {
  Config config;
  Tracer* tracer = nullptr;  // non-null only during a traced round
  bool recording = false;    // record the cluster write stream this round

  std::mutex mu;  // guards everything below that worker threads touch
  std::map<std::string, OpCount> ops;
  std::vector<std::string> failures;
  std::vector<Timed> op_ms, mix_ms;  // mix_ms: one rotation of the query mix
  std::map<std::string, Samples> query_class_us;
  double query_evaluated = 0, query_matches = 0;
  uint64_t offers_calls = 0, offers_items = 0, claims = 0, claims_lost = 0;
  std::vector<RecordedBatch> stream;
  Samples ack_lag;

  // Touched by the main thread only.
  std::vector<Timed> setup_s, recover_s;
  // Intervals of timed work, each with the units done in it: migrated
  // instances or completed work items.
  std::vector<Timed> work;
  Samples op_ms_traced, op_ms_untraced;
  double measured_s = 0;
  double wal_bytes = 0, acked_writes = 0;
  uint64_t retry_rounds = 0;
  int migrations_reported = 0;

  void Count(const std::string& kind, bool ok) {
    std::lock_guard<std::mutex> lock(mu);
    OpCount& c = ops[kind];
    ++c.attempted;
    if (!ok) ++c.failed;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (failures.size() < 20) failures.push_back(what);
  }
  void Check(bool condition, const std::string& what) {
    if (!condition) Fail(what);
  }
  void AddSample(Samples& samples, double value) {
    std::lock_guard<std::mutex> lock(mu);
    samples.Add(value);
  }
  void AddSample(std::vector<Timed>& samples, const Timed& sample) {
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back(sample);
  }
  bool failed() {
    std::lock_guard<std::mutex> lock(mu);
    return !failures.empty();
  }
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kStart: return "start";
    case OpKind::kComplete: return "complete";
    case OpKind::kDriveStep: return "drive_step";
    case OpKind::kAdHocChange: return "adhoc_change";
    default: return "other";
  }
}

// --- Schemas and deployment ------------------------------------------------------

struct Org {
  RoleId nurse, physician;
  UserId nurse_user, physician_user;
};

// Same calls in the same order on every cluster, so ids agree everywhere.
Org PopulateOrg(adept::OrgModel& org) {
  Org o;
  o.nurse = *org.AddRole("nurse");
  o.physician = *org.AddRole("physician");
  o.nurse_user = *org.AddUser("nurse kim");
  o.physician_user = *org.AddUser("dr. weber");
  (void)org.AssignRole(o.nurse_user, o.nurse);
  (void)org.AssignRole(o.physician_user, o.physician);
  return o;
}

// The e-health treatment process: admit -> triage -> XOR(ward | ICU) ->
// LOOP(treat, evaluate) -> discharge, every activity role-assigned.
// `route` steers the XOR; `severity` is the value the monitor filters on.
std::shared_ptr<const ProcessSchema> TreatmentSchema(RoleId nurse,
                                                     RoleId physician) {
  SchemaBuilder::ActivityOptions by_nurse, by_physician;
  by_nurse.role = nurse;
  by_physician.role = physician;
  SchemaBuilder b("treatment", 1);
  DataId severity = b.Data("severity", DataType::kInt);
  DataId route = b.Data("route", DataType::kInt);
  DataId again = b.Data("continue_treatment", DataType::kBool);
  DataId vitals = b.Data("vitals", DataType::kString);
  NodeId admit = b.Activity("admit patient", by_nurse);
  b.Writes(admit, vitals);
  NodeId triage = b.Activity("triage", by_physician);
  b.Reads(triage, vitals);
  b.Writes(triage, severity);
  b.Writes(triage, route);
  b.Conditional(route, {
      [&](SchemaBuilder& s) { s.Activity("assign ward bed", by_nurse); },
      [&](SchemaBuilder& s) { s.Activity("admit to ICU", by_physician); },
  });
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId treat = s.Activity("administer treatment", by_nurse);
    s.Reads(treat, vitals);
    NodeId evaluate = s.Activity("evaluate response", by_physician);
    s.Writes(evaluate, again);
    s.Writes(evaluate, vitals);
  });
  NodeId discharge = b.Activity("discharge", by_physician);
  b.Reads(discharge, severity);
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

struct Types {
  Org org;
  std::shared_ptr<const ProcessSchema> order, treatment;
  SchemaId order_id;
};

adept::Result<Types> DeployTypes(AdeptCluster& cluster) {
  Types t;
  t.org = PopulateOrg(cluster.org());
  t.order = adept::bench::OnlineOrderV1();
  t.treatment = TreatmentSchema(t.org.nurse, t.org.physician);
  if (t.order == nullptr || t.treatment == nullptr) {
    return Status::Internal("benchmark schema failed to build");
  }
  ADEPT_ASSIGN_OR_RETURN(t.order_id, cluster.DeployProcessType(t.order));
  ADEPT_RETURN_IF_ERROR(cluster.DeployProcessType(t.treatment).status());
  return t;
}

ClusterOptions PrimaryOptions(const std::string& dir, uint64_t seed) {
  ClusterOptions o;
  o.shards = kShards;
  o.wal_path = dir + "/primary.wal";
  o.snapshot_path = dir + "/primary.snapshot";
  o.sync = adept::SyncMode::kFlush;
  o.driver.seed = seed;
  return o;
}

// The deployment under test. Member order is teardown order in reverse:
// the client and the cluster reference go before the coordinator stops.
struct Deployment {
  adept::FailoverOptions options;
  std::unique_ptr<adept::FailoverCoordinator> coordinator;
  std::unique_ptr<ClusterClient> client;
  std::shared_ptr<AdeptCluster> cluster;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  void Stop() {
    client.reset();
    cluster.reset();
    if (coordinator != nullptr) coordinator->Stop();
    coordinator.reset();
  }
};

adept::Result<std::unique_ptr<Deployment>> StartDeployment(
    const std::string& dir, uint64_t seed) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto d = std::make_unique<Deployment>();
  d->options.cluster = PrimaryOptions(dir, seed);
  d->options.replicas = 1;
  d->options.quorum = 2;
  d->options.data_dir = dir + "/standby";
  d->options.replica_sync = adept::SyncMode::kFlush;
  ADEPT_ASSIGN_OR_RETURN(d->coordinator,
                         adept::FailoverCoordinator::Start(d->options));
  d->client = std::make_unique<ClusterClient>(d->coordinator.get());
  d->cluster = d->coordinator->View().cluster;
  if (d->cluster == nullptr) return Status::Internal("no primary after start");
  return adept::Result<std::unique_ptr<Deployment>>(std::move(d));
}

uint64_t AckLag(const AdeptCluster& cluster) {
  uint64_t lag = 0;
  for (const adept::PrimaryStatus& s : cluster.ReplicationStatus().shards) {
    if (s.local_durable > s.quorum_acked) lag += s.local_durable - s.quorum_acked;
  }
  return lag;
}

// --- Client ledger ---------------------------------------------------------------

// What the client was told: acked creates and, per instance, how many
// activity completions were acked. Recovery must show at least this much.
struct Ledger {
  std::mutex mu;
  std::vector<InstanceId> created;
  std::unordered_map<uint64_t, int64_t> completions;
  uint64_t acked_writes = 0;

  void Created(InstanceId id) {
    std::lock_guard<std::mutex> lock(mu);
    created.push_back(id);
    completions.emplace(id.value(), 0);
    ++acked_writes;
  }
  void Completed(InstanceId id) {
    std::lock_guard<std::mutex> lock(mu);
    ++completions[id.value()];
    ++acked_writes;
  }
  void Acked() {
    std::lock_guard<std::mutex> lock(mu);
    ++acked_writes;
  }
};

// Submits one batch through ClusterClient, counts every op by kind, books
// acks in the ledger, and records the batch for the twin replays.
std::vector<ClusterClient::OpOutcome> Submit(
    Run& run, Deployment& d, Ledger& ledger, const std::vector<BatchOp>& ops,
    bool timed, std::vector<Timed>* latency_ms = nullptr) {
  const Clock::time_point t0 = Clock::now();
  std::vector<ClusterClient::OpOutcome> out;
  {
    ScopedSpan span(run.tracer, "client.submit");
    out = d.client->Submit(ops);
  }
  if (latency_ms != nullptr) run.AddSample(*latency_ms, Since(t0, 1e3));
  if (run.tracer != nullptr) run.AddSample(run.ack_lag, AckLag(*d.cluster));

  RecordedBatch record;
  record.key = NanosOf(t0);
  record.timed = timed;
  for (size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& op = ops[i];
    const ClusterClient::OpOutcome& o = out[i];
    run.Count(KindName(op.kind), o.status.ok());
    if (!o.status.ok()) {
      run.Fail(std::string(KindName(op.kind)) + " failed: " + o.status.ToString());
      continue;
    }
    if (op.kind == OpKind::kCreate) {
      ledger.Created(o.id);
    } else if (op.kind == OpKind::kDriveStep && o.progressed) {
      ledger.Completed(op.id);
    } else {
      ledger.Acked();
    }
    if (run.recording) {
      record.ops.push_back(op);
      record.original.push_back(o.id);
    }
  }
  if (run.recording && !record.ops.empty()) {
    std::lock_guard<std::mutex> lock(run.mu);
    run.stream.push_back(std::move(record));
  }
  return out;
}

// Creates `count` instances of `type` in batches; returns their ids.
std::vector<InstanceId> Preload(Run& run, Deployment& d, Ledger& ledger,
                                const std::string& type, int count) {
  std::vector<InstanceId> ids;
  for (int done = 0; done < count;) {
    int n = std::min(kPreloadBatch, count - done);
    std::vector<BatchOp> ops(n, BatchOp::Create(type));
    for (const auto& o : Submit(run, d, ledger, ops, false)) {
      if (o.status.ok()) ids.push_back(o.id);
    }
    done += n;
  }
  return ids;
}

// Drives instance i through steps[i] DriveSteps, in batches.
void DriveTo(Run& run, Deployment& d, Ledger& ledger,
             const std::vector<InstanceId>& ids, const std::vector<int>& steps) {
  int max_steps = 0;
  for (int s : steps) max_steps = std::max(max_steps, s);
  for (int pass = 0; pass < max_steps; ++pass) {
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (steps[i] > pass) ops.push_back(BatchOp::DriveStep(ids[i]));
      if (static_cast<int>(ops.size()) == kPreloadBatch || i + 1 == ids.size()) {
        if (!ops.empty()) Submit(run, d, ledger, ops, false);
        ops.clear();
      }
    }
  }
}

// --- Queries ------------------------------------------------------------------

// The monitor's rotation: an id lookup, a node-set probe, a state probe
// intersected with a second conjunct (weighted twice), and a predicate no
// index serves. The query figures time one whole rotation, what a
// dashboard refresh costs, rather than single queries: the classes differ
// in cost by up to three orders of magnitude, so a median over single
// queries sits on a class boundary and jumps with the mix of the run.
enum QueryClass { kById = 0, kByNode, kIntersect, kScan };
constexpr QueryClass kRotation[] = {kById, kByNode, kIntersect, kScan,
                                    kIntersect};
const char* const kQuerySpan[] = {"query.id", "query.node", "query.intersect",
                                  "query.scan"};

// Per workload: which node the node probe names, and whether the
// intersection filters on severity (treatment data) or on the bias flag.
struct QueryMix {
  std::string node;
  bool by_severity = true;
};

std::string QueryText(const QueryMix& mix, QueryClass cls, InstanceId probe) {
  switch (cls) {
    case kById: return "id == " + std::to_string(probe.value());
    case kByNode: return "activated(\"" + mix.node + "\")";
    case kIntersect:
      return mix.by_severity ? "state == running && data.severity >= 2"
                             : "state == running && biased == true";
    case kScan: return "trace_length >= 6";
  }
  return "false";
}

// The benchmark's own reading of each predicate, written against the
// snapshot fields directly rather than through CompiledQuery.
bool ExpectMatch(const QueryMix& mix, QueryClass cls, InstanceId probe,
                 const InstanceSnapshot& s) {
  const bool running = s.started && !s.finished;
  switch (cls) {
    case kById: return s.id == probe;
    case kByNode: {
      NodeId node = s.schema->FindNodeByName(mix.node);
      return node.valid() && s.marking.node(node) == NodeState::kActivated;
    }
    case kIntersect: {
      if (!running) return false;
      if (!mix.by_severity) return s.biased;
      DataId severity = s.schema->FindDataByName("severity");
      if (!severity.valid()) return false;
      const DataValue* v = s.data_values.Find(severity);
      return v != nullptr && v->type() == DataType::kInt && v->as_int() >= 2;
    }
    case kScan: return s.trace_length >= 6;
  }
  return false;
}

void TimedQuery(Run& run, ClusterClient& client, const QueryMix& mix,
                QueryClass cls, InstanceId probe) {
  const std::string text = QueryText(mix, cls, probe);
  const Clock::time_point t0 = Clock::now();
  adept::Result<adept::QueryResult> r = [&] {
    ScopedSpan span(run.tracer, kQuerySpan[cls]);
    return client.Query(text);
  }();
  const double us = SecondsSince(t0) * 1e6;
  run.Count("query", r.ok());
  if (!r.ok()) {
    run.Fail("query '" + text + "' failed: " + r.status().ToString());
    return;
  }
  std::lock_guard<std::mutex> lock(run.mu);
  if (run.tracer != nullptr) {
    run.query_class_us[kQuerySpan[cls]].Add(us);
    run.query_evaluated += static_cast<double>(r->evaluated);
    run.query_matches += static_cast<double>(r->size());
  }
}

// At a quiescent point every predicate's result must equal the benchmark's
// own filter over the snapshots of the ids the client created.
void CheckQueries(Run& run, Deployment& d, const QueryMix& mix,
                  const Ledger& ledger) {
  if (ledger.created.empty()) return;
  const InstanceId probe = ledger.created[ledger.created.size() / 2];
  for (QueryClass cls : {kById, kByNode, kIntersect, kScan}) {
    const std::string text = QueryText(mix, cls, probe);
    auto r = d.client->Query(text);
    run.Count("query", r.ok());
    if (!r.ok()) {
      run.Fail("check query '" + text + "' failed: " + r.status().ToString());
      continue;
    }
    std::vector<uint64_t> got, want;
    for (const auto& s : *r) got.push_back(s->id.value());
    for (InstanceId id : ledger.created) {
      auto s = d.cluster->SnapshotOf(id);
      if (s != nullptr && ExpectMatch(mix, cls, probe, *s)) {
        want.push_back(id.value());
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    run.Check(!r->degraded, "query '" + text + "' served degraded");
    run.Check(got == want, "query '" + text + "' returned " +
                               std::to_string(got.size()) + " ids, own filter " +
                               std::to_string(want.size()));
  }
}

// One rotation of the mix, id probes drawn from `ids`; its time goes to
// run.mix_ms.
void TimedRotation(Run& run, ClusterClient& client, const QueryMix& mix,
                   const std::vector<InstanceId>& ids, adept::Rng& rng) {
  InstanceId probes[std::size(kRotation)];
  for (InstanceId& probe : probes) probe = ids[rng.NextIndex(ids.size())];
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < std::size(kRotation); ++i) {
    TimedQuery(run, client, mix, kRotation[i], probes[i]);
  }
  run.AddSample(run.mix_ms, Since(t0, 1e3));
}

void QuietRotations(Run& run, Deployment& d, const QueryMix& mix,
                    const Ledger& ledger, adept::Rng& rng) {
  if (ledger.created.empty()) return;
  for (int i = 0; i < kQuietRotations; ++i) {
    TimedRotation(run, *d.client, mix, ledger.created, rng);
  }
}

// --- Round epilogue: stop, recover, durability ----------------------------------

uint64_t WalBytes(const ClusterOptions& o) {
  uint64_t bytes = 0;
  for (size_t k = 0; k < static_cast<size_t>(o.shards); ++k) {
    std::error_code ec;
    auto size = std::filesystem::file_size(
        adept::ShardRouting::PathFor(o.wal_path, k), ec);
    if (!ec) bytes += size;
  }
  return bytes;
}

// Stops the deployment, times Recover over the primary's files, and checks
// that every acked create exists once with at least its acked progress.
void FinishRound(Run& run, std::unique_ptr<Deployment> d, Ledger& ledger,
                 const std::string& dir) {
  const ClusterOptions options = d->options.cluster;
  run.retry_rounds += d->client->retry_rounds();
  run.Check(d->coordinator->promotions() == 0,
            "a failover happened during the round");
  d->Stop();
  d.reset();
  run.wal_bytes += static_cast<double>(WalBytes(options));
  run.acked_writes += static_cast<double>(ledger.acked_writes);

  const Clock::time_point t0 = Clock::now();
  auto recovered = AdeptCluster::Recover(options);
  run.recover_s.push_back(Since(t0, 1));
  run.Count("recover", recovered.ok());
  if (!recovered.ok()) {
    run.Fail("recover failed: " + recovered.status().ToString());
    return;
  }
  AdeptCluster& c = **recovered;
  std::unordered_map<uint64_t, int> seen;
  c.ForEachSnapshot([&](const InstanceSnapshot& s) { ++seen[s.id.value()]; });
  size_t duplicates = 0;
  for (const auto& [id, n] : seen) duplicates += n > 1 ? 1 : 0;
  run.Check(duplicates == 0, std::to_string(duplicates) +
                                 " instance ids appear twice after recovery");
  run.Check(ledger.completions.size() == ledger.created.size(),
            "the client was acked the same instance id twice");
  run.Check(seen.size() == ledger.created.size(),
            "recovered " + std::to_string(seen.size()) + " instances, acked " +
                std::to_string(ledger.created.size()));
  size_t lost = 0, behind = 0;
  for (InstanceId id : ledger.created) {
    auto s = c.SnapshotOf(id);
    if (s == nullptr) {
      ++lost;
    } else if (static_cast<int64_t>(s->completed_total) <
               ledger.completions[id.value()]) {
      ++behind;
    }
  }
  run.Check(lost == 0, std::to_string(lost) + " acked instances lost");
  run.Check(behind == 0,
            std::to_string(behind) + " instances lost acked progress");
  recovered->reset();
  std::filesystem::remove_all(dir);
}

// --- adapt_migrate ------------------------------------------------------------------

enum class Bias { kNone, kDisjoint, kConflicting };

bool NotStarted(const InstanceSnapshot& s, NodeId node) {
  NodeState st = s.marking.node(node);
  return st == NodeState::kNotActivated || st == NodeState::kActivated;
}

bool Migrated(adept::MigrationOutcome o) {
  return o == adept::MigrationOutcome::kMigrated ||
         o == adept::MigrationOutcome::kMigratedBiased ||
         o == adept::MigrationOutcome::kBiasCancelled;
}

// Fig. 1's rule, from the node states before migration: an instance moves
// to the new version iff "confirm order" has not started and it does not
// carry the conflicting sync-edge bias.
void CheckMigration(Run& run, const adept::MigrationReport& report,
                    const std::unordered_map<uint64_t, bool>& expected,
                    const std::unordered_map<uint64_t, Bias>& bias,
                    const char* what) {
  size_t wrong = 0, bias_dropped = 0, migrated = 0;
  for (const auto& r : report.results) {
    auto it = expected.find(r.id.value());
    const bool want = it != expected.end() && it->second;
    const bool got = Migrated(r.outcome);
    migrated += got ? 1 : 0;
    if (want != got) ++wrong;
    auto b = bias.find(r.id.value());
    if (got && b != bias.end() && b->second == Bias::kDisjoint &&
        r.outcome != adept::MigrationOutcome::kMigratedBiased) {
      ++bias_dropped;
    }
  }
  run.Check(report.results.size() == expected.size(),
            std::string(what) + " classified " +
                std::to_string(report.results.size()) + " of " +
                std::to_string(expected.size()) + " instances");
  run.Check(wrong == 0, std::string(what) + " disagrees with the Fig. 1 rule on " +
                            std::to_string(wrong) + " instances (" +
                            std::to_string(migrated) + " migrated)");
  run.Check(bias_dropped == 0, std::string(what) + " dropped " +
                                   std::to_string(bias_dropped) +
                                   " disjoint biases");
}

void AdaptMigrateRound(Run& run, const std::string& dir) {
  const Clock::time_point setup_t0 = Clock::now();
  auto started = StartDeployment(dir, run.config.seed);
  if (!started.ok()) return run.Fail("start: " + started.status().ToString());
  std::unique_ptr<Deployment> d = std::move(*started);
  auto deployed = DeployTypes(*d->cluster);
  if (!deployed.ok()) return run.Fail("deploy: " + deployed.status().ToString());
  const Types& types = *deployed;
  Ledger ledger;
  adept::Rng rng(run.config.seed);
  std::vector<InstanceId> ids =
      Preload(run, *d, ledger, "online_order", kPopulation);
  std::vector<int> steps;
  for (size_t i = 0; i < ids.size(); ++i) {
    steps.push_back(static_cast<int>(rng.NextBelow(6)));
  }
  DriveTo(run, *d, ledger, ids, steps);
  run.setup_s.push_back(Since(setup_t0, 1));

  const ProcessSchema& v1 = *types.order;
  const NodeId confirm = v1.FindNodeByName("confirm order");
  const NodeId compose = v1.FindNodeByName("compose order");
  const NodeId deliver = v1.FindNodeByName("deliver goods");
  std::unordered_map<uint64_t, Bias> bias;

  // Live phase: ad-hoc changes one at a time, each chunk followed by one
  // DriveStep batch over the chunk. A bias is only attempted where the
  // instance's state admits it, so no change is refused.
  Clock::time_point t0 = Clock::now();
  for (size_t start = 0; start < ids.size() && !run.failed(); start += kChunk) {
    const size_t end = std::min(ids.size(), start + kChunk);
    std::vector<BatchOp> drive;
    for (size_t i = start; i < end; ++i) {
      const double roll = rng.NextDouble();
      drive.push_back(BatchOp::DriveStep(ids[i]));
      if (roll >= 0.25) continue;
      const Bias kind = roll < 0.05 ? Bias::kConflicting : Bias::kDisjoint;
      auto snap = d->cluster->SnapshotOf(ids[i]);
      if (snap == nullptr || snap->finished || snap->biased) continue;
      if (!NotStarted(*snap, kind == Bias::kDisjoint ? deliver : compose)) {
        continue;
      }
      adept::Delta delta = kind == Bias::kDisjoint
                               ? adept::bench::DisjointBias(v1)
                               : adept::bench::ConflictingBias(v1);
      auto out = Submit(run, *d, ledger,
                        {BatchOp::AdHocChange(ids[i], std::move(delta))}, true,
                        &run.op_ms);
      if (out[0].status.ok()) bias[ids[i].value()] = kind;
    }
    Submit(run, *d, ledger, drive, true);
  }
  run.measured_s += SecondsSince(t0);

  // Schema evolution and migration of the population.
  auto v2 = d->cluster->EvolveProcessType(
      types.order_id, adept::bench::Fig1TypeChange(v1));
  run.Count("evolve", v2.ok());
  if (!v2.ok()) {
    run.Fail("evolve failed: " + v2.status().ToString());
  } else {
    std::unordered_map<uint64_t, bool> expected;
    for (InstanceId id : ids) {
      auto snap = d->cluster->SnapshotOf(id);
      auto b = bias.find(id.value());
      const bool conflicting = b != bias.end() && b->second == Bias::kConflicting;
      expected[id.value()] = snap != nullptr && !snap->finished &&
                             NotStarted(*snap, confirm) && !conflicting;
    }
    adept::MigrationOptions replay;
    replay.dry_run = true;
    replay.use_replay_checker = true;
    auto dry = d->cluster->Migrate(types.order_id, *v2, replay);
    run.Count("migrate_dry_run", dry.ok());
    if (dry.ok()) {
      CheckMigration(run, *dry, expected, bias, "replay-criterion dry run");
    } else {
      run.Fail("dry-run migrate failed: " + dry.status().ToString());
    }
    t0 = Clock::now();
    auto report = [&] {
      ScopedSpan span(run.tracer, "cluster.migrate");
      return d->cluster->Migrate(types.order_id, *v2);
    }();
    const Timed migrate = Since(t0, 1);
    run.Count("migrate", report.ok());
    if (report.ok()) {
      CheckMigration(run, *report, expected, bias, "migration");
      if (run.migrations_reported++ == 0) {
        std::printf("migration: %zu of %zu instances migrated\n",
                    report->MigratedTotal(), report->results.size());
      }
      run.work.push_back({migrate.t0_ns, migrate.t1_ns,
                          static_cast<double>(report->results.size())});
      run.measured_s += migrate.value;
    } else {
      run.Fail("migrate failed: " + report.status().ToString());
    }
  }

  const QueryMix mix{"confirm order", false};
  t0 = Clock::now();
  QuietRotations(run, *d, mix, ledger, rng);
  run.measured_s += SecondsSince(t0);
  CheckQueries(run, *d, mix, ledger);
  FinishRound(run, std::move(d), ledger, dir);
}

// --- worklist_monitor --------------------------------------------------------------

// What a participant writes when completing each treatment activity; the
// per-case severity and loop count come from the seed and the case id.
struct CasePlan {
  int64_t severity = 0;
  uint64_t loops = 1;
};

CasePlan PlanFor(uint64_t seed, InstanceId id) {
  const uint64_t h = Mix(seed * 1000003 + id.value());
  return {static_cast<int64_t>(h % 4), 1 + (h >> 8) % 3};
}

struct TreatmentNodes {
  NodeId admit, triage, evaluate, discharge;
  DataId severity, route, again, vitals;
  explicit TreatmentNodes(const ProcessSchema& s)
      : admit(s.FindNodeByName("admit patient")),
        triage(s.FindNodeByName("triage")),
        evaluate(s.FindNodeByName("evaluate response")),
        discharge(s.FindNodeByName("discharge")),
        severity(s.FindDataByName("severity")),
        route(s.FindDataByName("route")),
        again(s.FindDataByName("continue_treatment")),
        vitals(s.FindDataByName("vitals")) {}

  std::vector<ProcessInstance::DataWrite> WritesFor(const WorkItem& item,
                                                    uint64_t seed) const {
    const CasePlan plan = PlanFor(seed, item.instance);
    const DataValue note = DataValue::String(
        "case " + std::to_string(item.instance.value()) + " step " +
        std::to_string(item.epoch));
    if (item.node == admit) return {{vitals, note}};
    if (item.node == triage) {
      return {{severity, DataValue::Int(plan.severity)},
              {route, DataValue::Int(plan.severity >= 2 ? 1 : 0)}};
    }
    if (item.node == evaluate) {
      return {{again, DataValue::Bool(item.epoch + 1 < plan.loops)},
              {vitals, note}};
    }
    return {};
  }
};

struct WorklistShared {
  std::atomic<int> discharged{0};
  std::atomic<bool> participants_done{false};
  std::atomic<bool> abort{false};
  std::mutex mu;
  std::set<std::tuple<uint64_t, uint32_t, uint64_t>> completed;  // exactly once
  size_t duplicate_completions = 0;
  uint64_t completed_count = 0;
};

void Participant(Run& run, Deployment& d, Ledger& ledger,
                 const TreatmentNodes& nodes, UserId user, RoleId role,
                 WorklistShared& shared, Clock::time_point deadline) {
  adept::WorklistService& worklist = d.cluster->Worklist();
  while (!shared.abort.load()) {
    std::vector<WorkItem> offers;
    {
      ScopedSpan span(run.tracer, "worklist.offers");
      offers = worklist.OffersFor(user);
    }
    size_t foreign = 0;
    for (const WorkItem& item : offers) foreign += item.role == role ? 0 : 1;
    {
      std::lock_guard<std::mutex> lock(run.mu);
      ++run.offers_calls;
      run.offers_items += offers.size();
    }
    run.Check(foreign == 0, "an offer reached a user without its role");
    if (offers.empty()) {
      if (shared.discharged.load() == kPatients) return;
      if (Clock::now() > deadline) {
        run.Fail("worklist round did not finish in time");
        shared.abort = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const WorkItem item = offers.front();
    const Clock::time_point t0 = Clock::now();
    ScopedSpan task(run.tracer, "worklist.task");
    Status st;
    {
      ScopedSpan span(run.tracer, "worklist.claim", &task);
      st = worklist.Claim(item.id, user);
    }
    {
      std::lock_guard<std::mutex> lock(run.mu);
      ++run.claims;
      if (st.code() == adept::StatusCode::kFailedPrecondition) ++run.claims_lost;
    }
    run.Count("claim", st.ok() ||
                           st.code() == adept::StatusCode::kFailedPrecondition);
    if (!st.ok()) continue;
    const int64_t start_key = NanosOf(Clock::now());
    {
      ScopedSpan span(run.tracer, "worklist.start", &task);
      st = worklist.Start(item.id, user);
    }
    run.Count("start", st.ok());
    const auto writes = nodes.WritesFor(item, run.config.seed);
    if (st.ok()) {
      ScopedSpan span(run.tracer, "worklist.complete", &task);
      st = worklist.Complete(item.id, user, writes);
      run.Count("complete", st.ok());
    }
    if (!st.ok()) {
      run.Fail("task on case " + std::to_string(item.instance.value()) +
               " failed: " + st.ToString());
      shared.abort = true;
      return;
    }
    run.AddSample(run.op_ms, Since(t0, 1e3));
    ledger.Completed(item.instance);
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      ++shared.completed_count;
      if (!shared.completed.emplace(item.instance.value(), item.node.value(),
                                    item.epoch).second) {
        ++shared.duplicate_completions;
      }
    }
    if (run.recording) {
      RecordedBatch record;
      record.key = start_key;
      record.timed = true;
      record.ops = {BatchOp::Start(item.instance, item.node),
                    BatchOp::Complete(item.instance, item.node, writes)};
      record.original = {InstanceId(), InstanceId()};
      std::lock_guard<std::mutex> lock(run.mu);
      run.stream.push_back(std::move(record));
    }
    if (item.node == nodes.discharge) ++shared.discharged;
  }
}

void WorklistMonitorRound(Run& run, const std::string& dir) {
  const Clock::time_point setup_t0 = Clock::now();
  auto started = StartDeployment(dir, run.config.seed);
  if (!started.ok()) return run.Fail("start: " + started.status().ToString());
  std::unique_ptr<Deployment> d = std::move(*started);
  auto deployed = DeployTypes(*d->cluster);
  if (!deployed.ok()) return run.Fail("deploy: " + deployed.status().ToString());
  const Types& types = *deployed;
  Ledger ledger;
  adept::Rng rng(run.config.seed);
  std::vector<InstanceId> background =
      Preload(run, *d, ledger, "online_order", kBackground);
  std::vector<int> steps;
  for (size_t i = 0; i < background.size(); ++i) {
    steps.push_back(static_cast<int>(rng.NextBelow(7)));
  }
  DriveTo(run, *d, ledger, background, steps);
  std::vector<InstanceId> cases = Preload(run, *d, ledger, "treatment", kPatients);
  run.setup_s.push_back(Since(setup_t0, 1));
  if (run.failed()) return;

  const TreatmentNodes nodes(*types.treatment);
  const adept::WorklistStats stats_before = d->cluster->Worklist().Stats();
  WorklistShared shared;
  const QueryMix mix{"triage", true};
  const size_t first_task = run.op_ms.size();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + std::chrono::seconds(60);
  std::thread nurse([&] {
    Participant(run, *d, ledger, nodes, types.org.nurse_user, types.org.nurse,
                shared, deadline);
  });
  std::thread physician([&] {
    Participant(run, *d, ledger, nodes, types.org.physician_user,
                types.org.physician, shared, deadline);
  });
  std::thread monitor([&] {
    adept::Rng monitor_rng(run.config.seed + 1);
    while (!shared.participants_done.load()) {
      TimedRotation(run, *d->client, mix, cases, monitor_rng);
    }
  });
  nurse.join();
  physician.join();
  const Timed phase = Since(t0, 1);
  shared.participants_done = true;
  monitor.join();
  run.measured_s += phase.value;
  // The phase in slices, each with the tasks completed in it, so that the
  // rate can be taken over the slices the host's steal left alone.
  constexpr int64_t kSliceNs = 250'000'000;
  for (int64_t s = phase.t0_ns; s < phase.t1_ns; s += kSliceNs) {
    const int64_t e = std::min(phase.t1_ns, s + kSliceNs);
    double tasks = 0;
    for (size_t i = first_task; i < run.op_ms.size(); ++i) {
      if (run.op_ms[i].t1_ns > s && run.op_ms[i].t1_ns <= e) ++tasks;
    }
    run.work.push_back({s, e, tasks});
  }

  // Exactly-once and completeness: every case finished, each activity run
  // completed once, and the service counted what the clients did.
  uint64_t expected_tasks = 0;
  size_t unfinished = 0;
  for (InstanceId id : cases) {
    expected_tasks += 4 + 2 * PlanFor(run.config.seed, id).loops;
    auto snap = d->cluster->SnapshotOf(id);
    if (snap == nullptr || !snap->finished) ++unfinished;
  }
  run.Check(unfinished == 0, std::to_string(unfinished) + " cases unfinished");
  run.Check(shared.duplicate_completions == 0,
            std::to_string(shared.duplicate_completions) +
                " work items completed twice");
  run.Check(shared.completed_count == expected_tasks,
            "completed " + std::to_string(shared.completed_count) +
                " work items, the plans call for " +
                std::to_string(expected_tasks));
  const adept::WorklistStats stats = d->cluster->Worklist().Stats();
  run.Check(stats.completed_total - stats_before.completed_total ==
                shared.completed_count,
            "worklist service counted " +
                std::to_string(stats.completed_total -
                               stats_before.completed_total) +
                " completions, the clients " +
                std::to_string(shared.completed_count));
  CheckQueries(run, *d, mix, ledger);
  FinishRound(run, std::move(d), ledger, dir);
}

// --- Per-layer probes (traced run only) ---------------------------------------------

using LayerMetrics = std::vector<std::tuple<std::string, double, std::string>>;

// Replays the recorded write stream on `cluster` with SubmitBatch called
// directly; returns the time of each timed batch in microseconds.
Samples Replay(Run& run, AdeptCluster& cluster, const std::string& twin,
               Tracer* tracer, bool sample_lag) {
  Samples batch_us;
  auto types = DeployTypes(cluster);
  if (!types.ok()) {
    run.Fail(twin + " twin deploy: " + types.status().ToString());
    return batch_us;
  }
  std::unordered_map<uint64_t, InstanceId> remap;
  size_t diverged = 0;
  ScopedSpan root(tracer, twin.c_str());
  for (const RecordedBatch& batch : run.stream) {
    std::vector<BatchOp> ops = batch.ops;
    for (BatchOp& op : ops) {
      if (op.kind != OpKind::kCreate) op.id = remap[op.id.value()];
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<AdeptCluster::BatchResult> results;
    {
      ScopedSpan span(tracer, "cluster.submit_batch", &root);
      results = cluster.SubmitBatch(ops);
    }
    if (batch.timed) batch_us.Add(SecondsSince(t0) * 1e6);
    if (sample_lag) run.ack_lag.Add(static_cast<double>(AckLag(cluster)));
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!results[i].status.ok()) ++diverged;
      if (ops[i].kind == OpKind::kCreate) {
        remap[batch.original[i].value()] = results[i].id;
      }
    }
  }
  run.Check(diverged == 0, twin + " twin refused " + std::to_string(diverged) +
                               " replayed ops");
  return batch_us;
}

// Runtime layer: each instance stepped to completion on a standalone
// ProcessInstance with a SimulationDriver seeded like the cluster's.
void RuntimeProbe(Run& run, Tracer* tracer, LayerMetrics& out) {
  adept::SchemaRepository repo;
  adept::Engine engine;
  adept::OrgModel org;
  adept::QueryIndex index;
  const Org o = PopulateOrg(org);
  auto order = adept::bench::OnlineOrderV1();
  auto treatment = TreatmentSchema(o.nurse, o.physician);
  const SchemaId order_id = *repo.Deploy(order);
  const SchemaId treatment_id = *repo.Deploy(treatment);
  adept::SimulationDriver driver({.seed = run.config.seed});
  Samples step_us, snapshot_us, delta_us;
  const std::string& w = run.config.workload;
  for (int i = 0; i < 400; ++i) {
    const bool use_treatment = w == "worklist_monitor";
    auto created = use_treatment ? engine.CreateInstance(treatment, treatment_id)
                                 : engine.CreateInstance(order, order_id);
    if (!created.ok()) return run.Fail("runtime probe: create failed");
    ProcessInstance& inst = **created;
    (void)inst.Start();
    std::shared_ptr<const InstanceSnapshot> prev = inst.BuildSnapshot();
    index.ApplyDelta(nullptr, prev.get());
    for (int guard = 0; guard < 1000; ++guard) {
      Clock::time_point t0 = Clock::now();
      adept::Result<bool> progressed = [&] {
        ScopedSpan span(tracer, "runtime.step");
        return driver.Step(inst);
      }();
      step_us.Add(SecondsSince(t0) * 1e6);
      if (!progressed.ok()) return run.Fail("runtime probe: step failed");
      if (!*progressed) break;
      t0 = Clock::now();
      std::shared_ptr<const InstanceSnapshot> next = [&] {
        ScopedSpan span(tracer, "runtime.snapshot");
        return std::shared_ptr<const InstanceSnapshot>(inst.BuildSnapshot());
      }();
      snapshot_us.Add(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      {
        ScopedSpan span(tracer, "query.index_delta");
        index.ApplyDelta(prev.get(), next.get());
      }
      delta_us.Add(SecondsSince(t0) * 1e6);
      prev = std::move(next);
    }
  }
  out.emplace_back("runtime.step_us", step_us.Median(), "us");
  out.emplace_back("runtime.snapshot_us", snapshot_us.Median(), "us");
  out.emplace_back("query.index_delta_us", delta_us.Median(), "us");
}

// verify and compliance: ad-hoc change and a dry-run classification on
// standalone online-ordering populations built with the run's seed.
void ChangeProbe(Run& run, Tracer* tracer, LayerMetrics& out) {
  adept::bench::PopulationOptions plain;
  plain.instances = 1000;
  plain.seed = run.config.seed;
  auto pop = adept::bench::MakePopulation(plain);
  Samples adhoc_us;
  for (InstanceId id : pop->ids) {
    ProcessInstance* inst = pop->engine.Find(id);
    if (inst == nullptr || inst->Finished()) continue;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(tracer, "verify.adhoc");
      (void)adept::ApplyAdHocChange(*inst, *pop->store,
                                    adept::bench::DisjointBias(*pop->v1));
    }
    adhoc_us.Add(SecondsSince(t0) * 1e6);
  }
  out.emplace_back("verify.adhoc_us", adhoc_us.Median(), "us");

  adept::bench::PopulationOptions mixed = plain;
  mixed.instances = 2000;
  mixed.biased_fraction = 0.25;
  mixed.conflicting_fraction = 0.2;
  auto pop2 = adept::bench::MakePopulation(mixed);
  auto v2 = pop2->repo.DeriveVersion(pop2->v1_id,
                                     adept::bench::Fig1TypeChange(*pop2->v1));
  if (!v2.ok()) return run.Fail("compliance probe: derive failed");
  adept::MigrationOptions dry;
  dry.dry_run = true;
  const Clock::time_point t0 = Clock::now();
  auto report = [&] {
    ScopedSpan span(tracer, "compliance.classify");
    return pop2->manager->MigrateAll(pop2->v1_id, *v2, dry);
  }();
  const double s = SecondsSince(t0);
  if (!report.ok() || report->results.empty()) {
    return run.Fail("compliance probe: classification failed");
  }
  const double n = static_cast<double>(report->results.size());
  out.emplace_back("compliance.check_us", s * 1e6 / n, "us");
  out.emplace_back("compliance.migrated_per_classified",
                   static_cast<double>(report->MigratedTotal()) / n, "ratio");
  std::printf("layer: compliance.migrated_per_classified base: %zu of %.0f "
              "classified instances migrate\n",
              report->MigratedTotal(), n);
}

// cluster / storage / repl: the recorded stream replayed on an in-memory
// twin, a WAL-only twin and a replicated deployment like the one measured;
// then the WAL-only twin's log is decoded, re-appended and checkpointed.
void CommitProbe(Run& run, Tracer* tracer, LayerMetrics& out) {
  std::sort(run.stream.begin(), run.stream.end(),
            [](const RecordedBatch& a, const RecordedBatch& b) {
              return a.key < b.key;
            });
  const std::string dir = run.config.data_dir + "/twins";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ClusterOptions memory_options;
  memory_options.shards = kShards;
  memory_options.driver.seed = run.config.seed;
  auto memory = AdeptCluster::Create(memory_options);
  if (!memory.ok()) return run.Fail("in-memory twin: " + memory.status().ToString());
  Samples memory_us = Replay(run, **memory, "twin.memory", tracer, false);
  memory->reset();

  ClusterOptions wal_options = PrimaryOptions(dir + "/wal", run.config.seed);
  std::filesystem::create_directories(dir + "/wal");
  auto wal = AdeptCluster::Create(wal_options);
  if (!wal.ok()) return run.Fail("WAL twin: " + wal.status().ToString());
  Samples wal_us = Replay(run, **wal, "twin.wal", tracer, false);

  Samples decode_us, append_us;
  std::vector<adept::JsonValue> records;
  for (size_t k = 0; k < static_cast<size_t>(kShards); ++k) {
    const std::string path =
        adept::ShardRouting::PathFor(wal_options.wal_path, k);
    const Clock::time_point t0 = Clock::now();
    auto read = [&] {
      ScopedSpan span(tracer, "storage.wal_decode");
      return adept::WriteAheadLog::ReadAll(path);
    }();
    decode_us.Add(SecondsSince(t0) * 1e6);
    if (!read.ok()) return run.Fail("WAL decode: " + read.status().ToString());
    records.insert(records.end(), read->begin(), read->end());
  }
  {
    auto writer = adept::WalWriter::Open(dir + "/reappend.wal");
    if (!writer.ok()) return run.Fail("WAL writer: " + writer.status().ToString());
    for (const adept::JsonValue& record : records) {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span(tracer, "storage.wal_append");
      const uint64_t lsn = (*writer)->Enqueue(record);
      if (!(*writer)->WaitDurable(lsn).ok()) return run.Fail("WAL re-append failed");
      append_us.Add(SecondsSince(t0) * 1e6);
    }
  }
  const Clock::time_point checkpoint_t0 = Clock::now();
  Status saved = [&] {
    ScopedSpan span(tracer, "storage.checkpoint");
    return (*wal)->SaveSnapshot();
  }();
  const double checkpoint_ms = SecondsSince(checkpoint_t0) * 1e3;
  if (!saved.ok()) return run.Fail("checkpoint: " + saved.ToString());
  wal->reset();

  auto repl = StartDeployment(dir + "/repl", run.config.seed);
  if (!repl.ok()) return run.Fail("replicated twin: " + repl.status().ToString());
  Samples repl_us = Replay(run, *(*repl)->cluster, "twin.repl", tracer, true);
  (*repl)->Stop();
  std::filesystem::remove_all(dir);

  out.emplace_back("cluster.submit_batch_us", repl_us.Median(), "us");
  out.emplace_back("storage.wal_append_us", append_us.Median(), "us");
  out.emplace_back("storage.wal_decode_us", decode_us.Median(), "us");
  out.emplace_back("storage.checkpoint_ms", checkpoint_ms, "ms");
  out.emplace_back("storage.commit_overhead_us",
                   wal_us.Median() - memory_us.Median(), "us");
  out.emplace_back("repl.commit_overhead_us",
                   repl_us.Median() - wal_us.Median(), "us");
  std::printf("layer: twin SubmitBatch medians over %zu batches: memory %.1f us, "
              "wal %.1f us, replicated %.1f us; %zu records re-appended\n",
              repl_us.size(), memory_us.Median(), wal_us.Median(),
              repl_us.Median(), records.size());
}

LayerMetrics LayerReport(Run& run, Tracer& tracer) {
  LayerMetrics out;
  CommitProbe(run, &tracer, out);
  RuntimeProbe(run, &tracer, out);
  ChangeProbe(run, &tracer, out);

  const std::map<std::string, Samples> self = tracer.SelfTimesUs();
  auto self_median = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.Median();
  };
  Samples all_queries;
  for (const auto& [name, samples] : run.query_class_us) all_queries.Append(samples);
  out.emplace_back("cluster.client_retry_rounds",
                   static_cast<double>(run.retry_rounds), "count");
  out.emplace_back("query.exec_us", all_queries.Median(), "us");
  for (const char* cls : kQuerySpan) {
    auto it = run.query_class_us.find(cls);
    out.emplace_back(std::string(cls) + "_us",
                     it == run.query_class_us.end() ? 0.0 : it->second.Median(),
                     "us");
  }
  out.emplace_back("query.evaluated_per_match",
                   run.query_evaluated / std::max(run.query_matches, 1.0),
                   "ratio");
  std::printf("layer: query.evaluated_per_match base: %.0f snapshots evaluated "
              "for %.0f matches\n",
              run.query_evaluated, run.query_matches);
  out.emplace_back("storage.wal_bytes_per_op",
                   run.wal_bytes / std::max(run.acked_writes, 1.0), "B/op");
  out.emplace_back("repl.ack_lag_lsn", run.ack_lag.Median(), "lsn");
  out.emplace_back("worklist.offers_us", self_median("worklist.offers"), "us");
  out.emplace_back("worklist.claim_us", self_median("worklist.claim"), "us");
  out.emplace_back("worklist.complete_us", self_median("worklist.complete"), "us");
  out.emplace_back("worklist.offers_per_call",
                   static_cast<double>(run.offers_items) /
                       static_cast<double>(std::max<uint64_t>(run.offers_calls, 1)),
                   "ratio");
  out.emplace_back("worklist.claim_lost_per_claim",
                   static_cast<double>(run.claims_lost) /
                       static_cast<double>(std::max<uint64_t>(run.claims, 1)),
                   "ratio");
  const double untraced = run.op_ms_untraced.Median();
  out.emplace_back("trace.overhead_pct",
                   untraced > 0 ? (run.op_ms_traced.Median() / untraced - 1) * 100
                                : 0.0,
                   "%");
  return out;
}

// --- Figures ---------------------------------------------------------------------------

Samples ValuesOf(const std::vector<Timed>& timed) {
  Samples values;
  for (const Timed& t : timed) values.Add(t.value);
  return values;
}

// Units of work per second over the given work intervals.
double Rate(const std::vector<Timed>& work) {
  double units = 0, ns = 0;
  for (const Timed& t : work) {
    units += t.value;
    ns += static_cast<double>(t.t1_ns - t.t0_ns);
  }
  return ns > 0 ? units / (ns * 1e-9) : 0;
}

// The samples a figure is taken over: those during which, and one steal
// reading to either side of which, the host stole at most kCleanSteal of its
// CPU time (a stolen burst leaves queues behind it) or, when these carry
// less than a tenth of the weight, the tenth of the weight that ran with the
// least steal, and never fewer than three samples. The choice looks at the
// host only, never at the sample's own value. A sample weighs 1, a work
// interval (`by_length`) its length.
std::vector<Timed> Cleanest(const std::vector<Timed>& all,
                            const StealMonitor& steal, bool by_length) {
  auto weight = [&](const Timed& t) {
    return by_length ? static_cast<double>(t.t1_ns - t.t0_ns) : 1.0;
  };
  std::vector<std::pair<double, const Timed*>> ranked;
  double total = 0, clean = 0;
  for (const Timed& t : all) {
    constexpr int64_t kMarginNs = int64_t{kStealPeriodMs} * 1'000'000;
    const double share = steal.Share(t.t0_ns - kMarginNs, t.t1_ns + kMarginNs);
    ranked.emplace_back(share, &t);
    total += weight(t);
    if (share <= kCleanSteal) clean += weight(t);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const bool enough_clean = clean >= total / 10;
  std::vector<Timed> chosen;
  double taken = 0;
  for (const auto& [share, t] : ranked) {
    if (chosen.size() >= 3 &&
        (enough_clean ? share > kCleanSteal : taken >= total / 10)) {
      break;
    }
    chosen.push_back(*t);
    taken += weight(*t);
  }
  return chosen;
}

// --- Output ----------------------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// All samples of a timing, and the clean ones the figures are taken over.
void PrintTiming(const char* name, const Samples& all, const Samples& clean) {
  const auto [p, tail] = all.Tail();
  const auto [clean_p, clean_tail] = clean.Tail();
  std::printf("timing: %s n=%zu p50=%.4f tail=p%g:%.4f clean_n=%zu "
              "clean_p50=%.4f clean_tail=p%g:%.4f\n",
              name, all.size(), all.Median(), p, tail, clean.size(),
              clean.Median(), clean_p, clean_tail);
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::stoull(value);
    else if (flag == "--seconds") config.seconds = std::stod(value);
    else if (flag == "--trace") config.trace = value == "1";
    else if (flag == "--data-dir") config.data_dir = value;
    else if (flag == "--spans") config.spans_path = value;
  }
  std::function<void(Run&, const std::string&)> round_fn;
  if (config.workload == "adapt_migrate") round_fn = AdaptMigrateRound;
  if (config.workload == "worklist_monitor") round_fn = WorklistMonitorRound;
  if (!round_fn || config.data_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload adapt_migrate|worklist_monitor "
                 "--seed N --seconds S --trace 0|1 "
                 "--data-dir DIR [--spans FILE]\n");
    return 2;
  }
  adept::SetLogLevel(adept::LogLevel::kError);

  Run run;
  run.config = config;
  Tracer tracer;
  StealMonitor steal;
  // Several set-ups per run so setup_s is a median; a traced run alternates
  // untraced and traced rounds so their difference is the tracing overhead.
  //
  // Host interference comes in bursts: CPU steal moves between 0 and 30 %
  // within minutes on the development VM, in spikes of a fraction of a
  // second, and every hand-off of the commit path waits on a preempted vCPU,
  // so 15-20 % steal doubles the median commit latency. A slower program
  // slows every sample. So each figure is taken over the samples during
  // which the host stole at most kCleanSteal of its CPU time (see
  // Cleanest), and rounds continue until their clean share holds --seconds
  // of work, twice that has been worked or kWallBudgetS has passed.
  const int min_rounds = config.trace ? 6 : 5;
  const Clock::time_point wall_t0 = Clock::now();
  int rounds = 0;
  double clean_s = 0;
  while (rounds < min_rounds ||
         (clean_s < config.seconds && run.measured_s < 2 * config.seconds &&
          SecondsSince(wall_t0) < kWallBudgetS)) {
    const bool traced = config.trace && rounds % 2 == 1;
    run.tracer = traced ? &tracer : nullptr;
    run.recording = traced && run.stream.empty();
    const size_t op_before = run.op_ms.size(), mix_before = run.mix_ms.size();
    const size_t work_before = run.work.size();
    const double measured_before = run.measured_s;
    const int64_t round_t0 = NanosOf(Clock::now());
    round_fn(run, config.data_dir + "/round" + std::to_string(rounds));
    // Hand the round's freed heap back, so that peak_rss_mb is the largest
    // round's footprint and does not grow with the number of rounds.
    malloc_trim(0);
    steal.Sample();
    const double round_steal = steal.Share(round_t0, NanosOf(Clock::now()));
    ++rounds;
    if (run.failed()) break;
    const std::vector<Timed> round_op(run.op_ms.begin() + op_before,
                                      run.op_ms.end());
    const std::vector<Timed> round_mix(run.mix_ms.begin() + mix_before,
                                       run.mix_ms.end());
    const std::vector<Timed> round_work(run.work.begin() + work_before,
                                        run.work.end());
    const Samples op = ValuesOf(round_op), mix = ValuesOf(round_mix);
    (traced ? run.op_ms_traced : run.op_ms_untraced).Append(op);
    size_t clean_ops = 0;
    for (const Timed& t : round_op) {
      clean_ops += steal.Share(t.t0_ns, t.t1_ns) <= kCleanSteal ? 1 : 0;
    }
    const double clean_share = static_cast<double>(clean_ops) /
                               static_cast<double>(std::max<size_t>(round_op.size(), 1));
    clean_s += (run.measured_s - measured_before) * clean_share;
    std::printf("round: %d ops_per_s=%.1f op_n=%zu op_p50_ms=%.4f "
                "op_p90_ms=%.4f mix_n=%zu query_mix_p50_ms=%.4f "
                "query_mix_p90_ms=%.4f steal=%.4f clean_share=%.3f\n",
                rounds - 1, Rate(round_work), op.size(), op.Median(),
                op.Percentile(90), mix.size(), mix.Median(), mix.Percentile(90),
                round_steal, clean_share);
  }
  run.tracer = nullptr;
  steal.Sample();

  const Samples op = ValuesOf(Cleanest(run.op_ms, steal, false));
  const Samples mix = ValuesOf(Cleanest(run.mix_ms, steal, false));
  const Samples setup = ValuesOf(Cleanest(run.setup_s, steal, false));
  const Samples recover = ValuesOf(Cleanest(run.recover_s, steal, false));
  const double rate = Rate(Cleanest(run.work, steal, true));
  std::printf("run: workload=%s seed=%" PRIu64 " rounds=%d measured_s=%.3f "
              "clean_s=%.3f build=%s\n",
              config.workload.c_str(), config.seed, rounds, run.measured_s,
              clean_s, ADEPT_BUILD_TYPE);
  PrintTiming("setup_s", ValuesOf(run.setup_s), setup);
  PrintTiming("op_ms", ValuesOf(run.op_ms), op);
  PrintTiming("query_mix_ms", ValuesOf(run.mix_ms), mix);
  PrintTiming("recover_s", ValuesOf(run.recover_s), recover);
  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : run.ops) {
    std::printf("ops: %s attempted=%" PRIu64 " failed=%" PRIu64 "\n", kind.c_str(),
                c.attempted, c.failed);
    attempted += c.attempted;
    failed += c.failed;
  }

  LayerMetrics metrics;
  if (config.trace) {
    if (!run.failed()) metrics = LayerReport(run, tracer);
    if (!config.spans_path.empty()) {
      run.Check(tracer.WriteJson(config.spans_path),
                "cannot write spans to " + config.spans_path);
      std::printf("spans: %zu written to %s\n", tracer.size(),
                  config.spans_path.c_str());
    }
  } else {
    metrics = {
        {"setup_s", setup.Median(), "s"},
        {"ops_per_s", rate, "ops/s"},
        {"op_p50_ms", op.Median(), "ms"},
        {"op_p90_ms", op.Percentile(90), "ms"},
        {"query_mix_p50_ms", mix.Median(), "ms"},
        {"query_mix_p90_ms", mix.Percentile(90), "ms"},
        {"recover_s", recover.Median(), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  for (const auto& f : run.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  for (const auto& [name, value, unit] : metrics) {
    std::printf("metric: %s = %s %s\n", name.c_str(), Json(value).c_str(),
                unit.c_str());
  }
  std::filesystem::remove_all(config.data_dir);

  const bool correct = run.failures.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + Json(value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
