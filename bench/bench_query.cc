// Query-engine benchmarks (BENCH_query.json in CI).
//
//   BM_QueryIndexed          AdeptApi::Query with the snapshot-maintained
//                            secondary indexes: an exact-value data probe
//                            at 1k/10k/100k instances x 0.1%/1%/10%
//                            selectivity. Lock-free; takes no shard mutex.
//   BM_QueryScan             the same predicate as a full unindexed scan
//                            over the published snapshots (the
//                            ForEachSnapshot-style sweep every consumer
//                            ran before the query engine existed)
//   BM_QueryIntersectSkewed  AdeptCluster::Query of a two-conjunct
//                            predicate on a 2-shard cluster of 10k
//                            instances: one conjunct matches ~95 % of
//                            them, the other ~10 %. The planner draws
//                            candidates from the small set and narrows
//                            them by the large one
//   BM_QueryIndexMaintenance BM_ClusterBatchThroughput's write workload
//                            with indexes disabled (Arg 0) vs enabled
//                            (Arg 1) — the price of index deltas on the
//                            mutation path
//
// Expected shape: indexed selective queries are orders of magnitude
// faster than scans at 100k instances (the candidate set is the probe's
// posting list, not the population), and index maintenance costs a few
// percent of batch throughput.
//
// Emit machine-readable results:
//   ./build/bench_query --benchmark_format=json

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/adept_cluster.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "query/query.h"

namespace adept {
namespace {

// intake writes three int cohort keys (i % 1000 / % 100 / % 10), then the
// instance parks on "work" — the population stays running, so the state
// index never collapses the candidate sets under test.
std::shared_ptr<const ProcessSchema> TaggedSchema() {
  SchemaBuilder b("tagged", 1);
  DataId priority = b.Data("priority", DataType::kInt);
  DataId cohort = b.Data("cohort", DataType::kInt);
  DataId bucket = b.Data("bucket", DataType::kInt);
  NodeId intake = b.Activity("intake");
  b.Writes(intake, priority);
  b.Writes(intake, cohort);
  b.Writes(intake, bucket);
  b.Activity("work");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

// One population per size, shared across the indexed and scan benchmarks
// (building 100k instances is far more expensive than measuring them).
AdeptSystem* PopulatedSystem(int64_t population) {
  static std::map<int64_t, std::unique_ptr<AdeptSystem>> cache;
  auto it = cache.find(population);
  if (it != cache.end()) return it->second.get();

  auto system = AdeptSystem::Create();
  if (!system.ok()) return nullptr;
  auto schema = TaggedSchema();
  if (schema == nullptr || !(*system)->DeployProcessType(schema).ok()) {
    return nullptr;
  }
  NodeId intake = schema->FindNodeByName("intake");
  DataId priority = schema->FindDataByName("priority");
  DataId cohort = schema->FindDataByName("cohort");
  DataId bucket = schema->FindDataByName("bucket");
  for (int64_t i = 0; i < population; ++i) {
    auto id = (*system)->CreateInstance("tagged");
    if (!id.ok()) return nullptr;
    if (!(*system)->StartActivity(*id, intake).ok()) return nullptr;
    if (!(*system)
             ->CompleteActivity(*id, intake,
                                {{priority, DataValue::Int(i % 1000)},
                                 {cohort, DataValue::Int(i % 100)},
                                 {bucket, DataValue::Int(i % 10)}})
             .ok()) {
      return nullptr;
    }
  }
  AdeptSystem* raw = system->get();
  cache[population] = std::move(*system);
  return raw;
}

// range(1) selects the selectivity tier: the same key value (7) against
// the % 1000 / % 100 / % 10 cohort keys.
const char* kSelectivityQuery[] = {
    "data.priority == 7",  // 0.1%
    "data.cohort == 7",    // 1%
    "data.bucket == 7",    // 10%
};
const double kSelectivityPct[] = {0.1, 1.0, 10.0};

void BM_QueryIndexed(benchmark::State& state) {
  AdeptSystem* system = PopulatedSystem(state.range(0));
  if (system == nullptr) {
    state.SkipWithError("population setup failed");
    return;
  }
  const std::string query = kSelectivityQuery[state.range(1)];
  size_t matches = 0;
  for (auto _ : state) {
    auto result = system->Query(query);
    benchmark::DoNotOptimize(result);
    if (result.ok()) matches = result->size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["population"] = static_cast<double>(state.range(0));
  state.counters["selectivity_pct"] = kSelectivityPct[state.range(1)];
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_QueryIndexed)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

void BM_QueryScan(benchmark::State& state) {
  AdeptSystem* system = PopulatedSystem(state.range(0));
  if (system == nullptr) {
    state.SkipWithError("population setup failed");
    return;
  }
  const std::string query = kSelectivityQuery[state.range(1)];
  size_t matches = 0;
  for (auto _ : state) {
    // Compile inside the loop for symmetry with Query(); passing no index
    // forces the full sweep over every published snapshot.
    auto compiled = CompiledQuery::Compile(query);
    if (!compiled.ok()) {
      state.SkipWithError("compile failed");
      return;
    }
    QueryResult result = RunQuery(*compiled, system->snapshots(), nullptr);
    benchmark::DoNotOptimize(result.snapshots.data());
    matches = result.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["population"] = static_cast<double>(state.range(0));
  state.counters["selectivity_pct"] = kSelectivityPct[state.range(1)];
  state.counters["matches"] = static_cast<double>(matches);
}
BENCHMARK(BM_QueryScan)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// --- Skewed two-index intersection on a cluster ------------------------------

constexpr int kSkewedPopulation = 10000;

// intake writes `open` (false when i % 20 == 7) and `bucket` (i % 10),
// then the instance parks on "work": `data.open == true` holds for 95 %,
// `data.bucket == 7` for 10 %, and both for 5 %.
AdeptCluster* SkewedCluster() {
  static std::unique_ptr<AdeptCluster> cluster = [] {
    std::unique_ptr<AdeptCluster> none;
    auto created = AdeptCluster::Create({.shards = 2});
    if (!created.ok()) return none;
    SchemaBuilder b("skewed", 1);
    DataId open = b.Data("open", DataType::kBool);
    DataId bucket = b.Data("bucket", DataType::kInt);
    NodeId intake = b.Activity("intake");
    b.Writes(intake, open);
    b.Writes(intake, bucket);
    b.Activity("work");
    auto schema = b.Build();
    if (!schema.ok() || !(*created)->DeployProcessType(*schema).ok()) {
      return none;
    }
    for (int i = 0; i < kSkewedPopulation; ++i) {
      auto id = (*created)->CreateInstance("skewed");
      if (!id.ok() || !(*created)->StartActivity(*id, intake).ok() ||
          !(*created)
               ->CompleteActivity(*id, intake,
                                  {{open, DataValue::Bool(i % 20 != 7)},
                                   {bucket, DataValue::Int(i % 10)}})
               .ok()) {
        return none;
      }
    }
    return std::move(*created);
  }();
  return cluster.get();
}

void BM_QueryIntersectSkewed(benchmark::State& state) {
  AdeptCluster* cluster = SkewedCluster();
  if (cluster == nullptr) {
    state.SkipWithError("population setup failed");
    return;
  }
  size_t matches = 0;
  size_t evaluated = 0;
  for (auto _ : state) {
    auto result = cluster->Query("data.open == true && data.bucket == 7");
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      matches = result->size();
      evaluated = result->evaluated;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["population"] = kSkewedPopulation;
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["evaluated"] = static_cast<double>(evaluated);
}
BENCHMARK(BM_QueryIntersectSkewed)->Unit(benchmark::kMicrosecond);

// --- Index maintenance overhead on the write path ----------------------------

constexpr int kWritePopulation = 256;

// BM_ClusterBatchThroughput's workload (bench_cluster_scaling.cc) with the
// query indexes toggled: every DriveStep publishes a snapshot, and with
// Arg(1) each publication also applies its delta to six index families.
void BM_QueryIndexMaintenance(benchmark::State& state) {
  const bool indexes = state.range(0) != 0;
  ClusterOptions options;
  options.shards = 4;
  options.driver.seed = 42;
  options.query_indexes = indexes;
  auto cluster = AdeptCluster::Create(options);
  if (!cluster.ok()) {
    state.SkipWithError("cluster setup failed");
    return;
  }
  auto schema = bench::ScaledSchema(48, /*seed=*/7, "scaled_cluster");
  if (!(*cluster)->DeployProcessType(schema).ok()) {
    state.SkipWithError("deploy failed");
    return;
  }
  std::vector<InstanceId> ids;
  std::vector<AdeptCluster::BatchOp> creates(
      kWritePopulation, AdeptCluster::BatchOp::Create("scaled_cluster"));
  for (const auto& result : (*cluster)->SubmitBatch(creates)) {
    if (!result.status.ok()) {
      state.SkipWithError("population setup failed");
      return;
    }
    ids.push_back(result.id);
  }

  size_t executed = 0;
  std::vector<AdeptCluster::BatchOp> batch;
  for (auto _ : state) {
    batch.clear();
    for (InstanceId id : ids) {
      batch.push_back(AdeptCluster::BatchOp::DriveStep(id));
    }
    auto results = (*cluster)->SubmitBatch(batch);
    benchmark::DoNotOptimize(results.data());
    executed += results.size();

    state.PauseTiming();
    for (InstanceId& id : ids) {
      auto snapshot = (*cluster)->SnapshotOf(id);
      if (snapshot != nullptr && !snapshot->finished) continue;
      auto fresh = (*cluster)->CreateInstance("scaled_cluster");
      if (fresh.ok()) id = *fresh;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(executed));
  state.counters["indexes"] = indexes ? 1 : 0;
  state.counters["population"] = kWritePopulation;
}
BENCHMARK(BM_QueryIndexMaintenance)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace adept

BENCHMARK_MAIN();
