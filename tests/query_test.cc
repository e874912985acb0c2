// Tests for the process query engine (src/query/): parser round-trips
// and error spans, the typed comparison semantics, index-vs-scan
// equivalence on randomized populations, the unified read-side consumers
// (Monitor::RenderMatching, WorklistService::OffersFor with a predicate),
// index rebuild through Recover(), and an index-consistency stress run
// with queries racing writers, a migration, and a live Resize(2 -> 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "change/change_op.h"
#include "cluster/adept_cluster.h"
#include "core/adept.h"
#include "model/schema_builder.h"
#include "monitor/monitor.h"
#include "query/query.h"
#include "query/query_parser.h"
#include "tests/test_fixtures.h"
#include "worklist/worklist_service.h"

namespace adept {
namespace {

using testing_fixtures::ComplexSchema;
using testing_fixtures::SchemaPtr;
using testing_fixtures::SequenceSchema;

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("adept_query_test_" + std::to_string(counter_++));
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

std::vector<uint64_t> Ids(const QueryResult& result) {
  std::vector<uint64_t> ids;
  ids.reserve(result.size());
  for (const auto& snapshot : result) ids.push_back(snapshot->id.value());
  return ids;
}

// --- Parser ------------------------------------------------------------------

TEST(QueryParserTest, RoundTripThroughCanonicalForm) {
  const char* kQueries[] = {
      "state == running && data.priority >= 3",
      "(type == \"online_order\" || biased) && !activated(\"pack goods\")",
      "not (id < 10 or id > 100) and has(\"score\")",
      "data.name == \"a\\\"b\\n\"",
      "data.score > 2.5 || data.score <= -1.0",
      "trace_length > 0 && completed_total >= 2 && version >= 1",
      "schema == 1 && schema_version != 2",
      "true || false && running(\"check\")",
      "activated_since(\"resolve\", 12) && state == running",
      "biased",
      "id == 42",
  };
  for (const char* text : kQueries) {
    auto first = query::Parse(text);
    ASSERT_TRUE(first.ok()) << text << ": " << first.status();
    std::string canonical = (*first)->ToString();
    auto second = query::Parse(canonical);
    ASSERT_TRUE(second.ok())
        << "canonical form failed to re-parse: " << canonical << ": "
        << second.status();
    // Canonicalization is a fixpoint: printing the re-parse reproduces
    // the canonical spelling exactly.
    EXPECT_EQ(canonical, (*second)->ToString()) << "for input " << text;
  }
}

TEST(QueryParserTest, ErrorsCarryOffsetAndCaretSpan) {
  struct Case {
    const char* text;
    const char* expect;  // substring of the error message
  };
  const Case kCases[] = {
      {"state ==", "offset"},
      {"data.", "offset"},
      {"bogus == 3", "unknown field"},
      {"state == 7", "state compares against"},
      {"(id == 1", "offset"},
      {"\"unterminated", "unterminated string"},
      {"id @ 3", "unexpected character"},
      {"id == 1 extra", "offset"},
      {"activated(5)", "offset"},
      {"activated_since(\"a\")", "expected ','"},
      {"activated_since(\"a\", \"b\")", "integer sequence bound"},
      {"", "offset"},
  };
  for (const Case& c : kCases) {
    auto parsed = query::Parse(c.text);
    ASSERT_FALSE(parsed.ok()) << "accepted malformed query: " << c.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(c.expect), std::string::npos)
        << "message for '" << c.text
        << "' missing '" << c.expect << "': " << parsed.status().message();
    // Every error carries the caret line pointing into the query text.
    EXPECT_NE(parsed.status().message().find('^'), std::string::npos)
        << parsed.status().message();
  }
}

// --- Typed comparison semantics ---------------------------------------------

// triage writes priority:int, urgent:bool, owner:string, score:double;
// resolve follows.
SchemaPtr TicketSchema() {
  SchemaBuilder b("ticket", 1);
  DataId priority = b.Data("priority", DataType::kInt);
  DataId urgent = b.Data("urgent", DataType::kBool);
  DataId owner = b.Data("owner", DataType::kString);
  DataId score = b.Data("score", DataType::kDouble);
  NodeId triage = b.Activity("triage");
  b.Writes(triage, priority);
  b.Writes(triage, urgent);
  b.Writes(triage, owner);
  b.Writes(triage, score);
  b.Activity("resolve");
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

class TypedSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto system = AdeptSystem::Create();
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    auto schema = TicketSchema();
    ASSERT_NE(schema, nullptr);
    ASSERT_TRUE(system_->DeployProcessType(schema).ok());
    auto id = system_->CreateInstance("ticket");
    ASSERT_TRUE(id.ok());
    id_ = *id;
    NodeId triage = schema->FindNodeByName("triage");
    ASSERT_TRUE(system_->StartActivity(id_, triage).ok());
    ASSERT_TRUE(system_
                    ->CompleteActivity(
                        id_, triage,
                        {{schema->FindDataByName("priority"),
                          DataValue::Int(3)},
                         {schema->FindDataByName("urgent"),
                          DataValue::Bool(true)},
                         {schema->FindDataByName("owner"),
                          DataValue::String("kim")},
                         {schema->FindDataByName("score"),
                          DataValue::Double(2.5)}})
                    .ok());
    // A second instance that never ran triage: every data field missing.
    auto blank = system_->CreateInstance("ticket");
    ASSERT_TRUE(blank.ok());
    blank_ = *blank;
  }

  bool Matches(const std::string& text, InstanceId id) {
    auto result = system_->Query(text);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status();
    if (!result.ok()) return false;
    auto ids = Ids(*result);
    return std::find(ids.begin(), ids.end(), id.value()) != ids.end();
  }

  std::unique_ptr<AdeptSystem> system_;
  InstanceId id_;
  InstanceId blank_;
};

TEST_F(TypedSemanticsTest, EqualityIsTypeStrict) {
  EXPECT_TRUE(Matches("data.priority == 3", id_));
  // Int field never equals (or un-equals) a string/bool literal: the
  // comparison is simply false on a type mismatch, for == and != alike.
  EXPECT_FALSE(Matches("data.priority == \"3\"", id_));
  EXPECT_FALSE(Matches("data.priority != \"3\"", id_));
  EXPECT_TRUE(Matches("data.urgent == true", id_));
  EXPECT_FALSE(Matches("data.urgent == 1", id_));
  EXPECT_TRUE(Matches("data.owner == kim", id_));  // bare-string shorthand
  EXPECT_FALSE(Matches("data.owner == Kim", id_));
}

TEST_F(TypedSemanticsTest, MissingFieldsNeverMatch) {
  // `blank_` never wrote any data element: ==, !=, and orderings are all
  // false against a missing field — != reads "present and different".
  EXPECT_FALSE(Matches("data.priority == 3", blank_));
  EXPECT_FALSE(Matches("data.priority != 3", blank_));
  EXPECT_FALSE(Matches("data.priority < 3", blank_));
  EXPECT_FALSE(Matches("has(\"priority\")", blank_));
  EXPECT_TRUE(Matches("has(\"priority\")", id_));
  // A data name unknown to the schema behaves like a missing field.
  EXPECT_FALSE(Matches("data.nonexistent == 1", id_));
}

TEST_F(TypedSemanticsTest, OrderingCoercesIntAndDouble) {
  EXPECT_TRUE(Matches("data.priority > 2.5", id_));   // 3 vs 2.5
  EXPECT_FALSE(Matches("data.priority > 3.5", id_));
  EXPECT_TRUE(Matches("data.score >= 2", id_));       // 2.5 vs 2
  EXPECT_TRUE(Matches("data.score < 3", id_));
  // Strings order lexicographically; bools never order.
  EXPECT_TRUE(Matches("data.owner < \"zed\"", id_));
  EXPECT_FALSE(Matches("data.urgent < true", id_));
  EXPECT_FALSE(Matches("data.urgent <= true", id_));
}

TEST_F(TypedSemanticsTest, StateAndStructuralFields) {
  // CreateInstance starts the flow, so facade-created instances are
  // already rank "running"; "created" only matches pre-start snapshots.
  EXPECT_TRUE(Matches("state == running", id_));
  EXPECT_FALSE(Matches("state == created", blank_));
  EXPECT_TRUE(Matches("state == running", blank_));
  EXPECT_TRUE(Matches("state != finished", id_));
  // Ordering is by lifecycle rank (created < running < finished), not by
  // the names' lexicographic order.
  EXPECT_TRUE(Matches("state < finished", id_));
  EXPECT_TRUE(Matches("state > created", id_));
  EXPECT_FALSE(Matches("state >= finished", id_));
  EXPECT_TRUE(Matches("activated(\"resolve\")", id_));
  EXPECT_FALSE(Matches("activated(\"resolve\")", blank_));
  EXPECT_TRUE(Matches("type == ticket && schema_version == 1", id_));
  EXPECT_TRUE(Matches("trace_length >= 2 && completed_total == 1", id_));
  EXPECT_TRUE(Matches("id == " + std::to_string(id_.value()), id_));
  EXPECT_FALSE(Matches("biased", id_));
}

TEST_F(TypedSemanticsTest, ActivatedSinceComparesLogicalStamps) {
  // id_ completed triage, so "resolve" is activated and carries the
  // logical stamp of the moment it entered kActivated. Read the stamp off
  // the snapshot rather than hard-coding the trace layout.
  auto snapshot = system_->SnapshotOf(id_);
  ASSERT_NE(snapshot, nullptr);
  NodeId resolve = snapshot->schema->FindNodeByName("resolve");
  const int64_t* stamp = snapshot->activated_since.Find(resolve);
  ASSERT_NE(stamp, nullptr);
  ASSERT_GT(*stamp, 0);

  const std::string at = std::to_string(*stamp);
  const std::string before = std::to_string(*stamp - 1);
  // "activated at or before sequence k and still pending".
  EXPECT_TRUE(Matches("activated_since(\"resolve\", " + at + ")", id_));
  EXPECT_FALSE(Matches("activated_since(\"resolve\", " + before + ")", id_));
  EXPECT_TRUE(Matches("activated_since(\"resolve\", 1000000)", id_));
  // blank_ never ran triage: "triage" itself is the long-pending node.
  EXPECT_TRUE(Matches("activated_since(\"triage\", 1000000)", blank_));
  EXPECT_FALSE(Matches("activated_since(\"triage\", 1000000)", id_))
      << "a completed node must drop out of the activated-since family";
  // Unknown names never match.
  EXPECT_FALSE(Matches("activated_since(\"nonexistent\", 1000000)", id_));

  // The planner routes the predicate through the activated-node index;
  // the indexed answer must equal the unindexed scan.
  auto indexed = system_->Query("activated_since(\"resolve\", " + at + ")");
  ASSERT_TRUE(indexed.ok());
  EXPECT_TRUE(indexed->used_index);
  auto compiled = CompiledQuery::Compile("activated_since(\"resolve\", " +
                                         at + ")");
  ASSERT_TRUE(compiled.ok());
  QueryResult scan = RunQuery(*compiled, system_->snapshots(), nullptr);
  EXPECT_EQ(Ids(*indexed), Ids(scan));
}

// --- Index vs scan equivalence ----------------------------------------------

TEST(QueryIndexTest, IndexAndScanAgreeOnRandomizedPopulation) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& sys = **system;
  auto schema = ComplexSchema();
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE(sys.DeployProcessType(schema).ok());

  std::mt19937 rng(42);
  SimulationDriver driver({.seed = 7, .loop_continue_probability = 0.4});
  constexpr int kPopulation = 48;
  for (int i = 0; i < kPopulation; ++i) {
    auto id = sys.CreateInstance("complex");
    ASSERT_TRUE(id.ok());
    int steps = static_cast<int>(rng() % 14);
    for (int s = 0; s < steps; ++s) {
      auto stepped = sys.DriveStep(*id, driver);
      if (!stepped.ok() || !*stepped) break;
    }
  }

  const char* kQueries[] = {
      "state == running",
      "state == finished",
      "state == created",
      "data.route == 1",
      "data.amount > 0.5",
      "has(\"redo\")",
      "trace_length > 4 && state == running",
      "running(\"loop work\") || activated(\"archive\")",
      "activated(\"intake\")",
      "biased == false",
      "completed_total >= 3",
      "id <= 10",
      "version >= 2",
      "type == complex && schema_version == 1",
      "!(state == finished) && !activated(\"intake\")",
      "activated_since(\"loop work\", 6)",
      "activated_since(\"archive\", 100) || running(\"intake\")",
      "true",
  };
  for (const char* text : kQueries) {
    auto indexed = sys.Query(text);
    ASSERT_TRUE(indexed.ok()) << text << ": " << indexed.status();
    auto compiled = CompiledQuery::Compile(text);
    ASSERT_TRUE(compiled.ok());
    QueryResult scan = RunQuery(*compiled, sys.snapshots(), nullptr);
    EXPECT_FALSE(scan.used_index);
    EXPECT_EQ(Ids(*indexed), Ids(scan)) << "divergence on: " << text;
  }

  // A selective indexed probe touches a fraction of the population.
  auto selective = sys.Query("id == 17");
  ASSERT_TRUE(selective.ok());
  EXPECT_TRUE(selective->used_index);
  EXPECT_LE(selective->evaluated, 1u);
  // More than half of this population finished, so the state set covers
  // more than half the table and the planner scans instead of probing.
  auto by_state = sys.Query("state == finished");
  ASSERT_TRUE(by_state.ok());
  ASSERT_GT(by_state->size() * 2, static_cast<size_t>(kPopulation));
  EXPECT_FALSE(by_state->used_index);
  EXPECT_EQ(by_state->evaluated, static_cast<size_t>(kPopulation));
}

// Two indexable conjuncts: the planner draws candidates from the smaller
// id set and narrows them by the larger before fetching snapshots, so the
// expensive re-validation runs only on ids both indexes agree on — and
// the result stays exactly scan-equivalent.
TEST(QueryIndexTest, TwoConjunctIntersectionMatchesScanAndEvaluatesFewer) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& sys = **system;
  auto schema = ComplexSchema();
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE(sys.DeployProcessType(schema).ok());

  std::mt19937 rng(1234);
  SimulationDriver driver({.seed = 9, .loop_continue_probability = 0.4});
  for (int i = 0; i < 60; ++i) {
    auto id = sys.CreateInstance("complex");
    ASSERT_TRUE(id.ok());
    int steps = static_cast<int>(rng() % 12);
    for (int s = 0; s < steps; ++s) {
      auto stepped = sys.DriveStep(*id, driver);
      if (!stepped.ok() || !*stepped) break;
    }
  }

  // The plan the cardinality rule picks on this population, as index
  // probes: 2 when the smaller set is narrowed by the larger, 1 when the
  // smaller set is empty (no instance has route 2, none is unstarted, no
  // amount is 0.25) and answers alone, 0 when both sets cover more than
  // half the table and the planner scans.
  struct Case {
    const char* text;
    int probes;
  };
  const Case kIntersections[] = {
      {"data.route == 1 && state == running", 2},
      {"state == finished && data.route == 2", 1},
      {"data.amount == 0.25 && state == created", 1},
      {"version >= 2 && state == running", 0},
      {"activated(\"intake\") && data.route == 1", 2},
  };
  for (const Case& c : kIntersections) {
    const char* text = c.text;
    auto indexed = sys.Query(text);
    ASSERT_TRUE(indexed.ok()) << text << ": " << indexed.status();
    EXPECT_EQ(indexed->used_index, c.probes > 0) << text;
    EXPECT_EQ(indexed->index_probes, c.probes) << text;
    auto compiled = CompiledQuery::Compile(text);
    ASSERT_TRUE(compiled.ok());
    QueryResult scan = RunQuery(*compiled, sys.snapshots(), nullptr);
    EXPECT_EQ(scan.index_probes, 0);
    EXPECT_EQ(Ids(*indexed), Ids(scan)) << "divergence on: " << text;
    // The intersection can never evaluate more candidates than either
    // single-probe plan would have.
    for (const char* part : {"state == running", "state == finished",
                             "state == created"}) {
      if (std::string(text).find(part) == std::string::npos) continue;
      auto single = sys.Query(part);
      ASSERT_TRUE(single.ok());
      // Quiesced, a state set holds exactly the matches: the planner
      // scans when they are more than half of the 60 instances.
      EXPECT_EQ(single->index_probes, single->size() * 2 > 60 ? 0 : 1)
          << part;
      EXPECT_LE(indexed->evaluated, single->evaluated) << text;
    }
  }

  // A pair whose first (cheapest) probe has candidates runs both probes.
  auto paired = sys.Query("data.route == 1 && state == running");
  ASSERT_TRUE(paired.ok());
  EXPECT_EQ(paired->index_probes, 2);

  // Contradictory conjuncts: no instance has route 2, so the empty
  // smaller set answers alone and nothing is fetched or evaluated at all.
  auto none = sys.Query("data.route == 1 && data.route == 2");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->index_probes, 1);
  EXPECT_EQ(none->evaluated, 0u);
  EXPECT_TRUE(none->empty());
}

// --- Cardinality planning ---------------------------------------------------

// Inserts an activity between a2 and a3 of a SequenceSchema(4) instance
// that has not reached them, which marks the instance biased.
Status Bias(AdeptApi& api, const ProcessSchema& schema, InstanceId id) {
  Delta delta;
  NewActivitySpec spec;
  spec.name = "extra";
  delta.Add(std::make_unique<SerialInsertOp>(
      spec, schema.FindNodeByName("a2"), schema.FindNodeByName("a3")));
  return api.ApplyAdHocChange(id, std::move(delta));
}

// kPopulation instances, every kBiasEvery-th of them biased; the first
// biased one ran to completion, every other instance is still running.
class CardinalityPlanTest : public ::testing::Test {
 protected:
  static constexpr int kPopulation = 40;
  static constexpr int kBiasEvery = 8;
  static constexpr size_t kBiased = kPopulation / kBiasEvery;
  static constexpr size_t kRunningBiased = kBiased - 1;

  void SetUp() override {
    auto system = AdeptSystem::Create();
    ASSERT_TRUE(system.ok());
    system_ = std::move(*system);
    auto schema = SequenceSchema(4);
    ASSERT_TRUE(system_->DeployProcessType(schema).ok());
    for (int i = 0; i < kPopulation; ++i) {
      auto id = system_->CreateInstance("seq");
      ASSERT_TRUE(id.ok());
      if (i % kBiasEvery == 0) {
        ASSERT_TRUE(Bias(*system_, *schema, *id).ok());
      }
      if (i == 0) {
        SimulationDriver driver({.seed = 3});
        ASSERT_TRUE(system_->DriveToCompletion(*id, driver).ok());
      }
    }
  }

  QueryResult Scan(const std::string& text) {
    auto compiled = CompiledQuery::Compile(text);
    EXPECT_TRUE(compiled.ok()) << text;
    return RunQuery(*compiled, system_->snapshots(), nullptr);
  }

  std::unique_ptr<AdeptSystem> system_;
};

TEST_F(CardinalityPlanTest, SkewedPairDrawsFromTheSmallerSet) {
  // Nearly every instance runs, few are biased: the candidates are the
  // biased ids narrowed by the running set, whichever conjunct is written
  // first — so the finished biased instance is never fetched.
  auto forward = system_->Query("state == running && biased == true");
  auto reverse = system_->Query("biased == true && state == running");
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(Ids(*forward), Ids(Scan("state == running && biased == true")));
  EXPECT_EQ(forward->size(), kRunningBiased);
  for (const QueryResult* r : {&*forward, &*reverse}) {
    EXPECT_TRUE(r->used_index);
    EXPECT_EQ(r->index_probes, 2);
    EXPECT_EQ(r->evaluated, kRunningBiased);
  }
  EXPECT_EQ(forward->evaluated, reverse->evaluated);
  EXPECT_EQ(Ids(*forward), Ids(*reverse));
}

TEST_F(CardinalityPlanTest, ProbeCoveringMoreThanHalfTheTableScans) {
  auto running = system_->Query("state == running");
  ASSERT_TRUE(running.ok());
  EXPECT_FALSE(running->used_index);
  EXPECT_EQ(running->index_probes, 0);
  EXPECT_EQ(running->evaluated, static_cast<size_t>(kPopulation));
  EXPECT_EQ(Ids(*running), Ids(Scan("state == running")));
}

TEST_F(CardinalityPlanTest, EmptySmallestSetEvaluatesNothing) {
  // Every instance started: the `created` set is empty wherever it is
  // written.
  for (const char* text : {"state == created && biased == true",
                           "biased == true && state == created",
                           "state == running && state == created"}) {
    auto result = system_->Query(text);
    ASSERT_TRUE(result.ok()) << text;
    EXPECT_TRUE(result->empty()) << text;
    EXPECT_TRUE(result->used_index) << text;
    EXPECT_EQ(result->index_probes, 1) << text;
    EXPECT_EQ(result->evaluated, 0u) << text;
  }
}

TEST(QueryClusterTest, EveryPlanReturnsAscendingIdsAcrossFourShards) {
  constexpr int kPopulation = 64;
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  auto schema = SequenceSchema(4);
  ASSERT_TRUE((*cluster)->DeployProcessType(schema).ok());
  std::vector<InstanceId> created;
  for (int i = 0; i < kPopulation; ++i) {
    auto id = (*cluster)->CreateInstance("seq");
    ASSERT_TRUE(id.ok());
    created.push_back(*id);
    if (i % 7 == 0) {
      ASSERT_TRUE(Bias(**cluster, *schema, *id).ok());
    }
  }

  struct Case {
    std::string text;
    bool used_index;
    int probes;
  };
  const Case kCases[] = {
      {"id == " + std::to_string(created[kPopulation / 2].value()), true, 1},
      {"state == running && biased == true", true, 2},
      {"trace_length >= 0", false, 0},
  };
  for (const Case& c : kCases) {
    auto result = (*cluster)->Query(c.text);
    ASSERT_TRUE(result.ok()) << c.text;
    EXPECT_EQ(result->used_index, c.used_index) << c.text;
    EXPECT_EQ(result->index_probes, c.probes) << c.text;
    auto ids = Ids(*result);
    EXPECT_FALSE(ids.empty()) << c.text;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << c.text;
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
        << c.text;
    // The merge equals every shard's unindexed scan, sorted.
    auto compiled = CompiledQuery::Compile(c.text);
    ASSERT_TRUE(compiled.ok());
    std::vector<uint64_t> want;
    for (size_t s = 0; s < (*cluster)->shard_count(); ++s) {
      for (uint64_t id : Ids(RunQuery(*compiled,
                                      (*cluster)->shard(s).snapshots(),
                                      nullptr))) {
        want.push_back(id);
      }
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(ids, want) << c.text;
  }
}

TEST(QueryIndexTest, DisabledIndexesFallBackToScans) {
  AdeptOptions options;
  options.query_indexes = false;
  auto system = AdeptSystem::Create(options);
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE((*system)->DeployProcessType(SequenceSchema(3)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*system)->CreateInstance("seq").ok());
  }
  auto result = (*system)->Query("state == running");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->used_index);
  EXPECT_EQ(result->size(), 5u);
}

TEST(QueryClusterTest, MergesShardsInAscendingIdOrder) {
  auto cluster = AdeptCluster::Create({.shards = 4});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(SequenceSchema(4)).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*cluster)->CreateInstance("seq").ok());
  }
  auto result = (*cluster)->Query("state == running");
  ASSERT_TRUE(result.ok());
  auto ids = Ids(*result);
  EXPECT_EQ(ids.size(), 20u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  // Malformed input surfaces the compile error, not a sweep.
  EXPECT_EQ((*cluster)->Query("state ==").status().code(),
            StatusCode::kInvalidArgument);
}

// --- Unified read-side consumers --------------------------------------------

TEST(QueryConsumersTest, RenderMatchingRendersEveryHit) {
  auto system = AdeptSystem::Create();
  ASSERT_TRUE(system.ok());
  AdeptSystem& sys = **system;
  ASSERT_TRUE(sys.DeployProcessType(SequenceSchema(2)).ok());
  auto a = sys.CreateInstance("seq");
  auto b = sys.CreateInstance("seq");
  ASSERT_TRUE(a.ok() && b.ok());
  SimulationDriver driver({.seed = 3});
  ASSERT_TRUE(sys.DriveToCompletion(*a, driver).ok());

  auto finished = RenderMatching(sys, "state == finished");
  ASSERT_TRUE(finished.ok());
  EXPECT_NE(finished->find("[finished]"), std::string::npos);
  EXPECT_EQ(finished->find("I" + std::to_string(b->value()) + " on"),
            std::string::npos);
  auto running = RenderMatching(sys, "state == running");
  ASSERT_TRUE(running.ok());
  EXPECT_EQ(running->find("[finished]"), std::string::npos);
  EXPECT_FALSE(RenderMatching(sys, "state ==").ok());

  // The live-instance render adapts through BuildSnapshot(), so both
  // overloads print identically for a quiesced instance.
  auto snapshot = sys.SnapshotOf(*b);
  ASSERT_NE(snapshot, nullptr);
  std::string from_snapshot = RenderInstance(*snapshot);
  (void)sys.WithInstance(*b, [&](const ProcessInstance& live) {
    EXPECT_EQ(RenderInstance(live), from_snapshot);
  });
}

TEST(QueryConsumersTest, OffersForWithPredicateFiltersOnSnapshotData) {
  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  RoleId clerk = *(*cluster)->org().AddRole("clerk");
  UserId user = *(*cluster)->org().AddUser("worker");
  ASSERT_TRUE((*cluster)->org().AssignRole(user, clerk).ok());

  SchemaBuilder b("ticket", 1);
  DataId priority = b.Data("priority", DataType::kInt);
  NodeId triage = b.Activity("triage", {.role = clerk});
  b.Writes(triage, priority);
  b.Activity("resolve", {.role = clerk});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  ASSERT_TRUE((*cluster)->DeployProcessType(*schema).ok());

  constexpr int kTickets = 6;
  for (int i = 0; i < kTickets; ++i) {
    auto id = (*cluster)->CreateInstance("ticket");
    ASSERT_TRUE(id.ok());
    NodeId node = (*schema)->FindNodeByName("triage");
    ASSERT_TRUE((*cluster)->StartActivity(*id, node).ok());
    ASSERT_TRUE((*cluster)
                    ->CompleteActivity(*id, node,
                                       {{priority, DataValue::Int(i)}})
                    .ok());
  }

  WorklistService& worklist = (*cluster)->Worklist();
  EXPECT_EQ(worklist.OffersFor(user).size(), static_cast<size_t>(kTickets));
  auto urgent = worklist.OffersFor(user, "data.priority >= 3");
  ASSERT_TRUE(urgent.ok());
  EXPECT_EQ(urgent->size(), 3u);  // priorities 3, 4, 5
  for (const WorkItem& item : *urgent) {
    auto snapshot = (*cluster)->SnapshotOf(item.instance);
    ASSERT_NE(snapshot, nullptr);
    const DataValue* value = snapshot->data_values.Find(priority);
    ASSERT_NE(value, nullptr);
    EXPECT_GE(value->as_int(), 3);
  }
  auto none = worklist.OffersFor(user, "data.priority >= 3 && biased");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(worklist.OffersFor(user, "data.").status().code(),
            StatusCode::kInvalidArgument);
}

// --- Recover rebuilds the indexes -------------------------------------------

TEST(QueryRecoverTest, IndexesRebuildEquivalentlyAcrossShardCounts) {
  TempDir dir;
  ClusterOptions options;
  options.shards = 2;
  options.wal_path = dir.File("query.wal");
  options.snapshot_path = dir.File("query.snapshot");

  std::vector<uint64_t> before_ids;
  {
    auto cluster = AdeptCluster::Create(options);
    ASSERT_TRUE(cluster.ok());
    auto schema = TicketSchema();
    ASSERT_TRUE((*cluster)->DeployProcessType(schema).ok());
    for (int i = 0; i < 10; ++i) {
      auto id = (*cluster)->CreateInstance("ticket");
      ASSERT_TRUE(id.ok());
      NodeId node = schema->FindNodeByName("triage");
      ASSERT_TRUE((*cluster)->StartActivity(*id, node).ok());
      ASSERT_TRUE((*cluster)
                      ->CompleteActivity(
                          *id, node,
                          {{schema->FindDataByName("priority"),
                            DataValue::Int(i % 3)},
                           {schema->FindDataByName("urgent"),
                            DataValue::Bool(i % 2 == 0)},
                           {schema->FindDataByName("owner"),
                            DataValue::String("u" + std::to_string(i))},
                           {schema->FindDataByName("score"),
                            DataValue::Double(i * 0.5)}})
                      .ok());
    }
    auto result = (*cluster)->Query("data.priority == 1");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->used_index);
    before_ids = Ids(*result);
    ASSERT_FALSE(before_ids.empty());
  }

  for (int shards : {2, 4}) {
    options.shards = shards;
    auto recovered = AdeptCluster::Recover(options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto result = (*recovered)->Query("data.priority == 1");
    ASSERT_TRUE(result.ok());
    // The rebuilt indexes (bulk republication during recovery) answer
    // identically, and the probe still runs indexed.
    EXPECT_TRUE(result->used_index);
    EXPECT_EQ(Ids(*result), before_ids) << "with " << shards << " shards";
  }
}

// --- Index consistency under concurrent mutation ----------------------------

SchemaPtr StressSchema(RoleId role) {
  SchemaBuilder b("stress", 1);
  DataId again = b.Data("again", DataType::kBool);
  b.Activity("prepare", {.role = role});
  b.Loop(again, [&](SchemaBuilder& s) {
    NodeId check = s.Activity("check", {.role = role});
    s.Writes(check, again);
  });
  b.Activity("finish", {.role = role});
  auto schema = b.Build();
  return schema.ok() ? *schema : nullptr;
}

TEST(QueryStressTest, NoStaleWrongHitsAcrossMigrateAndResize) {
  constexpr int kPopulation = 16;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;

  auto cluster = AdeptCluster::Create({.shards = 2});
  ASSERT_TRUE(cluster.ok());
  RoleId clerk = *(*cluster)->org().AddRole("clerk");
  auto schema = StressSchema(clerk);
  ASSERT_NE(schema, nullptr);
  auto v1 = (*cluster)->DeployProcessType(schema);
  ASSERT_TRUE(v1.ok());

  std::vector<InstanceId> ids;
  for (int i = 0; i < kPopulation; ++i) {
    auto id = (*cluster)->CreateInstance("stress");
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> pause_writers{false};
  std::atomic<int> paused_writers{0};
  std::atomic<size_t> queries_total{0};
  std::atomic<size_t> query_failures{0};
  std::atomic<size_t> stale_wrong{0};

  const char* kPredicates[] = {
      "state == running && trace_length >= 1",
      "running(\"check\") || activated(\"check\")",
      "has(\"again\")",
      "state == finished",
      "version >= 1",
  };
  std::vector<CompiledQuery> compiled;
  for (const char* text : kPredicates) {
    auto c = CompiledQuery::Compile(text);
    ASSERT_TRUE(c.ok());
    compiled.push_back(*c);
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t round = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        size_t q = round++ % compiled.size();
        auto result = (*cluster)->Query(kPredicates[q]);
        queries_total.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        uint64_t previous = 0;
        for (const auto& hit : *result) {
          // The zero-stale-wrong contract: every returned snapshot
          // satisfies the predicate it was returned for, no matter how
          // stale the index entry that nominated it was.
          if (!compiled[q].Matches(*hit)) {
            stale_wrong.fetch_add(1, std::memory_order_relaxed);
          }
          // Merged sweeps are duplicate-free and sorted even while the
          // routing epoch churns.
          if (hit->id.value() <= previous) {
            stale_wrong.fetch_add(1, std::memory_order_relaxed);
          }
          previous = hit->id.value();
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      SimulationDriver driver({.seed = 50 + static_cast<uint64_t>(w),
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
        for (size_t i = static_cast<size_t>(w); i < ids.size();
             i += kWriters) {
          (void)(*cluster)->DriveStep(ids[i], driver);
        }
        if (++rounds % 32 == 0) {
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

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // Type migration under load: indexed node-name and schema-version
  // entries churn while queries race.
  Delta evolution;
  NewActivitySpec audit;
  audit.name = "audit";
  audit.role = clerk;
  evolution.Add(std::make_unique<SerialInsertOp>(
      audit, schema->FindNodeByName("prepare"),
      schema->FindNodeByName("loop_start")));
  auto v2 = (*cluster)->EvolveProcessType(*v1, std::move(evolution));
  ASSERT_TRUE(v2.ok());
  auto report = (*cluster)->Migrate(*v1, *v2);
  ASSERT_TRUE(report.ok()) << report.status();

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  // Live resize with queries still running (writers quiesced per the
  // Resize contract): indexes move with the instances through the
  // Export/Import/Evict handover.
  pause_writers.store(true, std::memory_order_release);
  while (paused_writers.load(std::memory_order_acquire) < kWriters) {
    std::this_thread::yield();
  }
  ASSERT_TRUE((*cluster)->Resize(4).ok());
  pause_writers.store(false, std::memory_order_release);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (auto& t : writers) t.join();

  EXPECT_EQ(stale_wrong.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_GT(queries_total.load(), 0u);

  // Quiesced: the match-all sweep sees exactly the population, and every
  // shard's index agrees with a fresh unindexed scan.
  auto all = (*cluster)->Query("true");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kPopulation));
  for (const char* text : kPredicates) {
    auto c = CompiledQuery::Compile(text);
    ASSERT_TRUE(c.ok());
    auto indexed = (*cluster)->Query(text);
    ASSERT_TRUE(indexed.ok());
    QueryResult scan;
    std::vector<size_t> run_ends;
    for (size_t s = 0; s < (*cluster)->shard_count(); ++s) {
      RunQueryInto(*c, (*cluster)->shard(s).snapshots(), nullptr, &scan);
      run_ends.push_back(scan.size());
    }
    MergeQueryRuns(run_ends, &scan);
    EXPECT_EQ(Ids(*indexed), Ids(scan)) << "post-stress divergence: "
                                        << text;
  }
}

}  // namespace
}  // namespace adept
