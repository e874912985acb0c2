// The process query engine's public surface (see README.md in this
// directory for the language and the staleness contract).
//
//   CompiledQuery  a parsed, immutable, cheaply copyable predicate
//   QueryResult    the matches: a cursor of published snapshots
//   RunQuery*      execution over one system's SnapshotTable, using a
//                  QueryIndex when a conjunct is indexable
//
// Applications normally go through AdeptApi::Query(text), which both
// facades implement: AdeptSystem compiles and runs locally; AdeptCluster
// compiles once and fans the compiled predicate out across the read view
// under the same epoch-stable discipline as ForEachSnapshot.
//
// Staleness contract (mirrors the PR-5 read-view semantics): every
// returned snapshot was the *current published version* of its instance
// at lookup time — staleness is bounded by one in-flight mutation, and a
// returned snapshot always satisfies the predicate (candidates from a
// trailing index are re-evaluated against their current snapshot before
// they can match). A sweep is per-instance consistent, not a global
// point-in-time cut.

#ifndef ADEPT_QUERY_QUERY_H_
#define ADEPT_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query_ast.h"
#include "query/query_index.h"
#include "runtime/instance_snapshot.h"

namespace adept {

// The result of a query: matching snapshots in ascending instance-id
// order. A cursor over immutable state — iterating holds no lock, and
// each shared_ptr pins the matched version for as long as the caller
// keeps it.
//
// The plan fields describe what execution did. Each shard of a cluster
// plans on its own (by its own set sizes), and a fan-out merges the
// shards' fields as: `used_index` true if any shard used an index,
// `index_probes` the maximum over shards, `evaluated` the sum.
struct QueryResult {
  std::vector<std::shared_ptr<const InstanceSnapshot>> snapshots;
  // True when candidates came from an index or an `id == K` point lookup
  // (vs a full table scan).
  bool used_index = false;
  // Id sets the candidates were drawn from: 0 on a scan, 1 for the
  // smallest set alone (or an `id == K` lookup, or an empty smallest set
  // that answered without a fetch), 2 when the smallest set was narrowed
  // by the next-smallest before re-validation.
  int index_probes = 0;
  // Candidates fetched and evaluated (a scan evaluates every published
  // snapshot; an indexed run only the candidates left after narrowing).
  size_t evaluated = 0;
  // Graceful degradation (cluster reads only): true when at least one
  // shard's replication primary cannot currently commit (fenced or below
  // a live quorum), so these snapshots may trail writes that are failing
  // fast elsewhere. Single-node queries always report false.
  bool degraded = false;

  using const_iterator =
      std::vector<std::shared_ptr<const InstanceSnapshot>>::const_iterator;
  const_iterator begin() const { return snapshots.begin(); }
  const_iterator end() const { return snapshots.end(); }
  size_t size() const { return snapshots.size(); }
  bool empty() const { return snapshots.empty(); }
};

// A parsed query. Immutable and cheaply copyable (the tree is shared), so
// one compilation serves every shard of a cluster fan-out and every poll
// of a worklist predicate.
class CompiledQuery {
 public:
  // kInvalidArgument (with an offset + caret span) on malformed input.
  static Result<CompiledQuery> Compile(const std::string& text);

  // The predicate every snapshot satisfies (ForEachSnapshot's sweep).
  static CompiledQuery MatchAll();

  bool Matches(const InstanceSnapshot& snapshot) const {
    return root_->Eval(snapshot);
  }

  const std::string& text() const { return text_; }
  // Canonical spelling; Compile(canonical()) is an equivalent query.
  std::string canonical() const { return root_->ToString(); }
  const query::Expr& root() const { return *root_; }

 private:
  CompiledQuery(std::shared_ptr<const query::Expr> root, std::string text)
      : root_(std::move(root)), text_(std::move(text)) {}

  std::shared_ptr<const query::Expr> root_;
  std::string text_;
};

// Executes `query` against one system's published snapshots and appends
// the matches to `result` as one run in ascending id order, merging the
// plan fields by the rule on QueryResult. The plan: an `id == K` conjunct
// is a point lookup; otherwise, when `index` is non-null, the indexable
// top-level conjuncts are ordered by the size of their id sets. An empty
// smallest set answers at once; a smallest set covering more than half
// the table runs the scan; any other draws candidates from the smallest
// set, narrowed by the next-smallest. Every candidate is re-fetched from
// `table` and the full predicate re-evaluated, so index staleness never
// yields a stale-wrong match.
void RunQueryInto(const CompiledQuery& query, const SnapshotTable& table,
                  const QueryIndex* index, QueryResult* result);

// Single-system execution into a fresh result.
QueryResult RunQuery(const CompiledQuery& query, const SnapshotTable& table,
                     const QueryIndex* index);

// Merges the ascending runs [0, run_ends[0]), [run_ends[0], run_ends[1]),
// ..., [run_ends.back(), size()) of `result->snapshots` into one ascending
// sequence in O(n log k) for k runs (a cluster fan-out: one run per
// shard).
void MergeQueryRuns(const std::vector<size_t>& run_ends, QueryResult* result);

}  // namespace adept

#endif  // ADEPT_QUERY_QUERY_H_
