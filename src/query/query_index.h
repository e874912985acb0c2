// QueryIndex: secondary indexes over published InstanceSnapshots.
//
// Six index families, all keyed to answer the equality/range probes the
// query planner (query.cc) emits:
//
//   schema     execution schema ref        -> instance ids
//   state      lifecycle rank + biased set -> instance ids
//   activated  activated node *name*       -> instance ids
//   running    running node *name*         -> instance ids
//   data       (element name, exact value) -> instance ids
//   version    last-publication version    -> instance ids (ordered map,
//              so staleness queries like `version <= K` are range scans)
//
// A ProbeKey names one id set (a version range: the union of the ranged
// sets). The planner reads a set through three operations, each taking
// its family's lock once and copying at most the ids it returns:
//
//   Count(key)           the set's size — what the planner orders by
//   AppendIds(key, out)  appends the set's ids (unordered)
//   Retain(key, ids)     drops from `ids` every id outside the set
//
// Maintenance is a delta update driven from the same snapshot-publication
// hook that feeds the striped SnapshotTable: AdeptSystem::PublishSnapshot
// hands the previous and the new snapshot to ApplyDelta, which touches
// only the families whose keys actually changed. Publication is already
// serialized per system (the shard lock / the single-threaded facade), so
// there is never more than one writer — the per-family mutexes only order
// the writer against concurrent query readers, and no query ever takes a
// shard mutex.
//
// Correctness contract: a lookup returns *candidates*, not results. The
// index trails the snapshot table by one publication (the delta is
// applied right after the table swap), so a candidate set may contain an
// id whose current snapshot no longer matches, or briefly miss one that
// just started matching. The query executor therefore re-fetches every
// candidate's current snapshot and re-evaluates the full predicate
// against it — index staleness can cost a candidate fetch, never a
// stale-wrong result. Index-vs-scan equivalence holds whenever the system
// is quiesced (tests/query_test.cc pins both properties).
//
// Lifecycle: eviction/deletion removes the id (ApplyDelta with a null
// `after`), a cross-shard move re-indexes on the destination through its
// own publication hook, and Recover() rebuilds the whole index via
// PublishAllSnapshots — there is no separate persistence.

#ifndef ADEPT_QUERY_QUERY_INDEX_H_
#define ADEPT_QUERY_QUERY_INDEX_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "query/query_ast.h"
#include "runtime/data_value.h"
#include "runtime/instance_snapshot.h"

namespace adept {

class QueryIndex {
 public:
  QueryIndex() = default;
  QueryIndex(const QueryIndex&) = delete;
  QueryIndex& operator=(const QueryIndex&) = delete;

  // Applies the publication delta `before` -> `after`. `before` is null
  // on an instance's first publication, `after` is null on eviction/
  // deletion; both null is a no-op. Caller: the (serialized) snapshot
  // publisher, right after the SnapshotTable swap.
  void ApplyDelta(const InstanceSnapshot* before,
                  const InstanceSnapshot* after);

  void Clear();

  // --- Candidate probes (see the correctness contract above) ---------------

  // One probe: a family and the key of one of its id sets.
  struct ProbeKey {
    enum class Family { kSchema, kState, kBiased, kNode, kData, kVersion };

    static ProbeKey Schema(uint64_t schema_ref);
    // `rank`: 0 created, 1 running, 2 finished (query::SnapshotStateRank).
    static ProbeKey State(int rank);
    static ProbeKey Biased();
    static ProbeKey Node(query::NodeSet set, std::string name);
    static ProbeKey Data(std::string field, const DataValue& value);
    // Ids whose last-publication version satisfies `version <op> bound`
    // (op is never kNe; the planner does not emit it).
    static ProbeKey Version(query::CompareOp op, int64_t bound);

    Family family = Family::kBiased;
    uint64_t number = 0;  // kSchema: schema ref; kState: rank
    query::NodeSet node_set = query::NodeSet::kActivated;  // kNode
    std::string name;      // kNode: node name; kData: element name
    std::string data_key;  // kData: EncodeDataKey(value)
    query::CompareOp op = query::CompareOp::kEq;  // kVersion
    int64_t bound = 0;                            // kVersion
  };

  size_t Count(const ProbeKey& key) const;
  void AppendIds(const ProbeKey& key, std::vector<InstanceId>* out) const;
  // Keeps the relative order of the ids it retains.
  void Retain(const ProbeKey& key, std::vector<InstanceId>* ids) const;

  // Exact-type value encoding shared by maintenance and probes ("i:42",
  // "s:express", "b:1", "d:2.5"); equality's type-strictness means one
  // probe key per literal.
  static std::string EncodeDataKey(const DataValue& value);

 private:
  using IdSet = std::unordered_set<uint64_t>;

  struct SchemaFamily {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, IdSet> map;
  };
  struct StateFamily {
    mutable std::mutex mu;
    IdSet by_rank[3];
    IdSet biased;
  };
  struct NodeFamily {
    mutable std::mutex mu;
    std::unordered_map<std::string, IdSet> map;
  };
  struct DataFamily {
    mutable std::mutex mu;
    // element name -> encoded value -> ids.
    std::unordered_map<std::string, std::unordered_map<std::string, IdSet>>
        map;
  };
  struct VersionFamily {
    mutable std::mutex mu;
    std::map<uint64_t, IdSet> map;
  };

  // The lock guarding `key`'s family, and — with that lock held — its id
  // set (nullptr when empty). Not for kVersion, which has no single set.
  std::mutex& MutexOf(const ProbeKey& key) const;
  const IdSet* FindLocked(const ProbeKey& key) const;
  // With version_.mu held: calls `fn` on each id set in `key`'s range.
  template <typename Fn>
  void ForEachVersionSetLocked(const ProbeKey& key, Fn&& fn) const;

  void UpdateNodeFamily(NodeFamily& family, uint64_t id,
                        const InstanceSnapshot* before,
                        const InstanceSnapshot* after, query::NodeSet set);
  void UpdateDataFamily(uint64_t id, const InstanceSnapshot* before,
                        const InstanceSnapshot* after);

  SchemaFamily schema_;
  StateFamily state_;
  NodeFamily activated_;
  NodeFamily running_;
  DataFamily data_;
  VersionFamily version_;
};

}  // namespace adept

#endif  // ADEPT_QUERY_QUERY_INDEX_H_
