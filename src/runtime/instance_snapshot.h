// InstanceSnapshot: the lock-free read path's unit of consistency.
//
// A snapshot is an immutable, internally consistent copy of everything the
// read-dominated consumers (worklist polling, monitoring views, compliance
// sweeps) need from a ProcessInstance: marking, activated/running activity
// lists, a trace summary, the per-node completion counters, the latest
// data-element values, and the schema/version refs. The owning facade
// rebuilds it after every mutation (under the same lock that serialized
// the mutation) and publishes it into a SnapshotTable; readers fetch the
// current shared_ptr through a striped spinlock table and then read the
// object without any lock at all — the pointer pins an immutable version,
// the writer publishes the next one (the MVCC read-snapshot discipline of
// realm-core's reader views).
//
// Consistency contract:
//   * every field of one snapshot reflects the same engine state — a
//     reader can never observe a marking from one mutation and a trace
//     summary from another (a "torn" read);
//   * `version` increases by one per publication of the same instance on
//     the same system; `trace_next_sequence` is monotonic for the whole
//     life of the instance, across ad-hoc changes, migrations, and
//     cross-shard moves (the trace travels with the instance);
//   * staleness is bounded by one mutation: a snapshot trails the live
//     instance only while a mutating facade call is in flight.

#ifndef ADEPT_RUNTIME_INSTANCE_SNAPSHOT_H_
#define ADEPT_RUNTIME_INSTANCE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/persistent_map.h"
#include "model/schema_view.h"
#include "runtime/data_value.h"
#include "runtime/marking.h"

namespace adept {

struct InstanceSnapshot {
  InstanceId id;
  // The execution schema at publication time. SchemaViews are immutable
  // once built, so holding the shared_ptr keeps the whole view readable
  // without coordination.
  std::shared_ptr<const SchemaView> schema;
  SchemaId schema_ref;
  bool biased = false;
  bool started = false;
  bool finished = false;

  // Publication counter, stamped by the SnapshotTable: strictly increasing
  // per (system, instance). Restarts at 1 when an instance is imported
  // into another shard — use trace_next_sequence for cross-move
  // monotonicity.
  uint64_t version = 0;

  // Full node/edge marking. An O(1) structural share of the live
  // instance's marking at publication time: the snapshot pins the trie
  // roots, later mutations path-copy away from them (see
  // common/persistent_map.h). Only non-default states are stored.
  Marking marking;
  // Nodes currently Activated resp. Running — redundant with `marking` by
  // construction (they are the marking's derived indexes, shared by
  // root), which is what makes a torn snapshot detectable: every listed
  // node must carry the matching marking state. `activated_nodes` can
  // include non-activity nodes (an XOR split waiting for its decision
  // data); `running_nodes` only ever holds activities. Consumers that
  // want activities filter by node type through `schema`.
  PersistentSet<NodeId> activated_nodes;
  PersistentSet<NodeId> running_nodes;

  // Logical activation stamps: trace sequence at which each node in
  // `activated_nodes` (or still Running/Suspended/Failed after
  // activating) last entered kActivated. No wall-clock — callers compare
  // against trace_next_sequence to ask "activated since sequence k and
  // still not done" (the query predicate activated_since("n", k)).
  PersistentMap<NodeId, int64_t> activated_since;

  // Completed runs per node (the worklist's activation-epoch source) and
  // their sum — again deliberately redundant for consistency checking.
  PersistentMap<NodeId, uint64_t> completed_runs;
  uint64_t completed_total = 0;

  // Completed iterations per loop start.
  PersistentMap<NodeId, int> loop_iterations;

  // Latest value of every written data element (history stays behind the
  // mutating path; monitoring wants current values). Shared by root with
  // the live DataContext's tips map.
  PersistentMap<DataId, DataValue> data_values;

  // Trace summary: event count and the next sequence number. The full
  // trace is deliberately not copied — snapshot publication must stay
  // O(live state), not O(history).
  int64_t trace_length = 0;
  int64_t trace_next_sequence = 0;
};

// SnapshotTable: instance id -> current snapshot, striped for concurrent
// readers. Writers (the owning facade, already serialized per system)
// briefly take a stripe's lock to swap the pointer; readers take it only
// long enough to copy the shared_ptr out. The stripe lock is a spinlock:
// the critical section is a hash find plus one refcount bump (tens of
// nanoseconds), far below the parking cost of a mutex, and 64 stripes
// keep collisions rare — so no reader ever blocks behind an engine turn,
// and the hot read path stays cheaper than even an uncontended
// mutex-guarded engine lookup.
class SnapshotTable {
 public:
  SnapshotTable() = default;
  SnapshotTable(const SnapshotTable&) = delete;
  SnapshotTable& operator=(const SnapshotTable&) = delete;

  // Current snapshot of `id`, or nullptr when none is published.
  std::shared_ptr<const InstanceSnapshot> Get(InstanceId id) const;

  // Publishes `snapshot` as the current version of its instance, stamping
  // `snapshot->version` with the predecessor's version + 1. Returns the
  // superseded snapshot (nullptr on first publication) — the delta the
  // publisher feeds into its QueryIndex.
  std::shared_ptr<const InstanceSnapshot> Publish(
      std::shared_ptr<InstanceSnapshot> snapshot);

  // Removes the instance's snapshot (eviction / deletion); returns the
  // removed snapshot (nullptr when none was published).
  std::shared_ptr<const InstanceSnapshot> Erase(InstanceId id);

  // Appends the current snapshot of every instance to `out`. The
  // collected set is the table's state at stripe-lock time per stripe —
  // a sweep concurrent with writers sees each instance at some published
  // version, not one global point in time. The copied shared_ptrs keep
  // the snapshots alive for the caller; no table lock is held afterwards.
  void Collect(
      std::vector<std::shared_ptr<const InstanceSnapshot>>* out) const;

  // Published instances. Maintained outside the stripe locks, so a reader
  // racing a publisher may see the count a moment before or after it.
  size_t size() const { return size_.load(); }

 private:
  static constexpr size_t kStripes = 64;

  class SpinLock {
   public:
    void lock() {
      // The holder is inside a ~10ns critical section, so a short burst
      // of pure spinning wins; yield after that in case the holder was
      // preempted (oversubscribed machines, sanitizer slowdown) so
      // contenders do not burn whole scheduling quanta.
      int spins = 0;
      while (flag_.test_and_set(std::memory_order_acquire)) {
        if (++spins >= 64) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  struct Stripe {
    mutable SpinLock mu;
    std::unordered_map<uint64_t, std::shared_ptr<const InstanceSnapshot>>
        entries;
  };

  Stripe& StripeOf(InstanceId id) {
    return stripes_[id.value() % kStripes];
  }
  const Stripe& StripeOf(InstanceId id) const {
    return stripes_[id.value() % kStripes];
  }

  Stripe stripes_[kStripes];
  std::atomic<size_t> size_{0};
};

}  // namespace adept

#endif  // ADEPT_RUNTIME_INSTANCE_SNAPSHOT_H_
