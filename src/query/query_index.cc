#include "query/query_index.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "model/node.h"

namespace adept {

namespace {

const PersistentSet<NodeId>& NodeSetOf(const InstanceSnapshot& snapshot,
                                       query::NodeSet set) {
  return set == query::NodeSet::kActivated ? snapshot.activated_nodes
                                           : snapshot.running_nodes;
}

// Index key of a node in `snapshot`'s set: its activity name. Non-activity
// residents of the activated set (an XOR split awaiting its decision) and
// unnamed nodes are not indexed — matching the predicate's semantics.
const std::string* IndexedNodeName(const InstanceSnapshot& snapshot,
                                   NodeId id) {
  const Node* node = snapshot.schema->FindNode(id);
  if (node == nullptr || node->type != NodeType::kActivity ||
      node->name.empty()) {
    return nullptr;
  }
  return &node->name;
}

// Activity names in `set`, resolved through the snapshot's own schema (a
// migrated instance's node ids mean nothing outside its schema version).
std::vector<std::string> NodeNames(const InstanceSnapshot& snapshot,
                                   query::NodeSet set) {
  std::vector<std::string> names;
  if (snapshot.schema == nullptr) return names;
  NodeSetOf(snapshot, set).ForEach([&](NodeId id) {
    const std::string* name = IndexedNodeName(snapshot, id);
    if (name != nullptr) names.push_back(*name);
  });
  return names;
}

// (element name, encoded value) pairs of every written data element.
std::vector<std::pair<std::string, std::string>> DataKeys(
    const InstanceSnapshot& snapshot) {
  std::vector<std::pair<std::string, std::string>> keys;
  if (snapshot.schema == nullptr) return keys;
  keys.reserve(snapshot.data_values.size());
  snapshot.data_values.ForEach([&](DataId id, const DataValue& value) {
    const DataElement* element = snapshot.schema->FindData(id);
    if (element == nullptr || element->name.empty()) return;
    keys.emplace_back(element->name, QueryIndex::EncodeDataKey(value));
  });
  return keys;
}

}  // namespace

std::string QueryIndex::EncodeDataKey(const DataValue& value) {
  switch (value.type()) {
    case DataType::kBool:
      return value.as_bool() ? "b:1" : "b:0";
    case DataType::kInt:
      return "i:" + std::to_string(value.as_int());
    case DataType::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "d:%.17g", value.as_double());
      return buf;
    }
    case DataType::kString:
      return "s:" + value.as_string();
  }
  return "s:";
}

void QueryIndex::ApplyDelta(const InstanceSnapshot* before,
                            const InstanceSnapshot* after) {
  if (before == nullptr && after == nullptr) return;
  const uint64_t id =
      (after != nullptr ? after->id : before->id).value();

  // Schema family.
  {
    const bool same = before != nullptr && after != nullptr &&
                      before->schema_ref == after->schema_ref;
    if (!same) {
      std::lock_guard<std::mutex> lock(schema_.mu);
      if (before != nullptr) {
        auto it = schema_.map.find(before->schema_ref.value());
        if (it != schema_.map.end()) {
          it->second.erase(id);
          if (it->second.empty()) schema_.map.erase(it);
        }
      }
      if (after != nullptr) {
        schema_.map[after->schema_ref.value()].insert(id);
      }
    }
  }

  // State family (lifecycle rank + biased set).
  {
    const int before_rank =
        before != nullptr ? query::SnapshotStateRank(*before) : -1;
    const int after_rank =
        after != nullptr ? query::SnapshotStateRank(*after) : -1;
    const bool before_biased = before != nullptr && before->biased;
    const bool after_biased = after != nullptr && after->biased;
    if (before_rank != after_rank || before_biased != after_biased) {
      std::lock_guard<std::mutex> lock(state_.mu);
      if (before_rank != after_rank) {
        if (before_rank >= 0) state_.by_rank[before_rank].erase(id);
        if (after_rank >= 0) state_.by_rank[after_rank].insert(id);
      }
      if (before_biased != after_biased) {
        if (before_biased) state_.biased.erase(id);
        if (after_biased) state_.biased.insert(id);
      }
    }
  }

  // Node families.
  UpdateNodeFamily(activated_, id, before, after, query::NodeSet::kActivated);
  UpdateNodeFamily(running_, id, before, after, query::NodeSet::kRunning);

  // Data family.
  UpdateDataFamily(id, before, after);

  // Version family (every publication bumps the version, so this is the
  // one family that moves on every delta — one ordered-map erase+insert).
  {
    std::lock_guard<std::mutex> lock(version_.mu);
    if (before != nullptr) {
      auto it = version_.map.find(before->version);
      if (it != version_.map.end()) {
        it->second.erase(id);
        if (it->second.empty()) version_.map.erase(it);
      }
    }
    if (after != nullptr) {
      version_.map[after->version].insert(id);
    }
  }
}

void QueryIndex::UpdateNodeFamily(NodeFamily& family, uint64_t id,
                                  const InstanceSnapshot* before,
                                  const InstanceSnapshot* after,
                                  query::NodeSet set) {
  // Fast path for the common publication: both snapshots resolve names
  // through the same schema, so the structural diff of the persistent set
  // is exactly the set of names that moved. Shared subtrees are skipped —
  // cost is O(changed nodes) per publication, not O(set width).
  if (before != nullptr && after != nullptr &&
      before->schema == after->schema && before->schema != nullptr) {
    const PersistentSet<NodeId>& b = NodeSetOf(*before, set);
    const PersistentSet<NodeId>& a = NodeSetOf(*after, set);
    if (b.SameRoot(a)) return;
    std::vector<std::string> added;
    std::vector<std::string> removed;
    b.DiffTo(a, [&](NodeId node, bool is_add) {
      const std::string* name = IndexedNodeName(*after, node);
      if (name == nullptr) return;
      (is_add ? added : removed).push_back(*name);
    });
    // A removed node's name may survive via another same-named node still
    // in the set; dropping it would make the index miss candidates. Keep
    // any removed name that `after` still contains.
    if (!removed.empty()) {
      a.ForEach([&](NodeId node) {
        const std::string* name = IndexedNodeName(*after, node);
        if (name == nullptr) return;
        removed.erase(std::remove(removed.begin(), removed.end(), *name),
                      removed.end());
      });
    }
    if (added.empty() && removed.empty()) return;
    std::lock_guard<std::mutex> lock(family.mu);
    for (const std::string& name : removed) {
      auto it = family.map.find(name);
      if (it == family.map.end()) continue;
      it->second.erase(id);
      if (it->second.empty()) family.map.erase(it);
    }
    for (const std::string& name : added) {
      family.map[name].insert(id);
    }
    return;
  }

  // Slow path (create, evict, migration/evolution): names re-resolve
  // against a different schema, so compare full name sets.
  std::vector<std::string> before_names =
      before != nullptr ? NodeNames(*before, set) : std::vector<std::string>{};
  std::vector<std::string> after_names =
      after != nullptr ? NodeNames(*after, set) : std::vector<std::string>{};
  std::sort(before_names.begin(), before_names.end());
  std::sort(after_names.begin(), after_names.end());
  if (before_names == after_names) return;
  std::lock_guard<std::mutex> lock(family.mu);
  for (const std::string& name : before_names) {
    auto it = family.map.find(name);
    if (it == family.map.end()) continue;
    it->second.erase(id);
    if (it->second.empty()) family.map.erase(it);
  }
  for (const std::string& name : after_names) {
    family.map[name].insert(id);
  }
}

void QueryIndex::UpdateDataFamily(uint64_t id, const InstanceSnapshot* before,
                                  const InstanceSnapshot* after) {
  using Key = std::pair<std::string, std::string>;
  std::vector<Key> added;
  std::vector<Key> removed;
  if (before != nullptr && after != nullptr &&
      before->schema == after->schema && before->schema != nullptr) {
    // Same-schema publication: structurally diff the value tips. Only
    // elements whose latest value changed are visited.
    if (before->data_values.SameRoot(after->data_values)) return;
    before->data_values.DiffTo(
        after->data_values,
        [&](DataId data, const DataValue* b, const DataValue* a) {
          const DataElement* element = after->schema->FindData(data);
          if (element == nullptr || element->name.empty()) return;
          if (b != nullptr) removed.emplace_back(element->name,
                                                 EncodeDataKey(*b));
          if (a != nullptr) added.emplace_back(element->name,
                                               EncodeDataKey(*a));
        });
    // Duplicate element names: keep a removed (field, key) pair that some
    // other element of `after` still produces.
    if (!removed.empty()) {
      after->data_values.ForEach([&](DataId data, const DataValue& value) {
        const DataElement* element = after->schema->FindData(data);
        if (element == nullptr || element->name.empty()) return;
        const Key live(element->name, EncodeDataKey(value));
        removed.erase(std::remove(removed.begin(), removed.end(), live),
                      removed.end());
      });
    }
  } else {
    std::vector<Key> before_keys =
        before != nullptr ? DataKeys(*before) : std::vector<Key>{};
    std::vector<Key> after_keys =
        after != nullptr ? DataKeys(*after) : std::vector<Key>{};
    std::sort(before_keys.begin(), before_keys.end());
    std::sort(after_keys.begin(), after_keys.end());
    if (before_keys == after_keys) return;
    removed = std::move(before_keys);
    added = std::move(after_keys);
  }
  if (added.empty() && removed.empty()) return;
  std::lock_guard<std::mutex> lock(data_.mu);
  for (const auto& [field, key] : removed) {
    auto field_it = data_.map.find(field);
    if (field_it == data_.map.end()) continue;
    auto key_it = field_it->second.find(key);
    if (key_it == field_it->second.end()) continue;
    key_it->second.erase(id);
    if (key_it->second.empty()) field_it->second.erase(key_it);
    if (field_it->second.empty()) data_.map.erase(field_it);
  }
  for (const auto& [field, key] : added) {
    data_.map[field][key].insert(id);
  }
}

void QueryIndex::Clear() {
  {
    std::lock_guard<std::mutex> lock(schema_.mu);
    schema_.map.clear();
  }
  {
    std::lock_guard<std::mutex> lock(state_.mu);
    for (IdSet& set : state_.by_rank) set.clear();
    state_.biased.clear();
  }
  {
    std::lock_guard<std::mutex> lock(activated_.mu);
    activated_.map.clear();
  }
  {
    std::lock_guard<std::mutex> lock(running_.mu);
    running_.map.clear();
  }
  {
    std::lock_guard<std::mutex> lock(data_.mu);
    data_.map.clear();
  }
  {
    std::lock_guard<std::mutex> lock(version_.mu);
    version_.map.clear();
  }
}

QueryIndex::ProbeKey QueryIndex::ProbeKey::Schema(uint64_t schema_ref) {
  ProbeKey key;
  key.family = Family::kSchema;
  key.number = schema_ref;
  return key;
}

QueryIndex::ProbeKey QueryIndex::ProbeKey::State(int rank) {
  ProbeKey key;
  key.family = Family::kState;
  // An out-of-range rank names no set (FindLocked answers nullptr).
  key.number = static_cast<uint64_t>(rank);
  return key;
}

QueryIndex::ProbeKey QueryIndex::ProbeKey::Biased() { return ProbeKey(); }

QueryIndex::ProbeKey QueryIndex::ProbeKey::Node(query::NodeSet set,
                                                std::string name) {
  ProbeKey key;
  key.family = Family::kNode;
  key.node_set = set;
  key.name = std::move(name);
  return key;
}

QueryIndex::ProbeKey QueryIndex::ProbeKey::Data(std::string field,
                                                const DataValue& value) {
  ProbeKey key;
  key.family = Family::kData;
  key.name = std::move(field);
  key.data_key = EncodeDataKey(value);
  return key;
}

QueryIndex::ProbeKey QueryIndex::ProbeKey::Version(query::CompareOp op,
                                                   int64_t bound) {
  ProbeKey key;
  key.family = Family::kVersion;
  key.op = op;
  key.bound = bound;
  return key;
}

std::mutex& QueryIndex::MutexOf(const ProbeKey& key) const {
  switch (key.family) {
    case ProbeKey::Family::kSchema:
      return schema_.mu;
    case ProbeKey::Family::kNode:
      return key.node_set == query::NodeSet::kActivated ? activated_.mu
                                                        : running_.mu;
    case ProbeKey::Family::kData:
      return data_.mu;
    case ProbeKey::Family::kVersion:
      return version_.mu;
    case ProbeKey::Family::kState:
    case ProbeKey::Family::kBiased:
      break;
  }
  return state_.mu;
}

const QueryIndex::IdSet* QueryIndex::FindLocked(const ProbeKey& key) const {
  switch (key.family) {
    case ProbeKey::Family::kSchema: {
      auto it = schema_.map.find(key.number);
      return it == schema_.map.end() ? nullptr : &it->second;
    }
    case ProbeKey::Family::kState:
      return key.number < 3 ? &state_.by_rank[key.number] : nullptr;
    case ProbeKey::Family::kBiased:
      return &state_.biased;
    case ProbeKey::Family::kNode: {
      const NodeFamily& family = key.node_set == query::NodeSet::kActivated
                                     ? activated_
                                     : running_;
      auto it = family.map.find(key.name);
      return it == family.map.end() ? nullptr : &it->second;
    }
    case ProbeKey::Family::kData: {
      auto field_it = data_.map.find(key.name);
      if (field_it == data_.map.end()) return nullptr;
      auto key_it = field_it->second.find(key.data_key);
      return key_it == field_it->second.end() ? nullptr : &key_it->second;
    }
    case ProbeKey::Family::kVersion:
      break;
  }
  return nullptr;
}

template <typename Fn>
void QueryIndex::ForEachVersionSetLocked(const ProbeKey& key, Fn&& fn) const {
  using query::CompareOp;
  CompareOp op = key.op;
  int64_t bound = key.bound;
  // Versions are unsigned; clamp a negative bound to "below everything".
  if (bound < 0) {
    if (op == CompareOp::kLt || op == CompareOp::kLe ||
        op == CompareOp::kEq) {
      return;
    }
    bound = 0;  // kGt/kGe: everything qualifies, fall through with [0, end)
    op = CompareOp::kGe;
  }
  const uint64_t v = static_cast<uint64_t>(bound);
  auto begin = version_.map.begin();
  auto end = version_.map.end();
  switch (op) {
    case CompareOp::kEq:
      begin = version_.map.lower_bound(v);
      end = version_.map.upper_bound(v);
      break;
    case CompareOp::kLt:
      end = version_.map.lower_bound(v);
      break;
    case CompareOp::kLe:
      end = version_.map.upper_bound(v);
      break;
    case CompareOp::kGt:
      begin = version_.map.upper_bound(v);
      break;
    case CompareOp::kGe:
      begin = version_.map.lower_bound(v);
      break;
    case CompareOp::kNe:
      return;  // never planned; a != probe would be a full scan
  }
  for (auto it = begin; it != end; ++it) fn(it->second);
}

size_t QueryIndex::Count(const ProbeKey& key) const {
  size_t count = 0;
  std::lock_guard<std::mutex> lock(MutexOf(key));
  if (key.family == ProbeKey::Family::kVersion) {
    ForEachVersionSetLocked(key, [&](const IdSet& set) {
      count += set.size();
    });
  } else if (const IdSet* set = FindLocked(key)) {
    count = set->size();
  }
  return count;
}

void QueryIndex::AppendIds(const ProbeKey& key,
                           std::vector<InstanceId>* out) const {
  auto append = [out](const IdSet& set) {
    for (uint64_t v : set) out->push_back(InstanceId(v));
  };
  std::lock_guard<std::mutex> lock(MutexOf(key));
  if (key.family == ProbeKey::Family::kVersion) {
    ForEachVersionSetLocked(key, append);
  } else if (const IdSet* set = FindLocked(key)) {
    out->reserve(out->size() + set->size());
    append(*set);
  }
}

void QueryIndex::Retain(const ProbeKey& key,
                        std::vector<InstanceId>* ids) const {
  auto keep_members = [ids](const IdSet& set) {
    ids->erase(std::remove_if(ids->begin(), ids->end(),
                              [&set](InstanceId id) {
                                return set.count(id.value()) == 0;
                              }),
               ids->end());
  };
  if (key.family == ProbeKey::Family::kVersion) {
    // A range spans many sets; materialize their union once.
    IdSet members;
    {
      std::lock_guard<std::mutex> lock(version_.mu);
      ForEachVersionSetLocked(key, [&](const IdSet& set) {
        members.insert(set.begin(), set.end());
      });
    }
    keep_members(members);
    return;
  }
  std::lock_guard<std::mutex> lock(MutexOf(key));
  const IdSet* set = FindLocked(key);
  if (set == nullptr) {
    ids->clear();
  } else {
    keep_members(*set);
  }
}

}  // namespace adept
