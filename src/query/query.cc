#include "query/query.h"

#include <algorithm>
#include <utility>

#include "query/query_parser.h"

namespace adept {

Result<CompiledQuery> CompiledQuery::Compile(const std::string& text) {
  ADEPT_ASSIGN_OR_RETURN(std::unique_ptr<query::Expr> root,
                         query::Parse(text));
  return CompiledQuery(std::shared_ptr<const query::Expr>(std::move(root)),
                       text);
}

CompiledQuery CompiledQuery::MatchAll() {
  auto root = std::make_shared<query::Expr>();
  root->kind = query::ExprKind::kConst;
  root->const_value = true;
  return CompiledQuery(std::move(root), "true");
}

namespace {

using query::CompareOp;
using query::Expr;
using query::ExprKind;
using query::FieldKind;
using query::Literal;

// Top-level conjuncts of the predicate (the children of an AND chain; the
// whole tree when the root is not an AND). Only these can narrow the
// candidate set — a disjunct or negated term must see every candidate.
void FlattenConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kAnd) {
    for (const auto& child : expr.children) FlattenConjuncts(*child, out);
    return;
  }
  out->push_back(&expr);
}

// How the planner can serve one conjunct: not at all, by a point lookup
// in the SnapshotTable (`id == K`), or by an index probe.
struct Probe {
  enum class Kind { kNone, kById, kIndex };
  Kind kind = Kind::kNone;
  QueryIndex::ProbeKey key;  // kIndex
  size_t count = 0;          // kIndex: the key's set size at plan time
};

DataValue LiteralToDataValue(const Literal& literal) {
  switch (literal.type) {
    case Literal::Type::kBool:
      return DataValue::Bool(literal.bool_value);
    case Literal::Type::kInt:
      return DataValue::Int(literal.int_value);
    case Literal::Type::kDouble:
      return DataValue::Double(literal.double_value);
    case Literal::Type::kString:
      return DataValue::String(literal.string_value);
  }
  return DataValue();
}

Probe ClassifyConjunct(const Expr& conjunct) {
  using Key = QueryIndex::ProbeKey;
  Probe probe;
  if (conjunct.kind == ExprKind::kNodeIn ||
      conjunct.kind == ExprKind::kActivatedSince) {
    // activated_since probes the activated-node family: every match is
    // activated in the named node, so the index candidates are a superset
    // and full evaluation applies the sequence bound. (node_set defaults
    // to kActivated on kActivatedSince exprs.)
    probe.kind = Probe::Kind::kIndex;
    probe.key = Key::Node(conjunct.node_set, conjunct.name);
    return probe;
  }
  if (conjunct.kind != ExprKind::kCompare) return probe;
  const bool is_eq = conjunct.op == CompareOp::kEq;
  const Literal& literal = conjunct.literal;
  switch (conjunct.field) {
    case FieldKind::kId:
      if (is_eq && literal.type == Literal::Type::kInt) {
        probe.kind = Probe::Kind::kById;
      }
      break;
    case FieldKind::kData:
      if (is_eq) {
        probe.kind = Probe::Kind::kIndex;
        probe.key = Key::Data(conjunct.name, LiteralToDataValue(literal));
      }
      break;
    case FieldKind::kSchema:
      if (is_eq && literal.type == Literal::Type::kInt) {
        probe.kind = Probe::Kind::kIndex;
        probe.key = Key::Schema(static_cast<uint64_t>(literal.int_value));
      }
      break;
    case FieldKind::kState:
      if (is_eq && conjunct.state_rank >= 0) {
        probe.kind = Probe::Kind::kIndex;
        probe.key = Key::State(conjunct.state_rank);
      }
      break;
    case FieldKind::kBiased:
      if (is_eq && literal.type == Literal::Type::kBool &&
          literal.bool_value) {
        probe.kind = Probe::Kind::kIndex;
        probe.key = Key::Biased();
      }
      break;
    case FieldKind::kVersion:
      if (conjunct.op != CompareOp::kNe &&
          literal.type == Literal::Type::kInt) {
        probe.kind = Probe::Kind::kIndex;
        probe.key = Key::Version(conjunct.op, literal.int_value);
      }
      break;
    default:
      break;
  }
  return probe;
}

// Merges an indexed plan into `result` by the cross-shard rule (see
// QueryResult); `evaluated` is summed where candidates are counted.
void RecordPlan(QueryResult* result, int index_probes) {
  result->used_index = true;
  result->index_probes = std::max(result->index_probes, index_probes);
}

// Re-fetches each candidate's current snapshot and re-evaluates the full
// predicate; `ids` ascending, so the matches append in id order.
void FetchAndEvaluate(const CompiledQuery& query, const SnapshotTable& table,
                      const std::vector<InstanceId>& ids,
                      QueryResult* result) {
  for (InstanceId id : ids) {
    ++result->evaluated;
    std::shared_ptr<const InstanceSnapshot> snapshot = table.Get(id);
    if (snapshot != nullptr && query.Matches(*snapshot)) {
      result->snapshots.push_back(std::move(snapshot));
    }
  }
}

}  // namespace

void RunQueryInto(const CompiledQuery& query, const SnapshotTable& table,
                  const QueryIndex* index, QueryResult* result) {
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(query.root(), &conjuncts);
  std::vector<Probe> probes;
  for (const Expr* conjunct : conjuncts) {
    Probe probe = ClassifyConjunct(*conjunct);
    if (probe.kind == Probe::Kind::kById) {
      // `id == K` needs no index at all: the snapshot table is already a
      // point-lookup structure.
      RecordPlan(result, 1);
      const int64_t raw = conjunct->literal.int_value;
      if (raw > 0) {
        FetchAndEvaluate(query, table,
                         {InstanceId(static_cast<uint64_t>(raw))}, result);
      }
      return;
    }
    if (probe.kind == Probe::Kind::kIndex && index != nullptr) {
      probes.push_back(std::move(probe));
    }
  }

  if (!probes.empty()) {
    // Plan by cardinality: draw candidates from the smallest set and
    // narrow them by the next-smallest before touching the snapshot
    // table. Candidates from the index, truth from the table: every
    // candidate is re-fetched and the full predicate re-evaluated, so a
    // trailing index entry can never surface a stale-wrong match.
    for (Probe& probe : probes) probe.count = index->Count(probe.key);
    std::stable_sort(probes.begin(), probes.end(),
                     [](const Probe& a, const Probe& b) {
                       return a.count < b.count;
                     });
    const size_t smallest = probes.front().count;
    if (smallest == 0) {
      RecordPlan(result, 1);
      return;
    }
    // A set covering more than half the table costs more as one hash
    // lookup per candidate than the sequential scan does.
    if (smallest * 2 <= table.size()) {
      std::vector<InstanceId> ids;
      index->AppendIds(probes[0].key, &ids);
      int used = 1;
      if (probes.size() > 1) {
        index->Retain(probes[1].key, &ids);
        used = 2;
      }
      RecordPlan(result, used);
      std::sort(ids.begin(), ids.end());
      FetchAndEvaluate(query, table, ids, result);
      return;
    }
  }

  // Full scan: no indexable conjunct, indexes disabled, or every probe
  // too wide to pay off.
  std::vector<std::shared_ptr<const InstanceSnapshot>> all;
  table.Collect(&all);
  result->evaluated += all.size();
  // Order the matches by (id, position) pairs read while each snapshot
  // is hot from evaluation: the sort compares integers, never snapshots.
  std::vector<std::pair<uint64_t, size_t>> keyed;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] != nullptr && query.Matches(*all[i])) {
      keyed.emplace_back(all[i]->id.value(), i);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  result->snapshots.reserve(result->snapshots.size() + keyed.size());
  for (const auto& [id, i] : keyed) {
    result->snapshots.push_back(std::move(all[i]));
  }
}

void MergeQueryRuns(const std::vector<size_t>& run_ends,
                    QueryResult* result) {
  auto& snapshots = result->snapshots;
  // One heap entry per non-empty run: the id at its head, read once per
  // element, so the merge compares integers, never snapshots.
  struct Head {
    uint64_t id;
    size_t pos;
    size_t end;
  };
  std::vector<Head> heads;
  size_t begin = 0;
  auto add_run = [&](size_t end) {
    if (begin < end) heads.push_back({snapshots[begin]->id.value(), begin, end});
    begin = end;
  };
  for (size_t end : run_ends) add_run(end);
  add_run(snapshots.size());
  if (heads.size() < 2) return;
  auto later = [](const Head& a, const Head& b) { return a.id > b.id; };
  std::make_heap(heads.begin(), heads.end(), later);
  std::vector<std::shared_ptr<const InstanceSnapshot>> merged;
  merged.reserve(snapshots.size());
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& head = heads.back();
    merged.push_back(std::move(snapshots[head.pos]));
    if (++head.pos < head.end) {
      head.id = snapshots[head.pos]->id.value();
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  snapshots.swap(merged);
}

QueryResult RunQuery(const CompiledQuery& query, const SnapshotTable& table,
                     const QueryIndex* index) {
  QueryResult result;
  RunQueryInto(query, table, index, &result);
  return result;
}

}  // namespace adept
