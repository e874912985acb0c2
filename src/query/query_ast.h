// Typed predicate tree of the process query language.
//
// A parsed query is a small expression tree evaluated against one
// InstanceSnapshot: comparisons between a snapshot field and a literal,
// node-set membership tests (activated("x") / running("x")), data-element
// presence tests (has("field")), and the boolean connectives. Evaluation
// is pure and lock-free — it touches only the immutable snapshot and the
// SchemaView its shared_ptr pins — so a predicate may run on any thread
// against any published snapshot, exactly like every other consumer of
// the PR-5 read path.
//
// Typed comparison semantics (the contract tests/query_test.cc pins):
//   * equality (==, !=) requires the operand types to match exactly; a
//     type mismatch or a missing data field makes the comparison false —
//     also for !=, so `!=` reads "present, same type, different value".
//     This keeps == exactly as selective as the value index's exact-key
//     probes, which is what makes indexed and scanned execution agree.
//   * ordering (<, <=, >, >=) compares numbers (int coerced to double
//     when mixed with a double) and strings (lexicographic); bools and
//     mismatched kinds never order (false).

#ifndef ADEPT_QUERY_QUERY_AST_H_
#define ADEPT_QUERY_QUERY_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/instance_snapshot.h"

namespace adept {
namespace query {

// Queryable snapshot fields. Everything except kData is intrinsic to the
// instance; kData resolves `data.<name>` through the snapshot's schema.
enum class FieldKind {
  kId,              // instance id (int)
  kType,            // schema type name (string)
  kSchema,          // execution schema ref (int)
  kSchemaVersion,   // schema version within the type (int)
  kState,           // "created" | "running" | "finished" (string)
  kBiased,          // ad-hoc deviated (bool)
  kVersion,         // last-publication version (int; staleness queries)
  kTraceLength,     // trace event count (int)
  kCompletedTotal,  // sum of per-node completed runs (int)
  kData,            // data.<name>: latest value of the data element
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class NodeSet { kActivated, kRunning };

const char* CompareOpToString(CompareOp op);
const char* FieldKindToString(FieldKind field);

// A literal operand as written in the query text.
struct Literal {
  enum class Type { kBool, kInt, kDouble, kString };

  Type type = Type::kInt;
  bool bool_value = false;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;

  static Literal Bool(bool v);
  static Literal Int(int64_t v);
  static Literal Double(double v);
  static Literal String(std::string v);

  // Re-parseable spelling (strings quoted + escaped; doubles keep a '.').
  void AppendTo(std::string* out) const;
};

// Lifecycle state reported for `state` comparisons and the state index:
// rank 0 "created" (never started), 1 "running", 2 "finished".
int SnapshotStateRank(const InstanceSnapshot& snapshot);
const char* StateRankName(int rank);
int StateRankOfName(const std::string& name);  // -1 when unknown

enum class ExprKind {
  kConst,
  kCompare,
  kNodeIn,
  // activated_since("node", k): the named node is currently Activated and
  // last entered that state at trace sequence <= k. Combined with
  // trace_next_sequence this answers "blocked in activity X since logical
  // time k" without any wall-clock in the snapshot.
  kActivatedSince,
  kHasData,
  kNot,
  kAnd,
  kOr,
};

struct Expr {
  ExprKind kind = ExprKind::kConst;
  // kAnd/kOr: two or more children; kNot: exactly one.
  std::vector<std::unique_ptr<Expr>> children;
  // kCompare:
  FieldKind field = FieldKind::kId;
  CompareOp op = CompareOp::kEq;
  Literal literal;
  // kCompare(kState): the literal's lifecycle rank (StateRankOfName),
  // resolved once at parse time; -1 when the literal names no state.
  int state_rank = -1;
  // kCompare(kData): data-element name; kNodeIn / kActivatedSince /
  // kHasData: node resp. data-element name. kActivatedSince also uses
  // `literal` (int) as the sequence threshold.
  std::string name;
  // kNodeIn:
  NodeSet node_set = NodeSet::kActivated;
  // kConst:
  bool const_value = false;
  // Byte offset of the construct in the query text (error reporting).
  size_t offset = 0;

  bool Eval(const InstanceSnapshot& snapshot) const;

  // Canonical re-printable form; parsing ToString() yields an equivalent
  // tree (the parser round-trip contract).
  void AppendTo(std::string* out) const;
  std::string ToString() const;
};

}  // namespace query
}  // namespace adept

#endif  // ADEPT_QUERY_QUERY_AST_H_
