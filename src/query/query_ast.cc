#include "query/query_ast.h"

#include <cstdio>
#include <utility>

#include "model/node.h"

namespace adept {
namespace query {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "==";
}

const char* FieldKindToString(FieldKind field) {
  switch (field) {
    case FieldKind::kId:
      return "id";
    case FieldKind::kType:
      return "type";
    case FieldKind::kSchema:
      return "schema";
    case FieldKind::kSchemaVersion:
      return "schema_version";
    case FieldKind::kState:
      return "state";
    case FieldKind::kBiased:
      return "biased";
    case FieldKind::kVersion:
      return "version";
    case FieldKind::kTraceLength:
      return "trace_length";
    case FieldKind::kCompletedTotal:
      return "completed_total";
    case FieldKind::kData:
      return "data";
  }
  return "id";
}

Literal Literal::Bool(bool v) {
  Literal l;
  l.type = Type::kBool;
  l.bool_value = v;
  return l;
}

Literal Literal::Int(int64_t v) {
  Literal l;
  l.type = Type::kInt;
  l.int_value = v;
  return l;
}

Literal Literal::Double(double v) {
  Literal l;
  l.type = Type::kDouble;
  l.double_value = v;
  return l;
}

Literal Literal::String(std::string v) {
  Literal l;
  l.type = Type::kString;
  l.string_value = std::move(v);
  return l;
}

namespace {

void AppendQuoted(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        out->push_back(c);
        break;
    }
  }
  out->push_back('"');
}

}  // namespace

void Literal::AppendTo(std::string* out) const {
  switch (type) {
    case Type::kBool:
      *out += bool_value ? "true" : "false";
      return;
    case Type::kInt:
      *out += std::to_string(int_value);
      return;
    case Type::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", double_value);
      std::string s(buf);
      // Keep the literal a double through a re-parse: "%g" drops the
      // point for integral values, which would flip the type to int.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos) {
        s += ".0";
      }
      *out += s;
      return;
    }
    case Type::kString:
      AppendQuoted(string_value, out);
      return;
  }
}

int SnapshotStateRank(const InstanceSnapshot& snapshot) {
  if (snapshot.finished) return 2;
  if (snapshot.started) return 1;
  return 0;
}

const char* StateRankName(int rank) {
  switch (rank) {
    case 0:
      return "created";
    case 1:
      return "running";
    default:
      return "finished";
  }
}

int StateRankOfName(const std::string& name) {
  if (name == "created") return 0;
  if (name == "running") return 1;
  if (name == "finished") return 2;
  return -1;
}

namespace {

// The evaluated value of a snapshot field — Literal's domain plus
// "missing" (unknown data element, or never written).
struct FieldValue {
  enum class Type { kMissing, kBool, kInt, kDouble, kString };
  Type type = Type::kMissing;
  bool bool_value = false;
  int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
};

FieldValue MissingValue() { return FieldValue(); }

FieldValue IntValue(int64_t v) {
  FieldValue f;
  f.type = FieldValue::Type::kInt;
  f.int_value = v;
  return f;
}

FieldValue BoolValue(bool v) {
  FieldValue f;
  f.type = FieldValue::Type::kBool;
  f.bool_value = v;
  return f;
}

FieldValue StringValue(std::string v) {
  FieldValue f;
  f.type = FieldValue::Type::kString;
  f.string_value = std::move(v);
  return f;
}

FieldValue ExtractField(const InstanceSnapshot& snapshot, FieldKind field,
                        const std::string& name) {
  switch (field) {
    case FieldKind::kId:
      return IntValue(static_cast<int64_t>(snapshot.id.value()));
    case FieldKind::kType:
      if (snapshot.schema == nullptr) return MissingValue();
      return StringValue(snapshot.schema->type_name());
    case FieldKind::kSchema:
      return IntValue(static_cast<int64_t>(snapshot.schema_ref.value()));
    case FieldKind::kSchemaVersion:
      if (snapshot.schema == nullptr) return MissingValue();
      return IntValue(snapshot.schema->version());
    case FieldKind::kState:
      return StringValue(StateRankName(SnapshotStateRank(snapshot)));
    case FieldKind::kBiased:
      return BoolValue(snapshot.biased);
    case FieldKind::kVersion:
      return IntValue(static_cast<int64_t>(snapshot.version));
    case FieldKind::kTraceLength:
      return IntValue(snapshot.trace_length);
    case FieldKind::kCompletedTotal:
      return IntValue(static_cast<int64_t>(snapshot.completed_total));
    case FieldKind::kData: {
      if (snapshot.schema == nullptr) return MissingValue();
      DataId id = snapshot.schema->FindDataByName(name);
      if (!id.valid()) return MissingValue();
      const DataValue* found = snapshot.data_values.Find(id);
      if (found == nullptr) return MissingValue();
      const DataValue& value = *found;
      switch (value.type()) {
        case DataType::kBool:
          return BoolValue(value.as_bool());
        case DataType::kInt:
          return IntValue(value.as_int());
        case DataType::kDouble: {
          FieldValue f;
          f.type = FieldValue::Type::kDouble;
          f.double_value = value.as_double();
          return f;
        }
        case DataType::kString:
          return StringValue(value.as_string());
      }
      return MissingValue();
    }
  }
  return MissingValue();
}

bool SameType(const FieldValue& v, const Literal& lit) {
  switch (lit.type) {
    case Literal::Type::kBool:
      return v.type == FieldValue::Type::kBool;
    case Literal::Type::kInt:
      return v.type == FieldValue::Type::kInt;
    case Literal::Type::kDouble:
      return v.type == FieldValue::Type::kDouble;
    case Literal::Type::kString:
      return v.type == FieldValue::Type::kString;
  }
  return false;
}

bool EqualValues(const FieldValue& v, const Literal& lit) {
  switch (lit.type) {
    case Literal::Type::kBool:
      return v.bool_value == lit.bool_value;
    case Literal::Type::kInt:
      return v.int_value == lit.int_value;
    case Literal::Type::kDouble:
      return v.double_value == lit.double_value;
    case Literal::Type::kString:
      return v.string_value == lit.string_value;
  }
  return false;
}

bool IsNumeric(FieldValue::Type t) {
  return t == FieldValue::Type::kInt || t == FieldValue::Type::kDouble;
}

bool IsNumeric(Literal::Type t) {
  return t == Literal::Type::kInt || t == Literal::Type::kDouble;
}

bool OrderToBool(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
  }
  return false;
}

bool CompareValues(const FieldValue& v, CompareOp op, const Literal& lit) {
  if (v.type == FieldValue::Type::kMissing) return false;
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    if (!SameType(v, lit)) return false;
    const bool eq = EqualValues(v, lit);
    return op == CompareOp::kEq ? eq : !eq;
  }
  // Ordering.
  if (IsNumeric(v.type) && IsNumeric(lit.type)) {
    if (v.type == FieldValue::Type::kInt && lit.type == Literal::Type::kInt) {
      const int64_t a = v.int_value;
      const int64_t b = lit.int_value;
      return OrderToBool(op, a < b ? -1 : (a > b ? 1 : 0));
    }
    const double a = v.type == FieldValue::Type::kInt
                         ? static_cast<double>(v.int_value)
                         : v.double_value;
    const double b = lit.type == Literal::Type::kInt
                         ? static_cast<double>(lit.int_value)
                         : lit.double_value;
    return OrderToBool(op, a < b ? -1 : (a > b ? 1 : 0));
  }
  if (v.type == FieldValue::Type::kString &&
      lit.type == Literal::Type::kString) {
    const int cmp = v.string_value.compare(lit.string_value);
    return OrderToBool(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0));
  }
  return false;
}

bool NodeSetContains(const InstanceSnapshot& snapshot, NodeSet set,
                     const std::string& name) {
  if (snapshot.schema == nullptr) return false;
  const PersistentSet<NodeId>& nodes = set == NodeSet::kActivated
                                           ? snapshot.activated_nodes
                                           : snapshot.running_nodes;
  // The activated set can hold non-activity residents (an XOR split
  // waiting for its decision data); the query predicate keeps its
  // pre-refactor meaning of "activity offered/being worked on".
  bool found = false;
  nodes.ForEach([&](NodeId id) {
    if (found) return;
    const Node* node = snapshot.schema->FindNode(id);
    if (node != nullptr && node->type == NodeType::kActivity &&
        node->name == name) {
      found = true;
    }
  });
  return found;
}

}  // namespace

bool Expr::Eval(const InstanceSnapshot& snapshot) const {
  switch (kind) {
    case ExprKind::kConst:
      return const_value;
    case ExprKind::kCompare:
      // `state` compares by lifecycle rank (created < running < finished),
      // not by the lexicographic order of the state names; the parser
      // resolved the literal's rank (-1 for an ordering against a
      // non-state literal, which never matches).
      if (field == FieldKind::kState) {
        if (state_rank < 0) return false;
        const int rank = SnapshotStateRank(snapshot);
        return OrderToBool(op, rank < state_rank
                                   ? -1
                                   : (rank > state_rank ? 1 : 0));
      }
      return CompareValues(ExtractField(snapshot, field, name), op, literal);
    case ExprKind::kNodeIn:
      return NodeSetContains(snapshot, node_set, name);
    case ExprKind::kActivatedSince: {
      if (snapshot.schema == nullptr) return false;
      if (literal.type != Literal::Type::kInt) return false;
      bool found = false;
      snapshot.activated_nodes.ForEach([&](NodeId id) {
        if (found) return;
        const Node* node = snapshot.schema->FindNode(id);
        if (node == nullptr || node->type != NodeType::kActivity ||
            node->name != name) {
          return;
        }
        const int64_t* since = snapshot.activated_since.Find(id);
        if (since != nullptr && *since <= literal.int_value) found = true;
      });
      return found;
    }
    case ExprKind::kHasData: {
      if (snapshot.schema == nullptr) return false;
      DataId id = snapshot.schema->FindDataByName(name);
      return id.valid() && snapshot.data_values.Contains(id);
    }
    case ExprKind::kNot:
      return !children[0]->Eval(snapshot);
    case ExprKind::kAnd:
      for (const auto& child : children) {
        if (!child->Eval(snapshot)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const auto& child : children) {
        if (child->Eval(snapshot)) return true;
      }
      return false;
  }
  return false;
}

void Expr::AppendTo(std::string* out) const {
  switch (kind) {
    case ExprKind::kConst:
      *out += const_value ? "true" : "false";
      return;
    case ExprKind::kCompare:
      if (field == FieldKind::kData) {
        *out += "data.";
        *out += name;
      } else {
        *out += FieldKindToString(field);
      }
      *out += ' ';
      *out += CompareOpToString(op);
      *out += ' ';
      literal.AppendTo(out);
      return;
    case ExprKind::kNodeIn:
      *out += node_set == NodeSet::kActivated ? "activated(" : "running(";
      AppendQuoted(name, out);
      *out += ')';
      return;
    case ExprKind::kActivatedSince:
      *out += "activated_since(";
      AppendQuoted(name, out);
      *out += ", ";
      literal.AppendTo(out);
      *out += ')';
      return;
    case ExprKind::kHasData:
      *out += "has(";
      AppendQuoted(name, out);
      *out += ')';
      return;
    case ExprKind::kNot:
      *out += "!(";
      children[0]->AppendTo(out);
      *out += ')';
      return;
    case ExprKind::kAnd:
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) *out += " && ";
        const bool parens = children[i]->kind == ExprKind::kOr;
        if (parens) *out += '(';
        children[i]->AppendTo(out);
        if (parens) *out += ')';
      }
      return;
    case ExprKind::kOr:
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) *out += " || ";
        children[i]->AppendTo(out);
      }
      return;
  }
}

std::string Expr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

}  // namespace query
}  // namespace adept
