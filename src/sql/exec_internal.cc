#include "sql/exec_internal.h"

#include <cmath>
#include <cstring>

namespace ironsafe::sql::exec {

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

void CollectColumns(const Expr& e, std::set<std::string>* cols,
                    bool* has_subquery) {
  switch (e.kind) {
    case ExprKind::kColumn:
      cols->insert(e.column_name);
      return;
    case ExprKind::kScalarSubquery:
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      *has_subquery = true;
      if (e.left) CollectColumns(*e.left, cols, has_subquery);
      return;
    default:
      break;
  }
  if (e.left) CollectColumns(*e.left, cols, has_subquery);
  if (e.right) CollectColumns(*e.right, cols, has_subquery);
  for (const auto& a : e.args) CollectColumns(*a, cols, has_subquery);
  for (const auto& [w, t] : e.when_clauses) {
    CollectColumns(*w, cols, has_subquery);
    CollectColumns(*t, cols, has_subquery);
  }
  if (e.else_expr) CollectColumns(*e.else_expr, cols, has_subquery);
}

bool ResolvableBy(const std::set<std::string>& cols, const Schema& schema) {
  // Find() returns -1 when absent; -2 (ambiguous) still counts as present.
  for (const std::string& c : cols) {
    if (schema.Find(c) == -1) return false;
  }
  return true;
}

std::vector<ConjunctInfo> AnalyzeConjuncts(const Expr* where) {
  std::vector<const Expr*> parts;
  SplitConjuncts(where, &parts);
  std::vector<ConjunctInfo> infos;
  for (const Expr* e : parts) {
    ConjunctInfo info;
    info.expr = e;
    CollectColumns(*e, &info.columns, &info.has_subquery);
    infos.push_back(std::move(info));
  }
  return infos;
}

bool HasAggregate(const Expr& e) {
  if (e.kind == ExprKind::kAggregate) return true;
  if (e.left && HasAggregate(*e.left)) return true;
  if (e.right && HasAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (HasAggregate(*a)) return true;
  }
  for (const auto& [w, t] : e.when_clauses) {
    if (HasAggregate(*w) || HasAggregate(*t)) return true;
  }
  if (e.else_expr && HasAggregate(*e.else_expr)) return true;
  return false;  // subquery bodies have their own aggregation contexts
}

void CollectAggregates(const Expr& e,
                       std::map<std::string, const Expr*>* aggs) {
  if (e.kind == ExprKind::kAggregate) {
    aggs->emplace(e.ToString(), &e);
    return;
  }
  if (e.left) CollectAggregates(*e.left, aggs);
  if (e.right) CollectAggregates(*e.right, aggs);
  for (const auto& a : e.args) CollectAggregates(*a, aggs);
  for (const auto& [w, t] : e.when_clauses) {
    CollectAggregates(*w, aggs);
    CollectAggregates(*t, aggs);
  }
  if (e.else_expr) CollectAggregates(*e.else_expr, aggs);
}

ExprPtr RewriteToColumns(const Expr& e, const std::set<std::string>& names) {
  std::string printed = e.ToString();
  if (names.count(printed)) return Expr::MakeColumn(printed);
  ExprPtr c = e.Clone();
  if (c->left) c->left = RewriteToColumns(*e.left, names);
  if (c->right) c->right = RewriteToColumns(*e.right, names);
  for (size_t i = 0; i < c->args.size(); ++i) {
    c->args[i] = RewriteToColumns(*e.args[i], names);
  }
  for (size_t i = 0; i < c->when_clauses.size(); ++i) {
    c->when_clauses[i].first =
        RewriteToColumns(*e.when_clauses[i].first, names);
    c->when_clauses[i].second =
        RewriteToColumns(*e.when_clauses[i].second, names);
  }
  if (c->else_expr) c->else_expr = RewriteToColumns(*e.else_expr, names);
  return c;
}

Type InferType(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.type();
    case ExprKind::kColumn: {
      int idx = schema.Find(e.column_name);
      return idx >= 0 ? schema.column(idx).type : Type::kNull;
    }
    case ExprKind::kUnary:
      return e.un_op == UnOp::kNot ? Type::kBool : InferType(*e.left, schema);
    case ExprKind::kBinary:
      switch (e.bin_op) {
        case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
        case BinOp::kGt: case BinOp::kGe: case BinOp::kAnd: case BinOp::kOr:
          return Type::kBool;
        case BinOp::kConcat:
          return Type::kString;
        case BinOp::kDiv:
          return Type::kDouble;
        default: {
          Type l = InferType(*e.left, schema);
          Type r = InferType(*e.right, schema);
          if (l == Type::kDate || r == Type::kDate) {
            return e.bin_op == BinOp::kSub && l == Type::kDate &&
                           r == Type::kDate
                       ? Type::kInt64
                       : Type::kDate;
          }
          if (l == Type::kDouble || r == Type::kDouble) return Type::kDouble;
          return Type::kInt64;
        }
      }
    case ExprKind::kAggregate:
      switch (e.agg_func) {
        case AggFunc::kCount:
        case AggFunc::kCountStar:
          return Type::kInt64;
        case AggFunc::kAvg:
          return Type::kDouble;
        case AggFunc::kSum: {
          Type t = InferType(*e.args[0], schema);
          return t == Type::kInt64 ? Type::kInt64 : Type::kDouble;
        }
        case AggFunc::kMin:
        case AggFunc::kMax:
          return InferType(*e.args[0], schema);
      }
      return Type::kNull;
    case ExprKind::kFunction: {
      const std::string& f = e.func_name;
      if (f == "year" || f == "month" || f == "day" || f == "length") {
        return Type::kInt64;
      }
      if (f == "date_add") return Type::kDate;
      if (f == "substr" || f == "substring" || f == "upper" || f == "lower") {
        return Type::kString;
      }
      if (f == "round" || f == "abs") return InferType(*e.args[0], schema);
      if (f == "coalesce" && !e.args.empty()) {
        return InferType(*e.args[0], schema);
      }
      return Type::kNull;
    }
    case ExprKind::kCase:
      if (!e.when_clauses.empty()) {
        return InferType(*e.when_clauses[0].second, schema);
      }
      return Type::kNull;
    case ExprKind::kScalarSubquery:
      return Type::kDouble;  // unknown without executing; numeric is common
    default:
      return Type::kBool;  // predicates
  }
}

Bytes KeyOf(const std::vector<Value>& values) {
  Bytes key;
  for (const Value& v : values) {
    // Normalize numerics so INT 3 and DOUBLE 3.0 group/join together.
    if (v.IsNumeric() && v.type() != Type::kDate) {
      key.push_back(1);
      double d = v.AsDouble();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      PutU64(&key, bits);
    } else {
      v.Serialize(&key);
    }
  }
  return key;
}

int PlanWorkers(const Ctx& ctx, uint64_t work, uint64_t min_per_worker) {
  int workers = common::ThreadPool::EffectiveWorkers(ctx.opts.parallelism);
  if (min_per_worker > 0) {
    uint64_t fit = std::max<uint64_t>(1, work / min_per_worker);
    workers = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(workers), fit));
  }
  return std::max(1, workers);
}

Ctx::Ctx(Database* db_in, sim::CostModel* cost_in, const ExecOptions& opts_in,
         ExecStats* stats_in, const EvalScope* outer_in)
    : db(db_in),
      cost(cost_in),
      opts(opts_in),
      stats(stats_in),
      outer(outer_in),
      runner(std::make_unique<ExecSubqueryRunner>(db_in, cost_in, opts_in)),
      eval(std::make_unique<Evaluator>(runner.get())),
      traced(opts_in.trace && cost_in != nullptr &&
             obs::CurrentTracer() != nullptr),
      access(opts_in.trace ? obs::CurrentAccessLog() : nullptr) {}

std::vector<const Expr*> TakePushableFilters(
    std::vector<ConjunctInfo>* conjuncts, const Schema& schema) {
  std::vector<const Expr*> filters;
  for (ConjunctInfo& info : *conjuncts) {
    if (info.consumed || info.has_subquery) continue;
    if (!info.columns.empty() && ResolvableBy(info.columns, schema)) {
      filters.push_back(info.expr);
      info.consumed = true;
    }
  }
  return filters;
}

std::vector<const Expr*> UnconsumedConjuncts(
    const std::vector<ConjunctInfo>& conjuncts) {
  std::vector<const Expr*> residual;
  for (const ConjunctInfo& info : conjuncts) {
    if (!info.consumed) residual.push_back(info.expr);
  }
  return residual;
}

std::vector<const Expr*> JoinPredicates::KeyExprs(bool left_side) const {
  std::vector<const Expr*> exprs;
  exprs.reserve(keys.size());
  for (const EquiKey& k : keys) {
    exprs.push_back(left_side ? k.left_expr : k.right_expr);
  }
  return exprs;
}

JoinPredicates AnalyzeJoin(std::vector<ConjunctInfo>* conjuncts,
                           const Expr* on, const Schema& left,
                           const Schema& right) {
  JoinPredicates preds;
  preds.combined = Schema::Concat(left, right);
  std::vector<const Expr*> applicable;
  SplitConjuncts(on, &applicable);
  for (ConjunctInfo& info : *conjuncts) {
    if (info.consumed || info.has_subquery || info.columns.empty()) continue;
    if (ResolvableBy(info.columns, preds.combined)) {
      applicable.push_back(info.expr);
      info.consumed = true;
    }
  }
  for (const Expr* e : applicable) {
    if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kEq) {
      std::set<std::string> lcols, rcols;
      bool lsub = false, rsub = false;
      CollectColumns(*e->left, &lcols, &lsub);
      CollectColumns(*e->right, &rcols, &rsub);
      if (!lsub && !rsub && !lcols.empty() && !rcols.empty()) {
        if (ResolvableBy(lcols, left) && ResolvableBy(rcols, right)) {
          preds.keys.push_back(EquiKey{e->left.get(), e->right.get()});
          continue;
        }
        if (ResolvableBy(lcols, right) && ResolvableBy(rcols, left)) {
          preds.keys.push_back(EquiKey{e->right.get(), e->left.get()});
          continue;
        }
      }
    }
    preds.residual.push_back(e);
  }
  return preds;
}

Result<OutputPlan> PlanOutput(const SelectStmt& stmt) {
  std::map<std::string, const Expr*> agg_exprs;
  for (const SelectItem& item : stmt.items) {
    CollectAggregates(*item.expr, &agg_exprs);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &agg_exprs);
  for (const OrderItem& o : stmt.order_by) {
    CollectAggregates(*o.expr, &agg_exprs);
  }

  OutputPlan plan;
  plan.aggregated = !agg_exprs.empty() || !stmt.group_by.empty();
  if (!plan.aggregated) {
    if (stmt.having) {
      return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
    }
    for (const SelectItem& item : stmt.items) {
      plan.items.push_back(SelectItem{item.expr->Clone(), item.alias});
    }
    for (const OrderItem& o : stmt.order_by) {
      plan.order_by.push_back(OrderItem{o.expr->Clone(), o.desc});
    }
    return plan;
  }

  // The aggregation output names its columns by printed expression, so
  // later stages read group keys and aggregates as plain columns.
  std::set<std::string> names;
  for (const auto& g : stmt.group_by) {
    plan.group_exprs.push_back(g.get());
    names.insert(g->ToString());
  }
  for (const auto& [name, e] : agg_exprs) {
    plan.aggs.push_back(e);
    names.insert(name);
  }
  for (const SelectItem& item : stmt.items) {
    plan.items.push_back(
        SelectItem{RewriteToColumns(*item.expr, names), item.alias});
  }
  if (stmt.having) plan.having = RewriteToColumns(*stmt.having, names);
  for (const OrderItem& o : stmt.order_by) {
    plan.order_by.push_back(
        OrderItem{RewriteToColumns(*o.expr, names), o.desc});
  }
  return plan;
}

Schema AggregateSchema(const OutputPlan& plan, const Schema& input) {
  Schema schema;
  for (const Expr* g : plan.group_exprs) {
    schema.AddColumn(Column{g->ToString(), InferType(*g, input)});
  }
  for (const Expr* a : plan.aggs) {
    schema.AddColumn(Column{a->ToString(), InferType(*a, input)});
  }
  return schema;
}

Result<OutputColumns> PlanOutputColumns(const OutputPlan& plan,
                                        const Schema& input) {
  OutputColumns cols;
  cols.order_from_input.assign(plan.order_by.size(), false);
  if (plan.star_only()) {
    cols.schema = input;
    return cols;
  }
  for (const SelectItem& item : plan.items) {
    if (item.expr->kind == ExprKind::kStar) {
      return Status::InvalidArgument(
          "* must be the only item in a SELECT list");
    }
    std::string name = item.alias;
    if (name.empty()) {
      if (item.expr->kind == ExprKind::kColumn) {
        const std::string& cn = item.expr->column_name;
        size_t dot = cn.rfind('.');
        name = dot == std::string::npos ? cn : cn.substr(dot + 1);
      } else {
        name = item.expr->ToString();
      }
    }
    cols.schema.AddColumn(Column{name, InferType(*item.expr, input)});
  }
  for (size_t k = 0; k < plan.order_by.size(); ++k) {
    std::set<std::string> names;
    bool sub = false;
    CollectColumns(*plan.order_by[k].expr, &names, &sub);
    if (!ResolvableBy(names, cols.schema)) {
      cols.order_from_input[k] = true;
      cols.any_hidden = true;
    }
  }
  return cols;
}

Result<QueryResult> FinishSelect(Ctx* ctx, const SelectStmt& stmt,
                                 const OutputPlan& plan, Projection proj,
                                 StageSpan* select_span) {
  QueryResult& result = proj.result;
  std::vector<std::vector<Value>>& hidden_keys = proj.hidden_keys;

  // 6. DISTINCT (dedupe on the visible columns, keeping the first row).
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Row> kept;
    std::vector<std::vector<Value>> kept_hidden;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      Bytes key = KeyOf(result.rows[i]);
      if (seen.insert(std::string(key.begin(), key.end())).second) {
        kept.push_back(std::move(result.rows[i]));
        if (!hidden_keys.empty()) {
          kept_hidden.push_back(std::move(hidden_keys[i]));
        }
      }
    }
    result.rows = std::move(kept);
    hidden_keys = std::move(kept_hidden);
  }

  // 7. ORDER BY: output-schema keys evaluated on the projected row,
  //    input-schema keys read from the hidden key vector.
  const std::vector<OrderItem>& order_by = plan.order_by;
  if (!order_by.empty()) {
    StageSpan sort_span(ctx, "sort");
    sort_span.Tag("rows", static_cast<int64_t>(result.rows.size()));
    ctx->RecordAccess(obs::AccessKind::kSort, result.rows.size());
    struct SortKey {
      std::vector<Value> keys;
      size_t index;
    };
    std::vector<SortKey> sort_keys(result.rows.size());
    for (size_t i = 0; i < result.rows.size(); ++i) {
      EvalScope scope{&result.schema, &result.rows[i], ctx->outer};
      sort_keys[i].index = i;
      size_t hidden_pos = 0;
      for (size_t k = 0; k < order_by.size(); ++k) {
        if (proj.order_from_input[k]) {
          sort_keys[i].keys.push_back(hidden_keys[i][hidden_pos++]);
          continue;
        }
        ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*order_by[k].expr, scope));
        sort_keys[i].keys.push_back(std::move(v));
      }
    }
    size_t n = result.rows.size();
    if (n > 1) {
      ctx->Charge(kSortCmpCycles * n *
                  static_cast<uint64_t>(std::max(1.0, std::log2(double(n)))));
    }
    std::stable_sort(sort_keys.begin(), sort_keys.end(),
                     [&](const SortKey& a, const SortKey& b) {
                       for (size_t k = 0; k < order_by.size(); ++k) {
                         int c = a.keys[k].Compare(b.keys[k]);
                         if (c != 0) return order_by[k].desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(n);
    for (const SortKey& sk : sort_keys) {
      sorted.push_back(std::move(result.rows[sk.index]));
    }
    result.rows = std::move(sorted);
    ctx->TrackMemory(TotalRowBytes(result.rows));
  }

  // 8. LIMIT.
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(stmt.limit);
  }

  if (ctx->stats != nullptr) ctx->stats->rows_output += result.rows.size();
  select_span->Tag("rows_out", static_cast<int64_t>(result.rows.size()));
  ctx->RecordAccess(obs::AccessKind::kResult, result.rows.size());
  ctx->FlushCharges();
  return std::move(result);
}

void AggState::Add(const Expr& agg, const Value& v) {
  if (agg.distinct) {
    Bytes ser;
    v.Serialize(&ser);
    distinct.insert(std::string(ser.begin(), ser.end()));
    return;
  }
  switch (agg.agg_func) {
    case AggFunc::kCount:
      ++count;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count;
      sum += v.AsDouble();
      if (v.type() == Type::kInt64) {
        isum += v.AsInt();
      } else {
        all_int = false;
      }
      break;
    case AggFunc::kMin:
      if (count == 0 || v.Compare(min) < 0) min = v;
      ++count;
      break;
    case AggFunc::kMax:
      if (count == 0 || v.Compare(max) > 0) max = v;
      ++count;
      break;
    default:
      break;
  }
}

Row AggregateRow(std::vector<Value> group_values,
                 const std::vector<const Expr*>& aggs,
                 const std::vector<AggState>& states) {
  Row row = std::move(group_values);
  for (size_t i = 0; i < aggs.size(); ++i) {
    const Expr* a = aggs[i];
    const AggState& st = states[i];
    switch (a->agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        row.push_back(Value::Int(
            a->distinct ? static_cast<int64_t>(st.distinct.size())
                        : static_cast<int64_t>(st.count)));
        break;
      case AggFunc::kSum:
        if (st.count == 0) {
          row.push_back(Value::Null());
        } else if (st.all_int) {
          row.push_back(Value::Int(st.isum));
        } else {
          row.push_back(Value::Double(st.sum));
        }
        break;
      case AggFunc::kAvg:
        row.push_back(st.count == 0
                          ? Value::Null()
                          : Value::Double(st.sum /
                                          static_cast<double>(st.count)));
        break;
      case AggFunc::kMin:
        row.push_back(st.count == 0 ? Value::Null() : st.min);
        break;
      case AggFunc::kMax:
        row.push_back(st.count == 0 ? Value::Null() : st.max);
        break;
    }
  }
  return row;
}

void TagMorselKept(int64_t span, const MorselSlice& slice, uint64_t kept) {
  obs::Tracer* tracer = obs::CurrentTracer();
  tracer->AddTag(span, "rows_kept", static_cast<int64_t>(kept));
  tracer->AddTag(span, "cycles", static_cast<int64_t>(slice.cycles));
  if (slice.cost.has_value()) {
    tracer->AddTag(span, "pages_decrypted",
                   static_cast<int64_t>(slice.cost->pages_decrypted()));
  }
}

Result<QueryResult> SelectWithoutFrom(Ctx* ctx, const SelectStmt& stmt) {
  QueryResult result;
  EvalScope scope{nullptr, nullptr, ctx->outer};
  Row row;
  for (const SelectItem& item : stmt.items) {
    ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*item.expr, scope));
    result.schema.AddColumn(Column{
        item.alias.empty() ? item.expr->ToString() : item.alias, v.type()});
    row.push_back(std::move(v));
  }
  result.rows.push_back(std::move(row));
  return result;
}

}  // namespace ironsafe::sql::exec
