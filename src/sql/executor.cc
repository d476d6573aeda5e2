#include "sql/executor.h"

#include <iterator>
#include <map>
#include <unordered_map>

#include "sql/database.h"
#include "sql/exec_internal.h"

namespace ironsafe::sql {

namespace exec {

namespace {

struct RelData {
  Schema schema;
  std::vector<Row> rows;
};

/// The row-at-a-time volcano engine's operators for RunSelect: every
/// intermediate is a vector of boxed rows and every expression is
/// evaluated per row.
struct RowEngine {
  using Rel = RelData;
  using Projected = Projection;
  using Out = QueryResult;
  static constexpr std::string_view kEquiJoinKind = "hash";

  static uint64_t Rows(const RelData& rel) { return rel.rows.size(); }
  static Result<RelData> Derived(Ctx* ctx, const SelectStmt& subquery);
  static Status Scan(Ctx* ctx, Table* table,
                     const std::vector<const Expr*>& filters, RelData* rel);
  static Result<RelData> Join(Ctx* ctx, RelData left, RelData right,
                              const JoinPredicates& preds);
  static Status Filter(Ctx* ctx, RelData* rel,
                       const std::vector<const Expr*>& residual);
  static Result<RelData> Aggregate(Ctx* ctx, RelData input,
                                   const OutputPlan& plan);
  static Status Having(Ctx* ctx, RelData* rel, const Expr& having);
  static Status Project(Ctx* ctx, const OutputPlan& plan, RelData input,
                        Projection* out);
  static constexpr auto Finish = &FinishSelect;
};

// ---- Scan ----

struct RowSlice : MorselSlice {
  std::vector<Row> rows;
};

/// Morsel-parallel scan: each worker reads its unit range with a private
/// cursor and runner-less evaluator and keeps the rows that pass the
/// pushed filters. Concatenation order equals NewCursor order.
Status ScanTableMorsels(Ctx* ctx, Table* table,
                        const std::vector<const Expr*>& filters,
                        RelData* rel) {
  const Schema* schema = &rel->schema;
  const EvalScope* outer = ctx->outer;
  return RunMorsels<RowSlice>(
      ctx, table,
      [&](RowSlice* slice, sim::CostModel* cost) -> Status {
        auto cursor =
            table->NewMorselCursor(slice->unit_begin, slice->unit_end, cost);
        // Pushed-down filters are subquery-free by construction, so a
        // runner-less evaluator matches the shared one bit for bit.
        Evaluator eval(nullptr);
        Row row;
        while (true) {
          ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
          if (!more) return Status::OK();
          ++slice->rows_scanned;
          slice->cycles += kScanRowCycles;
          EvalScope scope{schema, &row, outer};
          bool keep = true;
          for (const Expr* f : filters) {
            slice->cycles += kFilterCycles;
            ASSIGN_OR_RETURN(bool ok, eval.EvalBool(*f, scope));
            if (!ok) {
              keep = false;
              break;
            }
          }
          if (keep) slice->rows.push_back(std::move(row));
        }
      },
      [&](RowSlice& s, int64_t span) {
        if (span >= 0) TagMorselKept(span, s, s.rows.size());
        rel->rows.insert(rel->rows.end(),
                         std::make_move_iterator(s.rows.begin()),
                         std::make_move_iterator(s.rows.end()));
      });
}

Result<RelData> RowEngine::Derived(Ctx* ctx, const SelectStmt& subquery) {
  ASSIGN_OR_RETURN(QueryResult sub, ExecuteSelect(ctx->db, subquery, ctx->outer,
                                                  ctx->cost, ctx->opts));
  return RelData{std::move(sub.schema), std::move(sub.rows)};
}

Status RowEngine::Scan(Ctx* ctx, Table* table,
                       const std::vector<const Expr*>& filters, RelData* rel) {
  if (table != nullptr && table->morsel_units() > 0) {
    return ScanTableMorsels(ctx, table, filters, rel);
  }
  auto consume = [&](Row& row) -> Status {
    if (ctx->stats != nullptr) ++ctx->stats->rows_scanned;
    ctx->Charge(kScanRowCycles);
    EvalScope scope{&rel->schema, &row, ctx->outer};
    for (const Expr* f : filters) {
      ctx->Charge(kFilterCycles);
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*f, scope));
      if (!ok) return Status::OK();
    }
    rel->rows.push_back(std::move(row));
    return Status::OK();
  };
  if (table != nullptr) {
    // Empty table or no morsel support: plain serial cursor.
    auto cursor = table->NewCursor(ctx->cost);
    Row row;
    while (true) {
      ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
      if (!more) return Status::OK();
      RETURN_IF_ERROR(consume(row));
    }
  }
  // Derived table: its rows are the scan's source.
  std::vector<Row> source = std::move(rel->rows);
  rel->rows.clear();
  for (Row& row : source) RETURN_IF_ERROR(consume(row));
  return Status::OK();
}

// ---- Join ----

/// Evaluates the equi-join key expressions for every row of `rel` into a
/// serialized-key vector, one contiguous row range per worker. Hash-table
/// insertion and probing stay serial in table order.
Result<std::vector<Bytes>> ComputeJoinKeys(
    Ctx* ctx, const RelData& rel, const std::vector<const Expr*>& exprs,
    uint64_t per_row_cycles) {
  const size_t n = rel.rows.size();
  std::vector<Bytes> out(n);
  const EvalScope* outer = ctx->outer;
  auto keys_of = [&](size_t lo, size_t hi, uint64_t* cycles) -> Status {
    Evaluator eval(nullptr);
    std::vector<Value> kv;
    for (size_t i = lo; i < hi; ++i) {
      *cycles += per_row_cycles;
      EvalScope scope{&rel.schema, &rel.rows[i], outer};
      kv.clear();
      kv.reserve(exprs.size());
      for (const Expr* e : exprs) {
        ASSIGN_OR_RETURN(Value v, eval.Eval(*e, scope));
        kv.push_back(std::move(v));
      }
      out[i] = KeyOf(kv);
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(RunJoinKeys(ctx, n, n, "row", keys_of));
  return out;
}

Result<RelData> RowEngine::Join(Ctx* ctx, RelData left, RelData right,
                                const JoinPredicates& preds) {
  RelData out;
  out.schema = preds.combined;

  auto emit = [&](const Row& l, const Row& r) -> Status {
    Row joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    EvalScope scope{&out.schema, &joined, ctx->outer};
    for (const Expr* e : preds.residual) {
      ctx->Charge(kFilterCycles);
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      if (!ok) return Status::OK();
    }
    out.rows.push_back(std::move(joined));
    return Status::OK();
  };

  if (preds.keys.empty()) {
    // Nested-loop (cross product + residual filter).
    ctx->TrackMemory(TotalRowBytes(right.rows));
    for (const Row& l : left.rows) {
      for (const Row& r : right.rows) {
        ctx->Charge(kJoinProbeCycles);
        RETURN_IF_ERROR(emit(l, r));
      }
    }
    return out;
  }

  // Hash join; build on the smaller input (right by default). Key
  // evaluation — the per-row CPU work — runs morsel-parallel; the
  // insert/probe/emit passes stay serial in table order (residual
  // predicates may contain subqueries), preserving output order.
  bool build_right = TotalRowBytes(right.rows) <= TotalRowBytes(left.rows);
  const RelData& build = build_right ? right : left;
  const RelData& probe = build_right ? left : right;

  ASSIGN_OR_RETURN(std::vector<Bytes> build_keys,
                   ComputeJoinKeys(ctx, build, preds.KeyExprs(!build_right),
                                   kJoinBuildCycles));
  std::unordered_map<std::string, std::vector<size_t>> table;
  table.reserve(build.rows.size());
  for (size_t i = 0; i < build.rows.size(); ++i) {
    table[std::string(build_keys[i].begin(), build_keys[i].end())]
        .push_back(i);
  }
  ctx->TrackMemory(TotalRowBytes(build.rows));

  ASSIGN_OR_RETURN(std::vector<Bytes> probe_keys,
                   ComputeJoinKeys(ctx, probe, preds.KeyExprs(build_right),
                                   kJoinProbeCycles));
  for (size_t pi = 0; pi < probe.rows.size(); ++pi) {
    const Row& prow = probe.rows[pi];
    auto it = table.find(
        std::string(probe_keys[pi].begin(), probe_keys[pi].end()));
    if (it == table.end()) continue;
    for (size_t bi : it->second) {
      const Row& l = build_right ? prow : build.rows[bi];
      const Row& r = build_right ? build.rows[bi] : prow;
      RETURN_IF_ERROR(emit(l, r));
    }
  }
  return out;
}

// ---- Filter / HAVING ----

Status RowEngine::Filter(Ctx* ctx, RelData* rel,
                         const std::vector<const Expr*>& residual) {
  uint64_t rows_in = rel->rows.size();
  std::vector<Row> kept;
  for (Row& row : rel->rows) {
    EvalScope scope{&rel->schema, &row, ctx->outer};
    bool pass = true;
    for (const Expr* e : residual) {
      ctx->Charge(kFilterCycles);
      ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(*e, scope));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(std::move(row));
  }
  rel->rows = std::move(kept);
  ctx->RecordAccess(obs::AccessKind::kFilter, rows_in, rel->rows.size());
  return Status::OK();
}

Status RowEngine::Having(Ctx* ctx, RelData* rel, const Expr& having) {
  std::vector<Row> kept;
  for (Row& row : rel->rows) {
    ctx->Charge(kFilterCycles);
    EvalScope scope{&rel->schema, &row, ctx->outer};
    ASSIGN_OR_RETURN(bool ok, ctx->eval->EvalBool(having, scope));
    if (ok) kept.push_back(std::move(row));
  }
  rel->rows = std::move(kept);
  return Status::OK();
}

// ---- Aggregation ----

Result<RelData> RowEngine::Aggregate(Ctx* ctx, RelData input,
                                     const OutputPlan& plan) {
  RelData out;
  out.schema = AggregateSchema(plan, input.schema);
  const std::vector<const Expr*>& aggs = plan.aggs;

  std::map<std::string, std::pair<std::vector<Value>, std::vector<AggState>>>
      groups;

  for (const Row& row : input.rows) {
    ctx->Charge(kAggUpdateCycles);
    EvalScope scope{&input.schema, &row, ctx->outer};
    std::vector<Value> gvals;
    for (const Expr* g : plan.group_exprs) {
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*g, scope));
      gvals.push_back(std::move(v));
    }
    Bytes key = KeyOf(gvals);
    auto [it, inserted] = groups.try_emplace(
        std::string(key.begin(), key.end()),
        std::make_pair(std::move(gvals), std::vector<AggState>(aggs.size())));
    auto& states = it->second.second;

    for (size_t i = 0; i < aggs.size(); ++i) {
      const Expr* a = aggs[i];
      if (a->agg_func == AggFunc::kCountStar) {
        ++states[i].count;
        continue;
      }
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*a->args[0], scope));
      if (!v.is_null()) states[i].Add(*a, v);
    }
  }

  // Global aggregate over zero rows still yields one output row.
  if (groups.empty() && plan.group_exprs.empty()) {
    groups.emplace("", std::make_pair(std::vector<Value>{},
                                      std::vector<AggState>(aggs.size())));
  }

  uint64_t mem = 0;
  for (auto& [key, group] : groups) {
    mem += key.size() + group.second.size() * sizeof(AggState);
    out.rows.push_back(
        AggregateRow(std::move(group.first), aggs, group.second));
  }
  ctx->TrackMemory(mem);
  ctx->RecordAccess(obs::AccessKind::kAggregate, input.rows.size(),
                    out.rows.size());
  return out;
}

// ---- Projection ----

Status RowEngine::Project(Ctx* ctx, const OutputPlan& plan, RelData input,
                          Projection* out) {
  ASSIGN_OR_RETURN(OutputColumns cols, PlanOutputColumns(plan, input.schema));
  out->result.schema = std::move(cols.schema);
  out->order_from_input = std::move(cols.order_from_input);
  if (plan.star_only()) {
    out->result.rows = std::move(input.rows);
    return Status::OK();
  }
  for (const Row& row : input.rows) {
    ctx->Charge(kProjectCycles);
    EvalScope scope{&input.schema, &row, ctx->outer};
    Row out_row;
    out_row.reserve(plan.items.size());
    for (const SelectItem& item : plan.items) {
      ASSIGN_OR_RETURN(Value v, ctx->eval->Eval(*item.expr, scope));
      out_row.push_back(std::move(v));
    }
    if (cols.any_hidden) {
      std::vector<Value> hk;
      for (size_t k = 0; k < plan.order_by.size(); ++k) {
        if (!out->order_from_input[k]) continue;
        ASSIGN_OR_RETURN(Value v,
                         ctx->eval->Eval(*plan.order_by[k].expr, scope));
        hk.push_back(std::move(v));
      }
      out->hidden_keys.push_back(std::move(hk));
    }
    out->result.rows.push_back(std::move(out_row));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteSelectRow(Database* db, const SelectStmt& stmt,
                                     const EvalScope* outer,
                                     sim::CostModel* cost,
                                     const ExecOptions& opts,
                                     ExecStats* stats) {
  Ctx ctx(db, cost, opts, stats, outer);
  if (stmt.from.empty()) return SelectWithoutFrom(&ctx, stmt);
  return RunSelect<RowEngine>(&ctx, stmt);
}

}  // namespace exec

Result<QueryResult> ExecuteSelect(Database* db, const SelectStmt& stmt,
                                  const EvalScope* outer, sim::CostModel* cost,
                                  const ExecOptions& opts, ExecStats* stats) {
  if (opts.oblivious) {
    // One padded pipeline for both engine settings (the engine picks the
    // scan decode path only; see docs/OBLIVIOUS.md).
    return exec::ExecuteSelectOblivious(db, stmt, outer, cost, opts, stats);
  }
  if (opts.engine == ExecEngine::kRow) {
    return exec::ExecuteSelectRow(db, stmt, outer, cost, opts, stats);
  }
  return exec::ExecuteSelectVectorized(db, stmt, outer, cost, opts, stats);
}

}  // namespace ironsafe::sql
