#include "dist/fleet.h"

#include <algorithm>
#include <limits>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/retry.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sql/parser.h"

namespace ironsafe::dist {

namespace {

/// Shard group for one row under a derived route.
int RouteRow(int key_index, sql::PartitionKind kind, int64_t min_key,
             int64_t chunk, const sql::Row& row, int shard_count) {
  int64_t key = row[key_index].AsInt();
  if (kind == sql::PartitionKind::kHash) {
    return static_cast<int>(sql::PartitionHash(static_cast<uint64_t>(key)) %
                            static_cast<uint64_t>(shard_count));
  }
  int64_t offset = std::max<int64_t>(0, key - min_key);
  return static_cast<int>(std::min<int64_t>(offset / chunk, shard_count - 1));
}

}  // namespace

ShardedCsaFleet::ShardedCsaFleet(const FleetOptions& options)
    : options_(options),
      host_machine_(ToBytes("ironsafe-host-platform")),
      manufacturer_(ToBytes("ironsafe-device-manufacturer")),
      channel_drbg_(ToBytes("dist-channel-drbg")),
      attest_drbg_(ToBytes("dist-attest-drbg")) {
  host_enclave_ = host_machine_.LoadEnclave(
      "host-engine", ToBytes("ironsafe host engine v3"));
}

Result<std::unique_ptr<ShardedCsaFleet>> ShardedCsaFleet::Create(
    const FleetOptions& options) {
  if (options.shard_count < 1) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.replicas_per_shard < 1) {
    return Status::InvalidArgument("replicas_per_shard must be >= 1");
  }
  auto fleet = std::unique_ptr<ShardedCsaFleet>(new ShardedCsaFleet(options));
  for (int g = 0; g < options.shard_count; ++g) {
    for (int r = 0; r < options.replicas_per_shard; ++r) {
      std::string node_id =
          "shard" + std::to_string(g) + "-r" + std::to_string(r);
      ASSIGN_OR_RETURN(std::unique_ptr<engine::StorageNode> n,
                       engine::StorageNode::Create(
                           "ironsafe-storage-lx2160a-" + node_id, node_id,
                           fleet->manufacturer_));
      RETURN_IF_ERROR(fleet->AttestAndConnect(n.get()));
      fleet->nodes_.push_back(std::move(n));
    }
  }
  return fleet;
}

Status ShardedCsaFleet::AttestAndConnect(engine::StorageNode* n) {
  // Challenge-response attestation against the manufacturer root (the
  // monitor's admission step, paper Figure 4.b): only a node whose boot
  // chain verifies joins the fleet and receives a channel key.
  Bytes challenge = attest_drbg_.Generate(32);
  ASSIGN_OR_RETURN(tee::TzAttestationResponse response,
                   n->device()->RespondToChallenge(challenge));
  RETURN_IF_ERROR(tee::VerifyTzAttestation(manufacturer_.root_public_key(),
                                           n->node_id(), challenge, response));
  IRONSAFE_COUNTER_ADD("dist.attestations", 1);
  return n->Rekey(&channel_drbg_);
}

Status ShardedCsaFleet::Load(
    const std::function<Status(sql::Database*)>& loader) {
  // Generate once into a staging database, then route each row to its
  // shard group and load every replica of the group with the identical
  // slice. Loaders insert in ascending partition-key order, so each
  // slice inherits key-sorted row order — the property the host's
  // k-way shard merge needs to reconstruct single-node row order.
  auto staging = sql::Database::CreateInMemory();
  RETURN_IF_ERROR(loader(staging.get()));

  routes_.clear();
  for (const std::string& name : staging->TableNames()) {
    ASSIGN_OR_RETURN(sql::Table * table, staging->GetTable(name));
    const auto& rows = static_cast<const sql::MemoryTable*>(table)->rows();

    const sql::TablePartition* spec = nullptr;
    for (const sql::TablePartition& s : options_.partitions) {
      if (s.table == name) spec = &s;
    }

    TableRoute route;
    if (spec != nullptr && spec->kind != sql::PartitionKind::kReplicated) {
      route.kind = spec->kind;
      route.key_index = table->schema().Find(spec->key_column);
      if (route.key_index < 0) {
        return Status::InvalidArgument("partition key " + spec->key_column +
                                       " not found in table " + name);
      }
      for (const sql::Row& row : rows) {
        if (row[route.key_index].type() != sql::Type::kInt64) {
          return Status::InvalidArgument("partition key " + spec->key_column +
                                         " of " + name + " must be INTEGER");
        }
      }
      if (route.kind == sql::PartitionKind::kRange) {
        int64_t min_key = std::numeric_limits<int64_t>::max();
        int64_t max_key = std::numeric_limits<int64_t>::min();
        for (const sql::Row& row : rows) {
          int64_t key = row[route.key_index].AsInt();
          min_key = std::min(min_key, key);
          max_key = std::max(max_key, key);
        }
        if (rows.empty()) min_key = max_key = 0;
        route.min_key = min_key;
        int64_t span = max_key - min_key + 1;
        route.chunk = std::max<int64_t>(
            1, (span + options_.shard_count - 1) / options_.shard_count);
      }
    }

    std::vector<std::vector<sql::Row>> slices(options_.shard_count);
    if (route.kind == sql::PartitionKind::kReplicated) {
      for (auto& slice : slices) slice = rows;
    } else {
      for (const sql::Row& row : rows) {
        slices[RouteRow(route.key_index, route.kind, route.min_key,
                        route.chunk, row, options_.shard_count)]
            .push_back(row);
      }
    }

    for (int g = 0; g < options_.shard_count; ++g) {
      for (int r = 0; r < options_.replicas_per_shard; ++r) {
        sql::Database* db = node(g, r).db();
        RETURN_IF_ERROR(db->CreateTable(name, table->schema()));
        RETURN_IF_ERROR(db->BulkLoad(name, slices[g], nullptr));
      }
    }
    routes_[name] = route;
  }

  // Keep the paper's database:EPC pressure ratio against one logical
  // copy of the data (replicas don't raise host EPC pressure).
  uint64_t data_bytes = 0;
  for (int g = 0; g < options_.shard_count; ++g) {
    data_bytes += node(g, 0).data_bytes();
  }
  hardware_.sgx.epc_bytes = engine::ScaledEpcBytes(data_bytes);
  for (auto& n : nodes_) n->FinishLoad();
  return Status::OK();
}

bool ShardedCsaFleet::CoLocated(const std::string& a,
                                const std::string& b) const {
  auto ia = routes_.find(a);
  auto ib = routes_.find(b);
  if (ia == routes_.end() || ib == routes_.end()) return false;
  const TableRoute& ra = ia->second;
  const TableRoute& rb = ib->second;
  if (ra.kind != rb.kind) return false;
  // Hash routes place equal key values identically regardless of table;
  // range routes need the same window geometry.
  if (ra.kind == sql::PartitionKind::kHash) return true;
  if (ra.kind == sql::PartitionKind::kRange) {
    return ra.min_key == rb.min_key && ra.chunk == rb.chunk;
  }
  return false;
}

Result<FleetOutcome> ShardedCsaFleet::Run(const std::string& sql) {
  FleetOutcome outcome;
  outcome.cost = sim::CostModel(hardware_);
  obs::SpanGuard query_span("query", "dist", &outcome.cost);
  query_span.Tag("shards", static_cast<int64_t>(options_.shard_count));

  obs::SpanGuard plan_span("plan", "dist", &outcome.cost);
  ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                   sql::ParseSelect(sql));
  PlannerOptions planner_options;
  planner_options.shard_count = options_.shard_count;
  planner_options.partial_aggregation = options_.partial_aggregation;
  planner_options.co_located = [this](const std::string& a,
                                      const std::string& b) {
    return CoLocated(a, b);
  };
  ASSIGN_OR_RETURN(DistPlan plan,
                   PlanQuery(*stmt, *node(0, 0).db(), options_.partitions,
                             planner_options));
  outcome.partial_aggregation = plan.partial_aggregation;
  plan_span.Tag("fragments", static_cast<int64_t>(plan.fragments.size()));
  plan_span.Tag("partial_aggregation",
                static_cast<int64_t>(plan.partial_aggregation ? 1 : 0));
  plan_span.Close();

  // Cold per-query state on every node, as in the single-node testbed.
  for (auto& n : nodes_) n->BeginQuery(engine::kStorageMemoryBytes);
  const sql::ExecOptions storage_opts = engine::StorageExecOptions(
      engine::kStorageCores, engine::kStorageMemoryBytes,
      sql::ExecEngine::kVectorized, /*oblivious=*/false);

  const int groups = options_.shard_count;
  // The groups execute sequentially here but on disjoint simulated
  // hardware: each runs against its own zero-based child model and the
  // merge below advances the fleet clock by the slowest group only
  // (MergeParallelTimelines). This keeps traces and costs bit-identical
  // for every real worker count while still modelling the scale-out.
  std::vector<sim::CostModel> children(groups, sim::CostModel(hardware_));
  std::vector<int> selected(groups, 0);  // current replica per group
  std::vector<std::vector<sql::QueryResult>> shipped(plan.fragments.size());
  for (auto& s : shipped) s.resize(groups);
  sim::SimNanos phase_start = outcome.cost.elapsed_ns();

  for (int g = 0; g < groups; ++g) {
    sim::CostModel* child = &children[g];
    obs::SpanGuard shard_span("shard-" + std::to_string(g), "dist", child);
    for (size_t f = 0; f < plan.fragments.size(); ++f) {
      const FragmentPlacement& place = plan.fragments[f];
      if (!place.partitioned && place.home_group != g) continue;

      // Heartbeat check before dispatch: an injected node outage fails
      // the group over to its next replica (identical slice, identical
      // rows); with no replica left the query is unavailable.
      while (sim::FaultAt(sim::fault_site::kDistShardDown)) {
        IRONSAFE_COUNTER_ADD("dist.failovers", 1);
        ++outcome.failovers;
        child->ChargeFixed(kFailoverDetectionNs);
        if (++selected[g] >= options_.replicas_per_shard) {
          return Status::Unavailable("all replicas of shard group " +
                                     std::to_string(g) + " are down");
        }
      }
      engine::StorageNode& n = node(g, selected[g]);

      obs::SpanGuard frag_span("fragment", "dist", child);
      frag_span.Tag("source", place.fragment.source_table);
      frag_span.Tag("dest", place.fragment.dest_table);
      frag_span.Tag("node", n.node_id());
      IRONSAFE_COUNTER_ADD("dist.fragments", 1);
      ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> frag_stmt,
                       sql::ParseSelect(place.fragment.sql));
      auto frag_result =
          sql::ExecuteSelect(n.db(), *frag_stmt, nullptr, child,
                             storage_opts, &outcome.stats);
      RETURN_IF_ERROR(frag_result.status());

      // Ship the slice's batch through the node's sealed channel. A
      // corrupted frame is rejected by the host end; the pair is then
      // re-keyed (monitor-style session-key distribution) and the retry
      // re-sends — the CsaSystem ship protocol, per shard.
      obs::SpanGuard ship_span("ship", "dist", child);
      Bytes wire = net::SerializeResult(*frag_result);
      outcome.shipped_bytes += wire.size();
      RetryPolicy ship_policy = obs::ObservedRetryPolicy("dist.ship", child);
      auto opened =
          RetryWithBackoff<Bytes>(ship_policy, [&]() -> Result<Bytes> {
            ASSIGN_OR_RETURN(Bytes frame, n.node_end()->Send(wire, child));
            if (auto hit = sim::FaultAt(sim::fault_site::kDistFragmentCorrupt);
                hit && !frame.empty()) {
              frame[hit->param % frame.size()] ^= 0x01;
            }
            // Receiving on the host enters the enclave once per batch;
            // host-side receive work is serial fleet-wide, so it charges
            // the fleet clock, not the group's parallel timeline.
            RETURN_IF_ERROR(host_enclave_->EnterExit(&outcome.cost));
            auto result = n.host_end()->Receive(frame, child);
            if (!result.ok()) {
              IRONSAFE_COUNTER_ADD("dist.channel.rehandshakes", 1);
              RETURN_IF_ERROR(n.Rekey(&channel_drbg_));
            }
            return result;
          });
      RETURN_IF_ERROR(opened.status());
      ASSIGN_OR_RETURN(shipped[f][g], net::DeserializeResult(*opened));
      host_enclave_->TouchMemory(0x10000 + outcome.shipped_bytes / 4096,
                                 wire.size(), &outcome.cost);
      ship_span.Tag("bytes", static_cast<int64_t>(wire.size()));
      ship_span.Tag("rows",
                    static_cast<int64_t>(shipped[f][g].rows.size()));
      ship_span.Close();
      frag_span.Close();
    }
    shard_span.Close();
    for (int r = 0; r < options_.replicas_per_shard; ++r) {
      outcome.storage_pages_read += node(g, r).access()->pages_read();
    }
  }

  std::vector<const sim::CostModel*> child_ptrs;
  child_ptrs.reserve(children.size());
  for (const sim::CostModel& c : children) child_ptrs.push_back(&c);
  outcome.cost.MergeParallelTimelines(child_ptrs);
  // Detail lanes (excluded from the default deterministic export) show
  // the true per-shard overlap; the default export tiles the per-shard
  // spans sequentially.
  if (obs::Tracer* tracer = obs::CurrentTracer()) {
    for (int g = 0; g < groups; ++g) {
      tracer->AddTimelineSpan("shard-" + std::to_string(g), "dist",
                              phase_start,
                              phase_start + children[g].elapsed_ns(), g);
    }
  }
  outcome.storage_phase_ns = outcome.cost.elapsed_ns();

  // Materialize shipped batches as host intermediates. Partitioned
  // fragments arrive as per-shard key-sorted streams; merging by key
  // reconstructs the single-node row order exactly (a key routes to one
  // shard, so cross-stream ties cannot occur), which is what makes the
  // final rows shard-count invariant. Partial-aggregation partials are
  // concatenated in group order instead (no row-order guarantee is
  // claimed across shard counts in that opt-in mode).
  obs::SpanGuard merge_span("shard-merge", "dist", &outcome.cost);
  auto host_db = sql::Database::CreateInMemory();
  for (size_t f = 0; f < plan.fragments.size(); ++f) {
    const FragmentPlacement& place = plan.fragments[f];
    int schema_group = place.partitioned ? 0 : place.home_group;
    const sql::Schema& schema = shipped[f][schema_group].schema;
    RETURN_IF_ERROR(
        host_db->CreateTable(place.fragment.dest_table, schema));
    ASSIGN_OR_RETURN(sql::Table * table,
                     host_db->GetTable(place.fragment.dest_table));
    uint64_t merged_rows = 0;
    if (!place.partitioned) {
      for (const sql::Row& row : shipped[f][place.home_group].rows) {
        RETURN_IF_ERROR(table->Append(row, nullptr));
        ++merged_rows;
      }
    } else if (plan.partial_aggregation || place.merge_key.empty()) {
      for (int g = 0; g < groups; ++g) {
        for (const sql::Row& row : shipped[f][g].rows) {
          RETURN_IF_ERROR(table->Append(row, nullptr));
          ++merged_rows;
        }
      }
    } else {
      int key = schema.Find(place.merge_key);
      if (key < 0) {
        return Status::Internal("merge key " + place.merge_key +
                                " missing from shipped fragment " +
                                place.fragment.dest_table);
      }
      std::vector<size_t> pos(groups, 0);
      while (true) {
        int best = -1;
        int64_t best_key = 0;
        for (int g = 0; g < groups; ++g) {
          const auto& rows = shipped[f][g].rows;
          if (pos[g] >= rows.size()) continue;
          int64_t k = rows[pos[g]][key].AsInt();
          if (best < 0 || k < best_key) {
            best = g;
            best_key = k;
          }
        }
        if (best < 0) break;
        RETURN_IF_ERROR(
            table->Append(shipped[f][best].rows[pos[best]++], nullptr));
        ++merged_rows;
      }
    }
    // The merge compares/moves each shipped row once on the host CPU.
    outcome.cost.ChargeCycles(sim::Site::kHost, 64 * merged_rows);
  }
  merge_span.Close();

  // Host phase: the remainder (or the partial re-aggregation) over the
  // merged intermediates, inside the host enclave.
  obs::SpanGuard host_span("host-phase", "dist", &outcome.cost);
  auto host_result =
      sql::ExecuteSelect(host_db.get(), *plan.host_query, nullptr,
                         &outcome.cost, sql::ExecOptions{}, &outcome.stats);
  RETURN_IF_ERROR(host_result.status());
  host_enclave_->ClearMemory();
  host_span.Close();

  outcome.result = std::move(*host_result);
  outcome.host_phase_ns = outcome.cost.elapsed_ns() - outcome.storage_phase_ns;
  return outcome;
}

}  // namespace ironsafe::dist
