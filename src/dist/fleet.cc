#include "dist/fleet.h"

#include <algorithm>
#include <limits>

#include "common/thread_pool.h"
#include "net/wire.h"
#include "obs/access_trace.h"
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

/// One fragment dispatched to one shard group, and its result batch's
/// trip to the host as far as the group task takes it.
struct Shipment {
  engine::StorageNode* node = nullptr;  ///< null: not placed on the group
  sim::SimNanos detection_ns = 0;  ///< heartbeat failovers before dispatch
  uint64_t bytes = 0;              ///< size of the serialized batch
  Bytes wire;  ///< the serialized batch, kept only for a host-side re-send
  bool reached_host = false;  ///< attempt 1 sealed a frame for the host
  Status first;  ///< attempt 1: OK once the batch is opened, else why not
  sql::QueryResult rows;  ///< the opened batch, once shipped
};

/// What one group task owns: its timeline, stats and (traced) tracer.
struct GroupRun {
  GroupRun(const sim::HardwareProfile& hardware, const obs::Tracer* parent)
      : cost(hardware),
        tracer(parent != nullptr ? std::make_unique<obs::Tracer>()
                                 : nullptr) {}
  sim::CostModel cost;
  sql::ExecStats stats;
  std::unique_ptr<obs::Tracer> tracer;
  Status status;
};

/// Seals `wire` on the node end of the node's channel. The
/// dist.fragment.corrupt site flips one frame byte in transit.
Result<Bytes> SealForShipping(engine::StorageNode* node, const Bytes& wire,
                              sim::CostModel* cost) {
  ASSIGN_OR_RETURN(Bytes frame, node->node_end()->Send(wire, cost));
  if (auto hit = sim::FaultAt(sim::fault_site::kDistFragmentCorrupt);
      hit && !frame.empty()) {
    frame[hit->param % frame.size()] ^= 0x01;
  }
  return frame;
}

/// Group `g`'s task: every fragment placed on the group runs on its node
/// against the group's child model, then its result batch is serialized,
/// sealed and opened on the host end (attempt 1 of the ship protocol;
/// the enclave entry, any re-key and re-send follow on the host side).
/// Touches only the group's nodes, shipments and GroupRun.
Status RunGroup(int g, const DistPlan& plan, const sql::ExecOptions& opts,
                std::vector<std::vector<Shipment>>* ships, GroupRun* run) {
  sim::CostModel* child = &run->cost;
  obs::SpanGuard shard_span("shard-" + std::to_string(g), "dist", child);
  for (size_t f = 0; f < plan.fragments.size(); ++f) {
    Shipment& ship = (*ships)[f][g];
    if (ship.node == nullptr) continue;
    child->ChargeFixed(ship.detection_ns);
    const FragmentPlacement& place = plan.fragments[f];

    obs::SpanGuard frag_span("fragment", "dist", child);
    frag_span.Tag("source", place.fragment.source_table);
    frag_span.Tag("dest", place.fragment.dest_table);
    frag_span.Tag("node", ship.node->node_id());
    IRONSAFE_COUNTER_ADD("dist.fragments", 1);
    ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> frag_stmt,
                     sql::ParseSelect(place.fragment.sql));
    auto frag_result = sql::ExecuteSelect(ship.node->db(), *frag_stmt,
                                          nullptr, child, opts, &run->stats);
    RETURN_IF_ERROR(frag_result.status());

    // Ship the slice's batch through the node's sealed channel. A
    // rejected frame is re-keyed and re-sent on the host side.
    obs::SpanGuard ship_span("ship", "dist", child);
    ship.wire = net::SerializeResult(*frag_result);
    Result<Bytes> frame = SealForShipping(ship.node, ship.wire, child);
    ship.reached_host = frame.ok();
    ship.first = frame.status();
    if (frame.ok()) {
      auto opened = ship.node->host_end()->Receive(*frame, child);
      ship.first = opened.status();
      if (opened.ok()) {
        ASSIGN_OR_RETURN(ship.rows, net::DeserializeResult(*opened));
      }
    }
    ship.bytes = ship.wire.size();
    ship_span.Tag("bytes", static_cast<int64_t>(ship.bytes));
    if (ship.first.ok()) {
      ship_span.Tag("rows", static_cast<int64_t>(ship.rows.rows.size()));
      ship.wire = Bytes();
    }
  }
  return Status::OK();
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
  const sim::SimNanos phase_start = outcome.cost.elapsed_ns();
  std::vector<std::vector<Shipment>> ships(plan.fragments.size(),
                                           std::vector<Shipment>(groups));

  // Heartbeat check before dispatch, per (group, fragment) in order: an
  // injected node outage fails the group over to its next replica
  // (identical slice, identical rows) for this and every later fragment;
  // with no replica left the query is unavailable before any group runs.
  for (int g = 0; g < groups; ++g) {
    int selected = 0;
    for (size_t f = 0; f < plan.fragments.size(); ++f) {
      const FragmentPlacement& place = plan.fragments[f];
      if (!place.partitioned && place.home_group != g) continue;
      Shipment& ship = ships[f][g];
      while (sim::FaultAt(sim::fault_site::kDistShardDown)) {
        IRONSAFE_COUNTER_ADD("dist.failovers", 1);
        ++outcome.failovers;
        ship.detection_ns += kFailoverDetectionNs;
        if (++selected >= options_.replicas_per_shard) {
          return Status::Unavailable("all replicas of shard group " +
                                     std::to_string(g) + " are down");
        }
      }
      ship.node = &node(g, selected);
    }
  }

  // The groups run concurrently, one pool task per group, as they do on
  // their disjoint simulated hardware: each task charges its own
  // zero-based child model, and the merge below advances the fleet clock
  // by the slowest group only (MergeParallelTimelines). The pool's worker
  // cap sizes each group's morsel fan-out, not the number of groups in
  // flight. A group's morsel batches are offered to idle pool threads, so
  // a fleet with fewer groups than cores still fans its scans out. A
  // traced run gives each group a private tracer, grafted under the query
  // span in group order afterwards, so the default trace is the one a
  // serial loop records.
  obs::Tracer* tracer = obs::CurrentTracer();
  std::vector<GroupRun> runs;
  runs.reserve(groups);
  for (int g = 0; g < groups; ++g) runs.emplace_back(hardware_, tracer);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(groups);
  for (int g = 0; g < groups; ++g) {
    tasks.push_back([&, g] {
      obs::ScopedTracer scope(runs[g].tracer.get());
      // Access events are recorded for single-node oblivious runs only;
      // a task on the calling thread must not record either.
      obs::ScopedAccessLog no_access_log(nullptr);
      runs[g].status = RunGroup(g, plan, storage_opts, &ships, &runs[g]);
    });
  }
  common::ThreadPool::Shared().RunTasks(tasks);
  for (const GroupRun& run : runs) RETURN_IF_ERROR(run.status);

  // Host-side receive, serial and in group-then-fragment order: the
  // enclave entry for each frame that reached the host, its EPC
  // residency at the running shipped-bytes offset, and for a batch whose
  // first attempt failed the re-key (channel_drbg_ draws) and the
  // CsaSystem ship protocol's re-send. Host-side receive work is serial
  // fleet-wide, so it charges the fleet clock, not a group's parallel
  // timeline; re-sends run on the group's own model and tracer, before
  // the group's timeline is merged.
  for (int g = 0; g < groups; ++g) {
    sim::CostModel* child = &runs[g].cost;
    for (size_t f = 0; f < plan.fragments.size(); ++f) {
      Shipment& ship = ships[f][g];
      if (ship.node == nullptr) continue;
      outcome.shipped_bytes += ship.bytes;
      if (ship.reached_host) {
        // The batch is already opened or rejected: an aborted ecall
        // only re-enters the enclave.
        Status entered = host_enclave_->EnterExit(&outcome.cost);
        if (!entered.ok()) {
          RetryPolicy policy =
              obs::ObservedRetryPolicy("tee.ecall", &outcome.cost);
          policy.retryable = [](const Status& s) { return s.IsUnavailable(); };
          RETURN_IF_ERROR(ResumeRetryWithBackoff(
              policy, std::move(entered), [&]() -> Status {
                return host_enclave_->EnterExit(&outcome.cost);
              }));
        }
        if (!ship.first.ok()) {
          IRONSAFE_COUNTER_ADD("dist.channel.rehandshakes", 1);
          RETURN_IF_ERROR(ship.node->Rekey(&channel_drbg_));
        }
      }
      if (!ship.first.ok()) {
        obs::ScopedTracer scope(runs[g].tracer.get());
        obs::SpanGuard resend_span("ship-retry", "dist", child);
        resend_span.Tag("node", ship.node->node_id());
        RetryPolicy ship_policy = obs::ObservedRetryPolicy("dist.ship", child);
        Bytes opened;
        Status resent = ResumeRetryWithBackoff(
            ship_policy, ship.first, [&]() -> Status {
              ASSIGN_OR_RETURN(Bytes frame,
                               SealForShipping(ship.node, ship.wire, child));
              RETURN_IF_ERROR(host_enclave_->EnterExit(&outcome.cost));
              auto result = ship.node->host_end()->Receive(frame, child);
              if (!result.ok()) {
                IRONSAFE_COUNTER_ADD("dist.channel.rehandshakes", 1);
                RETURN_IF_ERROR(ship.node->Rekey(&channel_drbg_));
                return result.status();
              }
              opened = std::move(*result);
              return Status::OK();
            });
        RETURN_IF_ERROR(resent);
        ASSIGN_OR_RETURN(ship.rows, net::DeserializeResult(opened));
        resend_span.Tag("rows", static_cast<int64_t>(ship.rows.rows.size()));
      }
      host_enclave_->TouchMemory(0x10000 + outcome.shipped_bytes / 4096,
                                 ship.bytes, &outcome.cost);
    }
    outcome.stats.MergeFrom(runs[g].stats);
    for (int r = 0; r < options_.replicas_per_shard; ++r) {
      outcome.storage_pages_read += node(g, r).access()->pages_read();
    }
  }
  if (tracer != nullptr) {
    for (const GroupRun& run : runs) tracer->Graft(*run.tracer);
  }

  std::vector<const sim::CostModel*> child_ptrs;
  child_ptrs.reserve(runs.size());
  for (const GroupRun& run : runs) child_ptrs.push_back(&run.cost);
  outcome.cost.MergeParallelTimelines(child_ptrs);
  // Detail lanes (excluded from the default deterministic export) show
  // the simulated per-shard overlap; the default export tiles the
  // per-shard spans sequentially.
  if (tracer != nullptr) {
    for (int g = 0; g < groups; ++g) {
      tracer->AddTimelineSpan("shard-" + std::to_string(g), "dist",
                              phase_start,
                              phase_start + runs[g].cost.elapsed_ns(), g);
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
    const sql::Schema& schema = ships[f][schema_group].rows.schema;
    RETURN_IF_ERROR(
        host_db->CreateTable(place.fragment.dest_table, schema));
    ASSIGN_OR_RETURN(sql::Table * table,
                     host_db->GetTable(place.fragment.dest_table));
    uint64_t merged_rows = 0;
    if (!place.partitioned) {
      for (const sql::Row& row : ships[f][place.home_group].rows.rows) {
        RETURN_IF_ERROR(table->Append(row, nullptr));
        ++merged_rows;
      }
    } else if (plan.partial_aggregation || place.merge_key.empty()) {
      for (int g = 0; g < groups; ++g) {
        for (const sql::Row& row : ships[f][g].rows.rows) {
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
          const auto& rows = ships[f][g].rows.rows;
          if (pos[g] >= rows.size()) continue;
          int64_t k = rows[pos[g]][key].AsInt();
          if (best < 0 || k < best_key) {
            best = g;
            best_key = k;
          }
        }
        if (best < 0) break;
        RETURN_IF_ERROR(
            table->Append(ships[f][best].rows.rows[pos[best]++], nullptr));
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
