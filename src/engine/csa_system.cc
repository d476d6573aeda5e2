#include "engine/csa_system.h"

#include "net/wire.h"
#include "obs/retry.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sql/parser.h"

namespace ironsafe::engine {

std::string_view SystemConfigName(SystemConfig config) {
  switch (config) {
    case SystemConfig::kHons:
      return "hons";
    case SystemConfig::kHos:
      return "hos";
    case SystemConfig::kVcs:
      return "vcs";
    case SystemConfig::kScs:
      return "scs";
    case SystemConfig::kSos:
      return "sos";
  }
  return "?";
}

CsaSystem::CsaSystem(const CsaOptions& options)
    : options_(options),
      host_machine_(ToBytes("ironsafe-host-platform")),
      manufacturer_(ToBytes("ironsafe-device-manufacturer")),
      plain_store_(&plain_disk_),
      plain_access_(&plain_store_),
      plain_db_(sql::Database::CreatePaged(&plain_access_)),
      channel_drbg_(ToBytes("csa-channel-drbg")) {
  host_enclave_ =
      host_machine_.LoadEnclave("host-engine", ToBytes("ironsafe host engine v3"));
}

Result<std::unique_ptr<CsaSystem>> CsaSystem::Create(
    const CsaOptions& options) {
  auto system = std::unique_ptr<CsaSystem>(new CsaSystem(options));
  ASSIGN_OR_RETURN(system->storage_,
                   StorageNode::Create("ironsafe-storage-lx2160a", "storage-1",
                                       system->manufacturer_));
  return system;
}

Status CsaSystem::Load(const std::function<Status(sql::Database*)>& loader) {
  RETURN_IF_ERROR(loader(plain_db_.get()));
  RETURN_IF_ERROR(loader(storage_->db()));
  if (options_.scale_epc_to_data) {
    options_.hardware.sgx.epc_bytes = ScaledEpcBytes(storage_->data_bytes());
  }
  storage_->FinishLoad();
  return Status::OK();
}

Result<QueryOutcome> CsaSystem::Run(SystemConfig config,
                                    const std::string& sql) {
  switch (config) {
    case SystemConfig::kHons:
      return RunHostOnly(sql, /*secure=*/false);
    case SystemConfig::kHos:
      return RunHostOnly(sql, /*secure=*/true);
    case SystemConfig::kVcs:
      return RunSplit(sql, /*secure=*/false);
    case SystemConfig::kScs:
      return RunSplit(sql, /*secure=*/true);
    case SystemConfig::kSos:
      return RunStorageOnly(sql);
  }
  return Status::InvalidArgument("unknown system configuration");
}

Status CsaSystem::ExecuteHostOnly(const std::string& sql, bool secure,
                                  QueryOutcome* outcome) {
  sql::Database* db = secure ? storage_->db() : plain_db_.get();
  ConfigurablePageStore* access =
      secure ? storage_->access() : &plain_access_;

  access->ResetForQuery(64ull << 30);  // host RAM holds the page cache
  access->set_remote(true);  // pages cross the network (NFS, §6.1)
  if (secure) {
    // Secure-store verification happens on the host CPU; the host engine
    // runs inside the enclave.
    storage_->store()->set_site(sim::Site::kHost);
    access->set_enclave(host_enclave_.get());
    host_enclave_->ClearMemory();
  }

  sql::ExecOptions opts;  // host site
  opts.parallelism = options_.host_parallelism;
  opts.engine = options_.engine;
  opts.oblivious = options_.oblivious;
  obs::SpanGuard exec_span("host-execute", "engine", &outcome->cost);
  auto result = db->Execute(sql, &outcome->cost, opts);
  exec_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  exec_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  exec_span.Close();

  access->set_remote(false);
  access->set_enclave(nullptr);
  if (secure) storage_->store()->set_site(sim::Site::kStorage);
  RETURN_IF_ERROR(result.status());

  outcome->result = std::move(*result);
  outcome->host_pages_read = access->pages_read();
  return Status::OK();
}

Result<QueryOutcome> CsaSystem::RunHostOnly(const std::string& sql,
                                            bool secure) {
  QueryOutcome outcome;
  outcome.cost = sim::CostModel(options_.hardware);
  obs::SpanGuard query_span("query", "engine", &outcome.cost);
  query_span.Tag("config", SystemConfigName(secure ? SystemConfig::kHos
                                                   : SystemConfig::kHons));
  RETURN_IF_ERROR(ExecuteHostOnly(sql, secure, &outcome));
  outcome.host_phase_ns = outcome.cost.elapsed_ns();
  return outcome;
}

Result<QueryOutcome> CsaSystem::RunStorageOnly(const std::string& sql) {
  QueryOutcome outcome;
  outcome.cost = sim::CostModel(options_.hardware);
  obs::SpanGuard query_span("query", "engine", &outcome.cost);
  query_span.Tag("config", SystemConfigName(SystemConfig::kSos));
  storage_->BeginQuery(options_.storage_memory_bytes);
  ConfigurablePageStore* access = storage_->access();

  obs::SpanGuard exec_span("storage-execute", "engine", &outcome.cost);
  auto result = storage_->db()->Execute(
      sql, &outcome.cost,
      StorageExecOptions(options_.storage_cores, options_.storage_memory_bytes,
                         options_.engine, options_.oblivious));
  exec_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  exec_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  exec_span.Close();
  RETURN_IF_ERROR(result.status());
  outcome.result = std::move(*result);
  outcome.storage_pages_read = access->pages_read();
  outcome.storage_phase_ns = outcome.cost.elapsed_ns();
  return outcome;
}

Result<QueryOutcome> CsaSystem::RunSplit(const std::string& sql, bool secure) {
  QueryOutcome outcome;
  outcome.cost = sim::CostModel(options_.hardware);
  sql::Database* storage_db = secure ? storage_->db() : plain_db_.get();
  ConfigurablePageStore* access =
      secure ? storage_->access() : &plain_access_;

  obs::SpanGuard query_span("query", "engine", &outcome.cost);
  query_span.Tag("config", SystemConfigName(secure ? SystemConfig::kScs
                                                   : SystemConfig::kVcs));

  obs::SpanGuard part_span("partition", "engine", &outcome.cost);
  ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                   sql::ParseSelect(sql));
  PartitionOptions part_options;
  part_options.aggregation_pushdown = options_.aggregation_pushdown;
  ASSIGN_OR_RETURN(PartitionedQuery plan,
                   PartitionQuery(*stmt, *storage_db, part_options));
  part_span.Tag("fragments", static_cast<int64_t>(plan.fragments.size()));
  part_span.Tag("whole_query_offloaded",
                static_cast<int64_t>(plan.whole_query_offloaded ? 1 : 0));
  part_span.Close();

  if (secure) {
    storage_->BeginQuery(options_.storage_memory_bytes);
    // Secure configurations ship fragments through an authenticated
    // encrypted channel whose key the monitor distributed (§4.2/§5).
    RETURN_IF_ERROR(storage_->Rekey(&channel_drbg_));
  } else {
    plain_access_.ResetForQuery(options_.storage_memory_bytes);
  }

  // Phase 1: near-data fragments on the storage engine.
  const sql::ExecOptions storage_opts =
      StorageExecOptions(options_.storage_cores, options_.storage_memory_bytes,
                         options_.engine, options_.oblivious);
  obs::SpanGuard storage_span("storage-phase", "engine", &outcome.cost);
  auto host_db = sql::Database::CreateInMemory();
  Status storage_status = Status::OK();
  for (const auto& frag : plan.fragments) {
    // Injected storage-node outage mid-query: abandon the split plan and
    // degrade to host-side execution below.
    if (sim::FaultAt(sim::fault_site::kEngineStorageDown)) {
      storage_status =
          Status::Unavailable("injected: storage node down before fragment " +
                              frag.dest_table);
      break;
    }
    obs::SpanGuard frag_span("fragment", "engine", &outcome.cost);
    frag_span.Tag("source", frag.source_table);
    frag_span.Tag("dest", frag.dest_table);
    ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> frag_stmt,
                     sql::ParseSelect(frag.sql));
    auto frag_result =
        sql::ExecuteSelect(storage_db, *frag_stmt, nullptr, &outcome.cost,
                           storage_opts, &outcome.stats);
    RETURN_IF_ERROR(frag_result.status());

    // Ship the record batch to the host.
    obs::SpanGuard ship_span("ship", "engine", &outcome.cost);
    Bytes wire = net::SerializeResult(*frag_result);
    outcome.shipped_bytes += wire.size();
    sql::QueryResult shipped;
    if (secure) {
      // One ship round trip, with recovery. A dropped frame leaves both
      // endpoints' state untouched, so a plain re-send heals it; a frame
      // the host *rejects* means the endpoints may have desynced, so the
      // channel pair is re-keyed (monitor-style session-key distribution)
      // before the retry re-sends.
      RetryPolicy ship_policy =
          obs::ObservedRetryPolicy("net.ship", &outcome.cost);
      auto opened = RetryWithBackoff<Bytes>(
          ship_policy, [&]() -> Result<Bytes> {
            ASSIGN_OR_RETURN(Bytes frame,
                             storage_->node_end()->Send(wire, &outcome.cost));
            // Receiving on the host enters the enclave once per batch.
            RETURN_IF_ERROR(host_enclave_->EnterExit(&outcome.cost));
            auto result = storage_->host_end()->Receive(frame, &outcome.cost);
            if (!result.ok()) {
              IRONSAFE_COUNTER_ADD("net.channel.rehandshakes", 1);
              RETURN_IF_ERROR(storage_->Rekey(&channel_drbg_));
            }
            return result;
          });
      RETURN_IF_ERROR(opened.status());
      ASSIGN_OR_RETURN(shipped, net::DeserializeResult(*opened));
    } else {
      outcome.cost.ChargeNetwork(wire.size());
      ASSIGN_OR_RETURN(shipped, net::DeserializeResult(wire));
    }

    // Materialize as an in-memory host table; inside the enclave the
    // rows occupy EPC.
    if (secure) {
      host_enclave_->TouchMemory(
          0x10000 + outcome.shipped_bytes / 4096, wire.size(), &outcome.cost);
    }
    sql::Schema schema = shipped.schema;
    RETURN_IF_ERROR(host_db->CreateTable(frag.dest_table, schema));
    ASSIGN_OR_RETURN(sql::Table * table, host_db->GetTable(frag.dest_table));
    for (auto& row : shipped.rows) {
      RETURN_IF_ERROR(table->Append(row, nullptr));
    }
    ship_span.Tag("bytes", static_cast<int64_t>(wire.size()));
    ship_span.Tag("rows", static_cast<int64_t>(shipped.rows.size()));
    ship_span.Close();
  }
  outcome.storage_pages_read = access->pages_read();
  outcome.storage_phase_ns = outcome.cost.elapsed_ns();
  storage_span.Tag("pages_read", static_cast<int64_t>(access->pages_read()));
  storage_span.Tag("cache_hits", static_cast<int64_t>(access->cache_hits()));
  storage_span.Tag("shipped_bytes",
                   static_cast<int64_t>(outcome.shipped_bytes));
  storage_span.Close();

  // Graceful degradation: with the storage node down, discard the partial
  // split state and run the whole query host-side (the host-only path of
  // Table 2) against the same stores, so the caller still gets the exact
  // result rows — at host-only cost.
  if (!storage_status.ok()) {
    IRONSAFE_COUNTER_ADD("engine.host_fallbacks", 1);
    obs::SpanGuard fallback_span("host-fallback", "engine", &outcome.cost);
    fallback_span.Tag("reason", storage_status.message());
    RETURN_IF_ERROR(ExecuteHostOnly(sql, secure, &outcome));
    fallback_span.Close();
    outcome.host_phase_ns =
        outcome.cost.elapsed_ns() - outcome.storage_phase_ns;
    return outcome;
  }

  // Phase 2: the host engine runs the remainder over the shipped tables.
  obs::SpanGuard host_span("host-phase", "engine", &outcome.cost);
  sql::ExecOptions host_opts;  // host site
  host_opts.engine = options_.engine;
  host_opts.oblivious = options_.oblivious;
  auto host_result =
      sql::ExecuteSelect(host_db.get(), *plan.host_query, nullptr,
                         &outcome.cost, host_opts, &outcome.stats);
  RETURN_IF_ERROR(host_result.status());
  if (secure) host_enclave_->ClearMemory();
  host_span.Close();

  outcome.result = std::move(*host_result);
  outcome.host_phase_ns = outcome.cost.elapsed_ns() - outcome.storage_phase_ns;
  return outcome;
}

}  // namespace ironsafe::engine
