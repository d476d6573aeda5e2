#ifndef IRONSAFE_MONITOR_MONITOR_H_
#define IRONSAFE_MONITOR_MONITOR_H_

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "monitor/audit_log.h"
#include "policy/interpreter.h"
#include "policy/policy.h"
#include "policy/rewriter.h"
#include "sim/cost_model.h"
#include "sql/parser.h"
#include "tee/sgx.h"
#include "tee/trustzone.h"

namespace ironsafe::monitor {

/// Attestation latency constants. The paper measures these end-to-end in
/// Table 4; the simulation charges the same components so the breakdown
/// bench reproduces the table's rows.
struct AttestationLatency {
  static constexpr uint64_t kHostCasNanos = 140'000'000;        // 140 ms
  static constexpr uint64_t kStorageTeeNanos = 453'000'000;     // 453 ms
  static constexpr uint64_t kStorageReeNanos = 54'000'000;      //  54 ms
  static constexpr uint64_t kInterconnectNanos = 42'000'000;    //  42 ms
};

/// Signed statement the client receives with its results: hard evidence
/// that the named query executed in an environment satisfying the named
/// execution policy (§4.2 "Proofs of integrity and authenticity").
struct ComplianceProof {
  std::string query;
  std::string execution_policy;
  Bytes host_measurement;
  Bytes storage_measurement;
  bool offloaded = false;
  Bytes signature;  ///< monitor's Ed25519 over the fields above

  Bytes SigningInput() const;
};

/// The outcome of authorizing one client statement.
struct Authorization {
  sql::Statement rewritten;             ///< policy-compliant statement
  bool storage_eligible = true;         ///< offloading allowed?
  Bytes session_key;                    ///< host<->storage channel key
  std::vector<policy::Obligation> obligations;
};

/// Per-table policy registration (by the data producer at setup time).
struct TablePolicy {
  policy::PolicySet access;
  bool with_expiry = false;  ///< table carries the hidden _expiry column
  bool with_reuse = false;   ///< table carries the hidden _reuse column
};

/// The trusted monitor (§4.2): runs inside its own SGX enclave, acts as
/// root of trust for clients, attests both engines, enforces access and
/// execution policies, manages session keys, and keeps the audit log.
class TrustedMonitor {
 public:
  /// `enclave` is the monitor's own measured enclave; `ias` verifies
  /// host quotes; `manufacturer_root` verifies storage cert chains.
  TrustedMonitor(tee::SgxEnclave* enclave, tee::SgxAttestationService* ias,
                 Bytes manufacturer_root);

  const Bytes& public_key() const { return signing_key_.public_key; }

  // ---- Trust configuration ----
  void TrustHostMeasurement(const Bytes& measurement);
  void TrustStorageMeasurement(const Bytes& measurement);
  void set_latest_firmware(uint32_t host_fw, uint32_t storage_fw);

  // ---- Attestation (Figure 4) ----

  /// Verifies a host engine quote (Fig 4.a): IAS signature check plus the
  /// trusted-measurement check; on success issues a monitor-signed
  /// certificate over the host's public key (the quote's report data).
  Result<Bytes> AttestHost(const tee::SgxQuote& quote,
                           const std::string& location, uint32_t fw_version,
                           sim::CostModel* cost = nullptr);

  /// Challenge half of the storage protocol (Fig 4.b step 1).
  Bytes IssueStorageChallenge();

  /// Verification half (Fig 4.b steps 4-5): ROTPK cert chain, challenge
  /// signature, and normal-world measurement policy.
  Status AttestStorage(const std::string& node_id, const Bytes& challenge,
                       const tee::TzAttestationResponse& response,
                       sim::CostModel* cost = nullptr);

  bool host_attested() const { return facts_.host_attested; }
  bool storage_attested() const { return facts_.storage_attested; }
  const policy::NodeFacts& node_facts() const { return facts_; }

  // ---- Policy and client registry ----

  Status RegisterTablePolicy(const std::string& table, TablePolicy policy);
  void RegisterClient(const std::string& key_id, int reuse_bit = -1);
  bool ClientRegistered(const std::string& key_id) const {
    return clients_.count(key_id) > 0;
  }

  /// Current simulation date used by the le(T, TIMESTAMP) predicate.
  void set_access_time(int64_t days) {
    if (days != access_time_) {
      access_time_ = days;
      ++policy_epoch_;
    }
  }

  /// Monotone counter bumped whenever policy-relevant state changes:
  /// table policy (re-)registration, client registry updates, the access
  /// time, and attestation facts. Anything caching the *output* of
  /// AuthorizeStatement (rewritten statements, eligibility) must key on
  /// this epoch — a bump invalidates every older cached rewrite.
  uint64_t policy_epoch() const { return policy_epoch_; }

  // ---- Query authorization (§4.2 policy-compliant partitioning) ----

  /// Validates the client's permissions against the data producer's
  /// access policy, checks the client's execution policy against the
  /// attested nodes, rewrites the statement (row filters, hidden
  /// columns), performs logging obligations, and issues a session key.
  /// `insert_expiry`/`insert_reuse` supply hidden-column values for
  /// INSERTs into policy-protected tables.
  Result<Authorization> AuthorizeStatement(
      const std::string& client_key_id, const std::string& sql,
      const std::string& execution_policy,
      std::optional<int64_t> insert_expiry = std::nullopt,
      std::optional<int64_t> insert_reuse = std::nullopt,
      sim::CostModel* cost = nullptr);

  /// Per-execution half of a *cached* authorization (plan-cache hit):
  /// re-checks the client, re-performs the logging obligations recorded
  /// by the original AuthorizeStatement, and issues a fresh session key.
  /// Costs one enclave transition but no parse / policy-eval / rewrite —
  /// callers must have keyed their cache on policy_epoch() so the reused
  /// rewrite is still the one AuthorizeStatement would produce.
  Result<Bytes> BeginCachedSession(
      const std::string& client_key_id, const std::string& sql,
      const std::vector<policy::Obligation>& obligations,
      sim::CostModel* cost = nullptr);

  /// Ends a session: revokes its key (§4.2 session cleanup).
  void EndSession(const Bytes& session_key);
  bool SessionActive(const Bytes& session_key) const;

  /// Signs a per-query proof of compliance.
  Result<ComplianceProof> IssueProof(const std::string& query,
                                     const std::string& execution_policy,
                                     bool offloaded);
  static bool VerifyProof(const ComplianceProof& proof,
                          const Bytes& monitor_public_key);

  AuditLog* audit_log() { return &audit_log_; }

 private:
  Result<const TablePolicy*> PolicyForStatement(const sql::Statement& stmt,
                                                std::string* table_name) const;

  tee::SgxEnclave* enclave_;
  tee::SgxAttestationService* ias_;
  Bytes manufacturer_root_;
  crypto::Ed25519KeyPair signing_key_;
  crypto::Drbg drbg_;
  AuditLog audit_log_;

  /// Byte-string order for the membership sets below, via a memcmp
  /// bounded by the shorter length: GCC 12 cannot bound the length that
  /// std::less<Bytes> hands memcmp and warns (-Wstringop-overread).
  struct BytesLess {
    bool operator()(const Bytes& a, const Bytes& b) const {
      size_t n = std::min(a.size(), b.size());
      int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
      return c != 0 ? c < 0 : a.size() < b.size();
    }
  };

  std::set<Bytes, BytesLess> trusted_host_measurements_;
  std::set<Bytes, BytesLess> trusted_storage_measurements_;
  policy::NodeFacts facts_;
  Bytes attested_host_measurement_;
  Bytes attested_storage_measurement_;

  std::map<std::string, TablePolicy> table_policies_;
  std::map<std::string, int> clients_;  // key id -> reuse bit
  std::set<Bytes, BytesLess> active_sessions_;
  int64_t access_time_ = 0;
  uint64_t policy_epoch_ = 0;
};

}  // namespace ironsafe::monitor

#endif  // IRONSAFE_MONITOR_MONITOR_H_
