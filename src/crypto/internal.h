#ifndef IRONSAFE_CRYPTO_INTERNAL_H_
#define IRONSAFE_CRYPTO_INTERNAL_H_

// Internal to src/crypto, its tests and bench/micro_primitives: the CPU
// feature test that picks the accelerated AES / SHA-256 code, and entry
// points pinned to one path so the accelerated code can be compared with
// the portable reference. Production callers use the public headers,
// which always take the path the CPU supports.

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"

namespace ironsafe::crypto::internal {

/// True iff the CPU has AES-NI (with SSE4.1). Read once from CPUID.
bool CpuHasAesNi();
/// True iff the CPU has the SHA extensions (with SSE4.1). Read once.
bool CpuHasShaNi();

/// AES on one fixed path: `accelerated` selects AES-NI, otherwise the
/// portable table-driven code runs. `accelerated` must be false on a CPU
/// without AES-NI. The public functions in aes.h use
/// `AesPath{CpuHasAesNi()}`.
struct AesPath {
  bool accelerated;

  Result<Aes> Create(const Bytes& key) const;
  Result<Bytes> CbcEncrypt(const Bytes& key, const Bytes& iv,
                           const Bytes& plaintext) const;
  Result<Bytes> CbcDecrypt(const Bytes& key, const Bytes& iv,
                           const Bytes& ciphertext) const;
  Result<Bytes> Ctr(const Bytes& key, const Bytes& nonce,
                    const Bytes& data) const;
};

/// SHA-256 and the HMAC/HKDF built on it, on one fixed path: SHA-NI when
/// `accelerated`, which must be false on a CPU without SHA-NI. The public
/// functions use `Sha256Path{CpuHasShaNi()}`.
struct Sha256Path {
  bool accelerated;

  /// A fresh incremental hasher on this path.
  Sha256 New() const;
  Bytes Hash(const Bytes& data) const;
  Bytes Hmac(const Bytes& key, const Bytes& message) const;
  Bytes Hkdf(const Bytes& salt, const Bytes& ikm, const Bytes& info,
             size_t length) const;
};

}  // namespace ironsafe::crypto::internal

#endif  // IRONSAFE_CRYPTO_INTERNAL_H_
