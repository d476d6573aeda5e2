#ifndef IRONSAFE_CRYPTO_AES_H_
#define IRONSAFE_CRYPTO_AES_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace ironsafe::crypto {

namespace internal {
struct AesPath;  // crypto/internal.h
}

/// AES block cipher (FIPS 197) supporting 128- and 256-bit keys. Runs on
/// AES-NI when the CPU has it (constant-time), otherwise on the portable
/// table-driven code.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// Key must be 16 or 32 bytes.
  static Result<Aes> Create(const Bytes& key);

  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

 private:
  friend struct internal::AesPath;
  Aes() = default;

  /// Round keys in byte order, 16 bytes per round.
  alignas(16) uint8_t enc_keys_[15 * 16] = {};
  /// AES-NI only: the equivalent inverse cipher's round keys.
  alignas(16) uint8_t dec_keys_[15 * 16] = {};
  int rounds_ = 0;
  bool accelerated_ = false;
};

/// AES-CBC with PKCS#7 padding. `iv` must be 16 bytes. The paper's secure
/// storage encrypts each 4 KiB page with AES-256-CBC and a random IV.
Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext);
Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& ciphertext);

/// AES-CTR keystream encryption (encrypt == decrypt). `nonce` must be
/// 16 bytes (big-endian counter in the low 8 bytes).
Result<Bytes> AesCtr(const Bytes& key, const Bytes& nonce, const Bytes& data);

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_AES_H_
