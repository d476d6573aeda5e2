#ifndef IRONSAFE_CRYPTO_SHA256_H_
#define IRONSAFE_CRYPTO_SHA256_H_

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace ironsafe::crypto {

namespace internal {
struct Sha256Path;  // crypto/internal.h
}

/// Incremental SHA-256 (FIPS 180-4). Compresses with the SHA extensions
/// when the CPU has them, otherwise with the portable code.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// reused after Final() without Reset().
  Bytes Final();

  void Reset();

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  friend struct internal::Sha256Path;
  explicit Sha256(bool accelerated);
  void Compress(const uint8_t* data, size_t blocks);

  bool accelerated_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_SHA256_H_
