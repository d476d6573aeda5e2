#ifndef IRONSAFE_CRYPTO_SHA512_H_
#define IRONSAFE_CRYPTO_SHA512_H_

#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace ironsafe::crypto {

/// Incremental SHA-512 (FIPS 180-4). Used for page MACs (the paper uses
/// HMAC-SHA512 per 4 KiB page) and inside Ed25519.
class Sha512 {
 public:
  static constexpr size_t kDigestSize = 64;
  static constexpr size_t kBlockSize = 128;

  Sha512();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  Bytes Final();
  void Reset();

  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  void Compress(const uint8_t* data, size_t blocks);

  uint64_t state_[8];
  uint64_t total_len_ = 0;  // bytes; enough for simulation-scale inputs
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace ironsafe::crypto

#endif  // IRONSAFE_CRYPTO_SHA512_H_
