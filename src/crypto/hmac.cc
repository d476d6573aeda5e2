#include "crypto/hmac.h"

#include <algorithm>

#include "crypto/internal.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"

namespace ironsafe::crypto {

namespace {

/// HMAC over copies of `fresh`, a newly constructed hasher, so the
/// SHA-256 path `fresh` was built on carries through.
template <typename Hash>
Bytes HmacWith(const Hash& fresh, const Bytes& key, const Bytes& message) {
  constexpr size_t kBlock = Hash::kBlockSize;
  uint8_t ipad[kBlock] = {}, opad[kBlock] = {};
  if (key.size() > kBlock) {
    Hash h = fresh;
    h.Update(key);
    Bytes digest = h.Final();
    std::copy(digest.begin(), digest.end(), ipad);
  } else {
    std::copy(key.begin(), key.end(), ipad);
  }
  for (size_t i = 0; i < kBlock; ++i) {
    opad[i] = ipad[i] ^ 0x5c;
    ipad[i] ^= 0x36;
  }

  Hash inner = fresh;
  inner.Update(ipad, kBlock);
  inner.Update(message);
  Bytes inner_digest = inner.Final();

  Hash outer = fresh;
  outer.Update(opad, kBlock);
  outer.Update(inner_digest);
  return outer.Final();
}

internal::Sha256Path DefaultSha256Path() {
  return {internal::CpuHasShaNi()};
}

}  // namespace

Bytes internal::Sha256Path::Hmac(const Bytes& key,
                                 const Bytes& message) const {
  return HmacWith(New(), key, message);
}

Bytes HmacSha256(const Bytes& key, const Bytes& message) {
  return DefaultSha256Path().Hmac(key, message);
}

Bytes HmacSha512(const Bytes& key, const Bytes& message) {
  return HmacWith(Sha512(), key, message);
}

bool VerifyHmacSha256(const Bytes& key, const Bytes& message,
                      const Bytes& mac) {
  return ConstantTimeEqual(HmacSha256(key, message), mac);
}

bool VerifyHmacSha512(const Bytes& key, const Bytes& message,
                      const Bytes& mac) {
  return ConstantTimeEqual(HmacSha512(key, message), mac);
}

Bytes HkdfSha256(const Bytes& salt, const Bytes& ikm, const Bytes& info,
                 size_t length) {
  return DefaultSha256Path().Hkdf(salt, ikm, info, length);
}

Bytes internal::Sha256Path::Hkdf(const Bytes& salt, const Bytes& ikm,
                                 const Bytes& info, size_t length) const {
  // Extract.
  Bytes prk = Hmac(salt.empty() ? Bytes(Sha256::kDigestSize, 0) : salt, ikm);
  // Expand.
  Bytes okm;
  Bytes t;
  uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block = t;
    Append(&block, info);
    block.push_back(counter++);
    t = Hmac(prk, block);
    Append(&okm, t);
  }
  okm.resize(length);
  return okm;
}

}  // namespace ironsafe::crypto
