#ifndef IRONSAFE_TESTS_ED25519_REF_H_
#define IRONSAFE_TESTS_ED25519_REF_H_

// The 16-limb TweetNaCl-style Ed25519 / X25519 that src/crypto used
// before its radix-2^51 rewrite, kept as the reference the production
// code is compared against. Same contracts as crypto/ed25519.h, except
// that Verify does not reject a non-canonical S >= L.

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/ed25519.h"

namespace ironsafe::crypto::ref {

Result<Ed25519KeyPair> Ed25519KeyPairFromSeed(const Bytes& seed);
Result<Bytes> Ed25519Sign(const Bytes& private_key, const Bytes& message);
bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature);
Result<Bytes> X25519(const Bytes& scalar, const Bytes& point);
Result<Bytes> X25519Base(const Bytes& scalar);

}  // namespace ironsafe::crypto::ref

#endif  // IRONSAFE_TESTS_ED25519_REF_H_
