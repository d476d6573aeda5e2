#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/internal.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "ed25519_ref.h"

namespace ironsafe::crypto {
namespace {

Bytes Hx(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// The standard vectors run on the portable path and, when the CPU has
// the instructions, on the accelerated one.

std::vector<internal::AesPath> AesPaths() {
  std::vector<internal::AesPath> paths = {{false}};
  if (internal::CpuHasAesNi()) paths.push_back({true});
  return paths;
}

std::vector<internal::Sha256Path> Sha256Paths() {
  std::vector<internal::Sha256Path> paths = {{false}};
  if (internal::CpuHasShaNi()) paths.push_back({true});
  return paths;
}

std::string PathName(bool accelerated) {
  return accelerated ? "accelerated" : "portable";
}

/// Ed25519 / X25519 entry points: the radix-2^51 production code and the
/// 16-limb reference in tests/ed25519_ref.cc.
struct CurveImpl {
  const char* name;
  Result<Ed25519KeyPair> (*key_pair)(const Bytes&);
  Result<Bytes> (*sign)(const Bytes&, const Bytes&);
  bool (*verify)(const Bytes&, const Bytes&, const Bytes&);
  Result<Bytes> (*x25519)(const Bytes&, const Bytes&);
  Result<Bytes> (*x25519_base)(const Bytes&);
};

const CurveImpl kCurveImpls[] = {
    {"radix-2^51", Ed25519KeyPairFromSeed, Ed25519Sign, Ed25519Verify, X25519,
     X25519Base},
    {"16-limb reference", ref::Ed25519KeyPairFromSeed, ref::Ed25519Sign,
     ref::Ed25519Verify, ref::X25519, ref::X25519Base},
};

Bytes RandomBytes(Random& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

// ---------- SHA-256 (FIPS 180-4 / NIST CAVP vectors) ----------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << PathName(path.accelerated);
  }
}

TEST(Sha256Test, Abc) {
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hash(ToBytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << PathName(path.accelerated);
  }
}

TEST(Sha256Test, TwoBlockMessage) {
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(
        HexEncode(path.Hash(ToBytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << PathName(path.accelerated);
  }
}

TEST(Sha256Test, MillionAs) {
  for (auto path : Sha256Paths()) {
    Sha256 h = path.New();
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.Update(chunk);
    EXPECT_EQ(HexEncode(h.Final()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << PathName(path.accelerated);
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  for (auto path : Sha256Paths()) {
    for (size_t split = 0; split <= data.size(); ++split) {
      Sha256 h = path.New();
      h.Update(data.data(), split);
      h.Update(data.data() + split, data.size() - split);
      EXPECT_EQ(h.Final(), Sha256::Hash(data))
          << PathName(path.accelerated) << " split=" << split;
    }
  }
}

// ---------- SHA-512 ----------

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(HexEncode(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, LongMessage) {
  EXPECT_EQ(
      HexEncode(Sha512::Hash(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, IncrementalAcrossBlockBoundary) {
  std::string big(300, 'x');
  Sha512 one;
  one.Update(big);
  Sha512 two;
  two.Update(big.substr(0, 127));
  two.Update(big.substr(127));
  EXPECT_EQ(one.Final(), two.Final());
}

// ---------- HMAC (RFC 4231) ----------

TEST(HmacTest, Rfc4231Case1Sha256) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hmac(key, msg)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        << PathName(path.accelerated);
  }
}

TEST(HmacTest, Rfc4231Case1Sha512) {
  Bytes key(20, 0x0b);
  Bytes msg = ToBytes("Hi There");
  EXPECT_EQ(HexEncode(HmacSha512(key, msg)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
}

TEST(HmacTest, Rfc4231Case2JeffersonKey) {
  Bytes key = ToBytes("Jefe");
  Bytes msg = ToBytes("what do ya want for nothing?");
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hmac(key, msg)),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        << PathName(path.accelerated);
  }
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hmac(key, msg)),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        << PathName(path.accelerated);
  }
}

TEST(HmacTest, VerifyDetectsTamper) {
  Bytes key = ToBytes("secret");
  Bytes msg = ToBytes("message");
  Bytes mac = HmacSha256(key, msg);
  EXPECT_TRUE(VerifyHmacSha256(key, msg, mac));
  mac[0] ^= 1;
  EXPECT_FALSE(VerifyHmacSha256(key, msg, mac));
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = Hx("000102030405060708090a0b0c");
  Bytes info = Hx("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(HexEncode(HkdfSha256(salt, ikm, info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hkdf(salt, ikm, info, 42)),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865")
        << PathName(path.accelerated);
  }
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  for (auto path : Sha256Paths()) {
    EXPECT_EQ(HexEncode(path.Hkdf({}, ikm, {}, 42)),
              "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
              "9d201395faa4b61a96c8")
        << PathName(path.accelerated);
  }
}

// ---------- AES (FIPS 197 Appendix C) ----------

void ExpectFips197Block(const internal::AesPath& path, const Bytes& key,
                        std::string_view ct_hex) {
  SCOPED_TRACE(PathName(path.accelerated));
  Bytes pt = Hx("00112233445566778899aabbccddeeff");
  auto aes = path.Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ct, 16), ct_hex);
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(back, 16), HexEncode(pt));
}

TEST(AesTest, Fips197Aes128Block) {
  Bytes key = Hx("000102030405060708090a0b0c0d0e0f");
  for (auto path : AesPaths()) {
    ExpectFips197Block(path, key, "69c4e0d86a7b0430d8cdb78070b4c55a");
  }
}

TEST(AesTest, Fips197Aes256Block) {
  Bytes key =
      Hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  for (auto path : AesPaths()) {
    ExpectFips197Block(path, key, "8ea2b7ca516745bfeafc49904b496089");
  }
}

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_FALSE(Aes::Create(Bytes(17, 0)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(24, 0)).ok());  // AES-192 unsupported
  for (auto path : AesPaths()) {
    EXPECT_FALSE(path.Create(Bytes(24, 0)).ok());
    EXPECT_FALSE(path.CbcEncrypt(Bytes(24, 0), Bytes(16, 0), {}).ok());
  }
}

// NIST SP 800-38A F.2.5: AES-256-CBC.
TEST(AesTest, Sp80038aCbc256) {
  Bytes key =
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = Hx("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hx("6bc1bee22e409f96e93d7e117393172a");
  for (auto path : AesPaths()) {
    SCOPED_TRACE(PathName(path.accelerated));
    auto ct = path.CbcEncrypt(key, iv, pt);
    ASSERT_TRUE(ct.ok());
    // First block must match the NIST vector (ours adds a padding block).
    EXPECT_EQ(HexEncode(ct->data(), 16), "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
    EXPECT_EQ(*ct, *AesCbcEncrypt(key, iv, pt));
    auto back = path.CbcDecrypt(key, iv, *ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);
  }
}

TEST(AesTest, CbcRoundTripVariousLengths) {
  Bytes key(32, 0x42);
  Bytes iv(16, 0x24);
  for (auto path : AesPaths()) {
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
      Bytes pt(len);
      for (size_t i = 0; i < len; ++i) pt[i] = static_cast<uint8_t>(i * 7);
      auto ct = path.CbcEncrypt(key, iv, pt);
      ASSERT_TRUE(ct.ok());
      auto back = path.CbcDecrypt(key, iv, *ct);
      ASSERT_TRUE(back.ok()) << len;
      EXPECT_EQ(*back, pt) << PathName(path.accelerated) << " " << len;
    }
  }
}

TEST(AesTest, CbcDecryptDetectsCorruptPadding) {
  Bytes key(32, 1), iv(16, 2);
  auto ct = AesCbcEncrypt(key, iv, ToBytes("attack at dawn"));
  ASSERT_TRUE(ct.ok());
  (*ct)[ct->size() - 1] ^= 0xff;
  auto back = AesCbcDecrypt(key, iv, *ct);
  // Either padding failure (likely) or garbage plaintext; must not be OK
  // with original content.
  if (back.ok()) {
    EXPECT_NE(*back, ToBytes("attack at dawn"));
  }
}

// NIST SP 800-38A F.5.5: AES-256-CTR.
TEST(AesTest, Sp80038aCtr256) {
  Bytes key =
      Hx("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes nonce = Hx("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = Hx("6bc1bee22e409f96e93d7e117393172a");
  for (auto path : AesPaths()) {
    auto ct = path.Ctr(key, nonce, pt);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(HexEncode(*ct), "601ec313775789a5b7a7f504bbf3d228")
        << PathName(path.accelerated);
    auto back = path.Ctr(key, nonce, *ct);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, pt);
  }
  EXPECT_EQ(HexEncode(*AesCtr(key, nonce, pt)),
            "601ec313775789a5b7a7f504bbf3d228");
}

// SP 800-38A F.2.1 / F.5.1 with an AES-128 key through the mode
// functions. The AES-NI path implements AES-128 itself (AESKEYGENASSIST
// key expansion, 10 rounds) rather than falling back to portable code.
TEST(AesTest, Aes128KeysOnEveryPath) {
  Bytes key = Hx("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes pt = Hx("6bc1bee22e409f96e93d7e117393172a");
  Bytes iv = Hx("000102030405060708090a0b0c0d0e0f");
  Bytes nonce = Hx("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  for (auto path : AesPaths()) {
    SCOPED_TRACE(PathName(path.accelerated));
    auto cbc = path.CbcEncrypt(key, iv, pt);
    ASSERT_TRUE(cbc.ok());
    EXPECT_EQ(HexEncode(cbc->data(), 16), "7649abac8119b246cee98e9b12e9197d");
    EXPECT_EQ(*path.CbcDecrypt(key, iv, *cbc), pt);
    auto ctr = path.Ctr(key, nonce, pt);
    ASSERT_TRUE(ctr.ok());
    EXPECT_EQ(HexEncode(*ctr), "874d6191b620e3261bef6864990db6ce");
  }
  EXPECT_EQ(HexEncode(AesCbcEncrypt(key, iv, pt)->data(), 16),
            "7649abac8119b246cee98e9b12e9197d");
  EXPECT_EQ(*AesCbcDecrypt(key, iv, *AesCbcEncrypt(key, iv, pt)), pt);
  EXPECT_EQ(HexEncode(*AesCtr(key, nonce, pt)),
            "874d6191b620e3261bef6864990db6ce");
}

// The counter is the big-endian low 8 bytes of the nonce: from ff..ff it
// wraps to 0 on the next block, and the high 8 bytes never change. 20
// blocks put the wrap inside the first 8-block AES-NI batch.
TEST(AesTest, CtrCounterWrapsLowHalfOnly) {
  Bytes key(32, 0x3c);
  Bytes nonce = Hx("0102030405060708ffffffffffffffff");
  Bytes data(20 * 16 + 5, 0);
  auto block_cipher = internal::AesPath{false}.Create(key);
  ASSERT_TRUE(block_cipher.ok());
  Bytes expected;
  for (uint64_t j = 0; j < 21; ++j) {
    uint8_t counter[16], keystream[16];
    std::memcpy(counter, nonce.data(), 8);
    uint64_t low = j - 1;  // ff..ff + j, modulo 2^64
    for (int b = 0; b < 8; ++b) {
      counter[15 - b] = static_cast<uint8_t>(low >> (8 * b));
    }
    block_cipher->EncryptBlock(counter, keystream);
    expected.insert(expected.end(), keystream, keystream + 16);
  }
  expected.resize(data.size());
  for (auto path : AesPaths()) {
    auto out = path.Ctr(key, nonce, data);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(HexEncode(*out), HexEncode(expected))
        << PathName(path.accelerated);
  }
}

// ---------- ChaCha20 (RFC 7539 §2.4.2) ----------

TEST(ChaCha20Test, Rfc7539Encryption) {
  Bytes key =
      Hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = Hx("000000000000004a00000000");
  Bytes pt = ToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  auto ct = ChaCha20(key, nonce, 1, pt);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(ct->data(), 16), "6e2e359a2568f98041ba0728dd0d6981");
  auto back = ChaCha20(key, nonce, 1, *ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(DrbgTest, DeterministicAndDistinct) {
  Drbg a(ToBytes("seed")), b(ToBytes("seed")), c(ToBytes("other"));
  Bytes ra = a.Generate(64), rb = b.Generate(64), rc = c.Generate(64);
  EXPECT_EQ(ra, rb);
  EXPECT_NE(ra, rc);
}

TEST(DrbgTest, StreamsAreNonRepeating) {
  Drbg d(ToBytes("x"));
  Bytes first = d.Generate(32);
  Bytes second = d.Generate(32);
  EXPECT_NE(first, second);
}

// ---------- Ed25519 (RFC 8032 §7.1) ----------

void ExpectRfc8032Vector(std::string_view seed_hex, std::string_view pk_hex,
                         std::string_view msg_hex, std::string_view sig_hex) {
  Bytes msg = Hx(msg_hex);
  for (const CurveImpl& impl : kCurveImpls) {
    SCOPED_TRACE(impl.name);
    auto kp = impl.key_pair(Hx(seed_hex));
    ASSERT_TRUE(kp.ok());
    EXPECT_EQ(HexEncode(kp->public_key), pk_hex);
    auto sig = impl.sign(kp->private_key, msg);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(HexEncode(*sig), sig_hex);
    EXPECT_TRUE(impl.verify(kp->public_key, msg, *sig));
  }
}

TEST(Ed25519Test, Rfc8032TestVector1) {
  ExpectRfc8032Vector(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
      "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
      "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
      "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
}

TEST(Ed25519Test, Rfc8032TestVector2) {
  ExpectRfc8032Vector(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
      "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
      "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
      "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
}

TEST(Ed25519Test, Rfc8032TestVector3) {
  ExpectRfc8032Vector(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
      "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
      "af82",
      "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
      "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
}

// RFC 8032 §5.1.7: S must be below the group order L. Adding L to S of a
// valid signature gives the same point [S]B, so the reference code (which
// skips the check) still accepts it; the production verifier must not.
TEST(Ed25519Test, VerifyRejectsNonCanonicalS) {
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x33));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("proof of compliance");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  const Bytes l = Hx(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  Bytes malleated = *sig;
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    unsigned sum = malleated[32 + i] + l[i] + carry;
    malleated[32 + i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  ASSERT_EQ(carry, 0u);
  EXPECT_TRUE(ref::Ed25519Verify(kp->public_key, msg, malleated));
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
  EXPECT_FALSE(Ed25519Verify(kp->public_key, msg, malleated));
  // S == L exactly is also out of range.
  Bytes s_equals_l = *sig;
  std::copy(l.begin(), l.end(), s_equals_l.begin() + 32);
  EXPECT_FALSE(Ed25519Verify(kp->public_key, msg, s_equals_l));
}

TEST(Ed25519Test, VerifyRejectsTamperedMessage) {
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x11));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("query: SELECT * FROM orders");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));

  Bytes tampered = msg;
  tampered[7] ^= 1;
  EXPECT_FALSE(Ed25519Verify(kp->public_key, tampered, *sig));
}

TEST(Ed25519Test, VerifyRejectsTamperedSignature) {
  auto kp = Ed25519KeyPairFromSeed(Bytes(32, 0x22));
  ASSERT_TRUE(kp.ok());
  Bytes msg = ToBytes("attestation quote");
  auto sig = Ed25519Sign(kp->private_key, msg);
  ASSERT_TRUE(sig.ok());
  for (size_t i : {0u, 31u, 32u, 63u}) {
    Bytes bad = *sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(Ed25519Verify(kp->public_key, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519Test, VerifyRejectsWrongKey) {
  auto kp1 = Ed25519KeyPairFromSeed(Bytes(32, 1));
  auto kp2 = Ed25519KeyPairFromSeed(Bytes(32, 2));
  Bytes msg = ToBytes("m");
  auto sig = Ed25519Sign(kp1->private_key, msg);
  EXPECT_FALSE(Ed25519Verify(kp2->public_key, msg, *sig));
}

// ---------- X25519 (RFC 7748 §5.2 / §6.1) ----------

TEST(X25519Test, Rfc7748Vector1) {
  Bytes scalar =
      Hx("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  Bytes point =
      Hx("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  for (const CurveImpl& impl : kCurveImpls) {
    auto out = impl.x25519(scalar, point);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(HexEncode(*out),
              "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")
        << impl.name;
  }
}

TEST(X25519Test, Rfc7748DiffieHellman) {
  Bytes alice_priv =
      Hx("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  Bytes bob_priv =
      Hx("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  for (const CurveImpl& impl : kCurveImpls) {
    SCOPED_TRACE(impl.name);
    auto alice_pub = impl.x25519_base(alice_priv);
    auto bob_pub = impl.x25519_base(bob_priv);
    ASSERT_TRUE(alice_pub.ok() && bob_pub.ok());
    EXPECT_EQ(HexEncode(*alice_pub),
              "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
    EXPECT_EQ(HexEncode(*bob_pub),
              "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
    auto k1 = impl.x25519(alice_priv, *bob_pub);
    auto k2 = impl.x25519(bob_priv, *alice_pub);
    ASSERT_TRUE(k1.ok() && k2.ok());
    EXPECT_EQ(*k1, *k2);
    EXPECT_EQ(HexEncode(*k1),
              "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
  }
}

// ---------- AEAD ----------

TEST(AeadTest, SealOpenRoundTrip) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  ASSERT_TRUE(aead.ok());
  Bytes nonce(16, 9);
  Bytes aad = ToBytes("session=42");
  Bytes pt = ToBytes("SELECT * FROM lineitem");
  auto sealed = aead->Seal(nonce, aad, pt);
  ASSERT_TRUE(sealed.ok());
  auto opened = aead->Open(aad, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(AeadTest, OpenRejectsCiphertextTamper) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  Bytes sealed = *aead->Seal(Bytes(16, 1), {}, ToBytes("data"));
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 1;
    EXPECT_TRUE(aead->Open({}, bad).status().IsCorruption()) << "byte " << i;
  }
}

TEST(AeadTest, OpenRejectsAadMismatch) {
  auto aead = Aead::Create(Bytes(64, 0x55));
  Bytes sealed = *aead->Seal(Bytes(16, 1), ToBytes("aad1"), ToBytes("data"));
  EXPECT_FALSE(aead->Open(ToBytes("aad2"), sealed).ok());
}

TEST(AeadTest, OpenRejectsShortInput) {
  auto aead = Aead::Create(Bytes(64, 0));
  EXPECT_TRUE(aead->Open({}, Bytes(10, 0)).status().IsCorruption());
}

TEST(AeadTest, DifferentKeysCannotOpen) {
  auto a1 = Aead::Create(Bytes(64, 1));
  auto a2 = Aead::Create(Bytes(64, 2));
  Bytes sealed = *a1->Seal(Bytes(16, 0), {}, ToBytes("secret"));
  EXPECT_FALSE(a2->Open({}, sealed).ok());
}

TEST(AeadTest, EmptyPlaintext) {
  auto aead = Aead::Create(Bytes(64, 7));
  auto sealed = aead->Seal(Bytes(16, 0), {}, {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->size(), Aead::kOverhead);
  auto opened = aead->Open({}, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// ---------- Accelerated vs portable / reference (seeded, randomized) ----------
// These skip, naming the missing CPU feature, where the accelerated path
// cannot run, so a CI log shows which paths were really compared.

TEST(CryptoEquivalenceTest, Sha256ShaNiMatchesPortable) {
  if (!internal::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks SHA-NI (sha)";
  const internal::Sha256Path portable{false}, accelerated{true};
  Random rng(0x5ea256);
  for (size_t len = 0; len <= 300; ++len) {
    Bytes data = RandomBytes(rng, len);
    Bytes want = portable.Hash(data);
    ASSERT_EQ(accelerated.Hash(data), want) << "len=" << len;
    // Split into up to three Update calls at random points.
    size_t a = rng.Uniform(len + 1), b = rng.Uniform(len + 1);
    if (a > b) std::swap(a, b);
    Sha256 h = accelerated.New();
    h.Update(data.data(), a);
    h.Update(data.data() + a, b - a);
    h.Update(data.data() + b, len - b);
    ASSERT_EQ(h.Final(), want) << "len=" << len << " splits=" << a << "," << b;
    Bytes key = RandomBytes(rng, rng.Uniform(150));
    ASSERT_EQ(accelerated.Hmac(key, data), portable.Hmac(key, data))
        << "len=" << len;
  }
}

TEST(CryptoEquivalenceTest, AesNiMatchesPortable) {
  if (!internal::CpuHasAesNi()) GTEST_SKIP() << "CPU lacks AES-NI (aes)";
  const internal::AesPath portable{false}, accelerated{true};
  Random rng(0xae5);
  for (int iter = 0; iter < 400; ++iter) {
    Bytes key = RandomBytes(rng, rng.Bernoulli(0.5) ? 32 : 16);
    Bytes iv = RandomBytes(rng, 16);
    size_t len = iter < 301 ? static_cast<size_t>(iter) : rng.Uniform(4200);
    Bytes data = RandomBytes(rng, len);
    SCOPED_TRACE("key=" + std::to_string(key.size()) +
                 " len=" + std::to_string(len));

    auto ct = portable.CbcEncrypt(key, iv, data);
    ASSERT_TRUE(ct.ok());
    ASSERT_EQ(*accelerated.CbcEncrypt(key, iv, data), *ct);
    ASSERT_EQ(*accelerated.CbcDecrypt(key, iv, *ct), data);
    // Decrypting random blocks exercises every block position of the
    // 8-way pipeline; compare status and bytes with the portable path.
    Bytes blocks = RandomBytes(rng, 16 * (1 + rng.Uniform(40)));
    auto want = portable.CbcDecrypt(key, iv, blocks);
    auto got = accelerated.CbcDecrypt(key, iv, blocks);
    ASSERT_EQ(got.ok(), want.ok());
    if (want.ok()) {
      ASSERT_EQ(*got, *want);
    }

    ASSERT_EQ(*accelerated.Ctr(key, iv, data), *portable.Ctr(key, iv, data));

    uint8_t block[16], x[16], y[16];
    std::memcpy(block, iv.data(), 16);
    auto pa = portable.Create(key);
    auto aa = accelerated.Create(key);
    pa->EncryptBlock(block, x);
    aa->EncryptBlock(block, y);
    ASSERT_EQ(HexEncode(x, 16), HexEncode(y, 16));
    pa->DecryptBlock(block, x);
    aa->DecryptBlock(block, y);
    ASSERT_EQ(HexEncode(x, 16), HexEncode(y, 16));
  }
}

TEST(CryptoEquivalenceTest, Ed25519MatchesReference) {
  Random rng(0xed25519);
  for (int iter = 0; iter < 48; ++iter) {
    Bytes seed = RandomBytes(rng, 32);
    Bytes msg = RandomBytes(rng, rng.Uniform(300));
    auto kp = Ed25519KeyPairFromSeed(seed);
    auto ref_kp = ref::Ed25519KeyPairFromSeed(seed);
    ASSERT_TRUE(kp.ok() && ref_kp.ok());
    ASSERT_EQ(kp->public_key, ref_kp->public_key) << "iter=" << iter;
    auto sig = Ed25519Sign(kp->private_key, msg);
    ASSERT_TRUE(sig.ok());
    ASSERT_EQ(*sig, *ref::Ed25519Sign(kp->private_key, msg));
    ASSERT_TRUE(Ed25519Verify(kp->public_key, msg, *sig));
    Bytes bad = *sig;
    bad[rng.Uniform(64)] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    ASSERT_EQ(Ed25519Verify(kp->public_key, msg, bad),
              ref::Ed25519Verify(kp->public_key, msg, bad));
    // A random 32-byte string is a valid point about half the time.
    Bytes random_key = RandomBytes(rng, 32);
    ASSERT_EQ(Ed25519Verify(random_key, msg, *sig),
              ref::Ed25519Verify(random_key, msg, *sig));
  }
}

TEST(CryptoEquivalenceTest, X25519MatchesReference) {
  Random rng(0x25519);
  for (int iter = 0; iter < 48; ++iter) {
    Bytes scalar = RandomBytes(rng, 32);
    Bytes point = RandomBytes(rng, 32);  // includes u >= p and bit 255 set
    ASSERT_EQ(*X25519(scalar, point), *ref::X25519(scalar, point))
        << "iter=" << iter;
    ASSERT_EQ(*X25519Base(scalar), *ref::X25519Base(scalar)) << "iter=" << iter;
  }
  // RFC 7748 §5: non-canonical u (p, p + 1, p + 9, 2^255 - 1, and the
  // same with bit 255 set) is reduced mod p, identically on both.
  const Bytes p = Hx(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  for (int add : {0, 1, 9, 18}) {
    for (int top : {0x00, 0x80}) {
      Bytes u = p;
      u[0] = static_cast<uint8_t>(u[0] + add);
      u[31] = static_cast<uint8_t>(u[31] | top);
      Bytes scalar = RandomBytes(rng, 32);
      ASSERT_EQ(*X25519(scalar, u), *ref::X25519(scalar, u))
          << "add=" << add << " top=" << top;
    }
  }
  // Low-order input: the shared secret is all zeros on both.
  Bytes zero(32, 0);
  EXPECT_EQ(*X25519(Bytes(32, 7), zero), zero);
  EXPECT_EQ(*ref::X25519(Bytes(32, 7), zero), zero);
}

}  // namespace
}  // namespace ironsafe::crypto
