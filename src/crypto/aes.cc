#include "crypto/aes.h"

#include <algorithm>
#include <cstring>

#include "crypto/internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ironsafe::crypto {

namespace {

// ---- Portable AES: the only path without AES-NI, and the reference the
// AES-NI path is tested against. The S-box lookups are table-driven and
// therefore not constant-time.

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                               0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a};

uint8_t Xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

uint8_t Mul(uint8_t x, uint8_t y) {
  uint8_t r = 0;
  while (y) {
    if (y & 1) r ^= x;
    x = Xtime(x);
    y >>= 1;
  }
  return r;
}

uint32_t SubWord(uint32_t w) {
  return static_cast<uint32_t>(kSbox[w >> 24]) << 24 |
         static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16 |
         static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8 |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

/// FIPS 197 key expansion into byte-order round keys; returns the round
/// count.
int ExpandKeyPortable(const Bytes& key, uint8_t* round_keys) {
  const int nk = static_cast<int>(key.size() / 4);
  const int rounds = nk + 6;
  const int total = 4 * (rounds + 1);

  uint32_t w[60] = {};
  for (int i = 0; i < nk; ++i) {
    w[i] = static_cast<uint32_t>(key[4 * i]) << 24 |
           static_cast<uint32_t>(key[4 * i + 1]) << 16 |
           static_cast<uint32_t>(key[4 * i + 2]) << 8 |
           static_cast<uint32_t>(key[4 * i + 3]);
  }
  for (int i = nk; i < total; ++i) {
    uint32_t temp = w[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^
             (static_cast<uint32_t>(kRcon[i / nk - 1]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    w[i] = w[i - nk] ^ temp;
  }
  for (int i = 0; i < total; ++i) {
    for (int b = 0; b < 4; ++b) {
      round_keys[4 * i + b] = static_cast<uint8_t>(w[i] >> (24 - 8 * b));
    }
  }
  return rounds;
}

void AddRoundKey(uint8_t state[16], const uint8_t* rk) {
  for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
}

void SubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

void InvSubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kInvSbox[state[i]];
}

// State layout is column-major: state[4*c + r] is row r, column c.
void ShiftRows(uint8_t s[16]) {
  uint8_t t;
  // Row 1: shift left by 1.
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // Row 2: shift left by 2.
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // Row 3: shift left by 3 (== right by 1).
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void InvShiftRows(uint8_t s[16]) {
  uint8_t t;
  t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
}

void MixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(Xtime(a0) ^ (Xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ Xtime(a1) ^ (Xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ Xtime(a2) ^ (Xtime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((Xtime(a0) ^ a0) ^ a1 ^ a2 ^ Xtime(a3));
  }
}

void InvMixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = Mul(a0, 14) ^ Mul(a1, 11) ^ Mul(a2, 13) ^ Mul(a3, 9);
    col[1] = Mul(a0, 9) ^ Mul(a1, 14) ^ Mul(a2, 11) ^ Mul(a3, 13);
    col[2] = Mul(a0, 13) ^ Mul(a1, 9) ^ Mul(a2, 14) ^ Mul(a3, 11);
    col[3] = Mul(a0, 11) ^ Mul(a1, 13) ^ Mul(a2, 9) ^ Mul(a3, 14);
  }
}

void EncryptBlockPortable(const uint8_t* rk, int rounds, const uint8_t in[16],
                          uint8_t out[16]) {
  uint8_t state[16];
  std::memcpy(state, in, 16);
  AddRoundKey(state, rk);
  for (int round = 1; round < rounds; ++round) {
    SubBytes(state);
    ShiftRows(state);
    MixColumns(state);
    AddRoundKey(state, rk + 16 * round);
  }
  SubBytes(state);
  ShiftRows(state);
  AddRoundKey(state, rk + 16 * rounds);
  std::memcpy(out, state, 16);
}

void DecryptBlockPortable(const uint8_t* rk, int rounds, const uint8_t in[16],
                          uint8_t out[16]) {
  uint8_t state[16];
  std::memcpy(state, in, 16);
  AddRoundKey(state, rk + 16 * rounds);
  for (int round = rounds - 1; round >= 1; --round) {
    InvShiftRows(state);
    InvSubBytes(state);
    AddRoundKey(state, rk + 16 * round);
    InvMixColumns(state);
  }
  InvShiftRows(state);
  InvSubBytes(state);
  AddRoundKey(state, rk);
  std::memcpy(out, state, 16);
}

/// CBC-encrypts `blocks` whole blocks of `data` in place.
void CbcEncryptPortable(const uint8_t* rk, int rounds, const uint8_t* iv,
                        uint8_t* data, size_t blocks) {
  const uint8_t* prev = iv;
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t* block = data + 16 * b;
    for (int i = 0; i < 16; ++i) block[i] ^= prev[i];
    EncryptBlockPortable(rk, rounds, block, block);
    prev = block;
  }
}

void CbcDecryptPortable(const uint8_t* rk, int rounds, const uint8_t* iv,
                        const uint8_t* in, uint8_t* out, size_t blocks) {
  const uint8_t* prev = iv;
  for (size_t b = 0; b < blocks; ++b) {
    uint8_t block[16];
    DecryptBlockPortable(rk, rounds, in + 16 * b, block);
    for (int i = 0; i < 16; ++i) out[16 * b + i] = block[i] ^ prev[i];
    prev = in + 16 * b;
  }
}

void CtrPortable(const uint8_t* rk, int rounds, const uint8_t* nonce,
                 const uint8_t* in, uint8_t* out, size_t len) {
  uint8_t counter[16];
  std::memcpy(counter, nonce, 16);
  uint8_t keystream[16];
  for (size_t off = 0; off < len; off += 16) {
    EncryptBlockPortable(rk, rounds, counter, keystream);
    size_t n = std::min<size_t>(16, len - off);
    for (size_t i = 0; i < n; ++i) out[off + i] = in[off + i] ^ keystream[i];
    // Increment the big-endian counter in the low 8 bytes.
    for (int i = 15; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

// ---- AES-NI: constant-time (no table lookups), 8 blocks in flight for
// CBC decryption and CTR. Every function carries the target attribute
// because the portable build compiles this file without -maes.

#if defined(__x86_64__)

#define IRONSAFE_AESNI __attribute__((target("aes,sse4.1")))

IRONSAFE_AESNI inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

IRONSAFE_AESNI inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// One key-schedule step: prefix-XORs the four words of `k` and XORs in
/// `t`, the broadcast SubWord/RotWord term.
IRONSAFE_AESNI inline __m128i KeyMix(__m128i k, __m128i t) {
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  k = _mm_xor_si128(k, _mm_slli_si128(k, 4));
  return _mm_xor_si128(k, t);
}

// The round constant must be an immediate, hence the template parameter.
template <int kRcon>
IRONSAFE_AESNI inline void Expand128(__m128i* rk, int i) {
  __m128i t = _mm_aeskeygenassist_si128(rk[i - 1], kRcon);
  rk[i] = KeyMix(rk[i - 1], _mm_shuffle_epi32(t, 0xff));
}

/// Round keys i and i + 1 of AES-256 (only i for the last, i == 14).
template <int kRcon>
IRONSAFE_AESNI inline void Expand256(__m128i* rk, int i) {
  __m128i t = _mm_aeskeygenassist_si128(rk[i - 1], kRcon);
  rk[i] = KeyMix(rk[i - 2], _mm_shuffle_epi32(t, 0xff));
  if (i == 14) return;
  t = _mm_aeskeygenassist_si128(rk[i], 0);
  rk[i + 1] = KeyMix(rk[i - 1], _mm_shuffle_epi32(t, 0xaa));
}

IRONSAFE_AESNI int ExpandKeyNi(const Bytes& key, uint8_t* enc, uint8_t* dec) {
  __m128i rk[15];
  int rounds;
  rk[0] = Load(key.data());
  if (key.size() == 16) {
    rounds = 10;
    Expand128<0x01>(rk, 1);
    Expand128<0x02>(rk, 2);
    Expand128<0x04>(rk, 3);
    Expand128<0x08>(rk, 4);
    Expand128<0x10>(rk, 5);
    Expand128<0x20>(rk, 6);
    Expand128<0x40>(rk, 7);
    Expand128<0x80>(rk, 8);
    Expand128<0x1b>(rk, 9);
    Expand128<0x36>(rk, 10);
  } else {
    rounds = 14;
    rk[1] = Load(key.data() + 16);
    Expand256<0x01>(rk, 2);
    Expand256<0x02>(rk, 4);
    Expand256<0x04>(rk, 6);
    Expand256<0x08>(rk, 8);
    Expand256<0x10>(rk, 10);
    Expand256<0x20>(rk, 12);
    Expand256<0x40>(rk, 14);
  }
  for (int r = 0; r <= rounds; ++r) Store(enc + 16 * r, rk[r]);
  // Equivalent inverse cipher: reversed keys, InvMixColumns on the middle.
  Store(dec, rk[rounds]);
  for (int r = 1; r < rounds; ++r) {
    Store(dec + 16 * r, _mm_aesimc_si128(rk[rounds - r]));
  }
  Store(dec + 16 * rounds, rk[0]);
  return rounds;
}

IRONSAFE_AESNI inline void LoadKeys(const uint8_t* rk, int rounds, __m128i* k) {
  for (int r = 0; r <= rounds; ++r) k[r] = Load(rk + 16 * r);
}

IRONSAFE_AESNI inline __m128i Encrypt(const __m128i* k, int rounds, __m128i x) {
  x = _mm_xor_si128(x, k[0]);
  for (int r = 1; r < rounds; ++r) x = _mm_aesenc_si128(x, k[r]);
  return _mm_aesenclast_si128(x, k[rounds]);
}

IRONSAFE_AESNI inline __m128i Decrypt(const __m128i* k, int rounds, __m128i x) {
  x = _mm_xor_si128(x, k[0]);
  for (int r = 1; r < rounds; ++r) x = _mm_aesdec_si128(x, k[r]);
  return _mm_aesdeclast_si128(x, k[rounds]);
}

IRONSAFE_AESNI void EncryptBlockNi(const uint8_t* rk, int rounds,
                                   const uint8_t in[16], uint8_t out[16]) {
  __m128i k[15] = {};
  LoadKeys(rk, rounds, k);
  Store(out, Encrypt(k, rounds, Load(in)));
}

IRONSAFE_AESNI void DecryptBlockNi(const uint8_t* dk, int rounds,
                                   const uint8_t in[16], uint8_t out[16]) {
  __m128i k[15] = {};
  LoadKeys(dk, rounds, k);
  Store(out, Decrypt(k, rounds, Load(in)));
}

IRONSAFE_AESNI void CbcEncryptNi(const uint8_t* rk, int rounds,
                                 const uint8_t* iv, uint8_t* data,
                                 size_t blocks) {
  __m128i k[15] = {};
  LoadKeys(rk, rounds, k);
  __m128i prev = Load(iv);
  for (size_t b = 0; b < blocks; ++b) {
    prev = Encrypt(k, rounds, _mm_xor_si128(Load(data + 16 * b), prev));
    Store(data + 16 * b, prev);
  }
}

/// CBC decryption has no chaining dependency between block decryptions,
/// so eight blocks go through the AESDEC pipeline together.
IRONSAFE_AESNI void CbcDecryptNi(const uint8_t* dk, int rounds,
                                 const uint8_t* iv, const uint8_t* in,
                                 uint8_t* out, size_t blocks) {
  __m128i k[15] = {};
  LoadKeys(dk, rounds, k);
  __m128i prev = Load(iv);
  size_t b = 0;
  for (; b + 8 <= blocks; b += 8) {
    __m128i c[8], x[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      c[j] = Load(in + 16 * (b + j));
      x[j] = _mm_xor_si128(c[j], k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) x[j] = _mm_aesdec_si128(x[j], k[r]);
    }
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm_aesdeclast_si128(x[j], k[rounds]);
      Store(out + 16 * (b + j), _mm_xor_si128(x[j], j == 0 ? prev : c[j - 1]));
    }
    prev = c[7];
  }
  for (; b < blocks; ++b) {
    __m128i c = Load(in + 16 * b);
    Store(out + 16 * b, _mm_xor_si128(Decrypt(k, rounds, c), prev));
    prev = c;
  }
}

/// Counter block `n` blocks after the nonce: the high 8 bytes stay fixed
/// and the big-endian low 8 bytes wrap modulo 2^64.
IRONSAFE_AESNI inline __m128i CounterBlock(uint64_t high, uint64_t low,
                                           uint64_t n) {
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(low + n)),
                        static_cast<long long>(high));
}

IRONSAFE_AESNI void CtrNi(const uint8_t* rk, int rounds, const uint8_t* nonce,
                          const uint8_t* in, uint8_t* out, size_t len) {
  __m128i k[15] = {};
  LoadKeys(rk, rounds, k);
  uint64_t high, low;
  std::memcpy(&high, nonce, 8);
  std::memcpy(&low, nonce + 8, 8);
  low = __builtin_bswap64(low);
  uint64_t n = 0;
  size_t off = 0;
  for (; off + 128 <= len; off += 128, n += 8) {
    __m128i x[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm_xor_si128(CounterBlock(high, low, n + static_cast<uint64_t>(j)), k[0]);
    }
    for (int r = 1; r < rounds; ++r) {
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) x[j] = _mm_aesenc_si128(x[j], k[r]);
    }
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm_aesenclast_si128(x[j], k[rounds]);
      uint8_t* o = out + off + 16 * j;
      Store(o, _mm_xor_si128(x[j], Load(in + off + 16 * j)));
    }
  }
  for (; off < len; off += 16, ++n) {
    __m128i ks = Encrypt(k, rounds, CounterBlock(high, low, n));
    if (len - off >= 16) {
      Store(out + off, _mm_xor_si128(ks, Load(in + off)));
      continue;
    }
    uint8_t tail[16];
    Store(tail, ks);
    for (size_t i = 0; off + i < len; ++i) out[off + i] = in[off + i] ^ tail[i];
  }
}

#undef IRONSAFE_AESNI

bool DetectAesNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
}

#else  // !defined(__x86_64__)

// No AES-NI off x86-64: DetectAesNi() is false, so these never run.
bool DetectAesNi() { return false; }
int ExpandKeyNi(const Bytes& key, uint8_t* enc, uint8_t*) {
  return ExpandKeyPortable(key, enc);
}
void EncryptBlockNi(const uint8_t* rk, int rounds, const uint8_t in[16],
                    uint8_t out[16]) {
  EncryptBlockPortable(rk, rounds, in, out);
}
void DecryptBlockNi(const uint8_t* rk, int rounds, const uint8_t in[16],
                    uint8_t out[16]) {
  DecryptBlockPortable(rk, rounds, in, out);
}
void CbcEncryptNi(const uint8_t* rk, int rounds, const uint8_t* iv,
                  uint8_t* data, size_t blocks) {
  CbcEncryptPortable(rk, rounds, iv, data, blocks);
}
void CbcDecryptNi(const uint8_t* rk, int rounds, const uint8_t* iv,
                  const uint8_t* in, uint8_t* out, size_t blocks) {
  CbcDecryptPortable(rk, rounds, iv, in, out, blocks);
}
void CtrNi(const uint8_t* rk, int rounds, const uint8_t* nonce,
           const uint8_t* in, uint8_t* out, size_t len) {
  CtrPortable(rk, rounds, nonce, in, out, len);
}

#endif  // defined(__x86_64__)

internal::AesPath DefaultPath() { return {internal::CpuHasAesNi()}; }

}  // namespace

namespace internal {

bool CpuHasAesNi() {
  static const bool has = DetectAesNi();
  return has;
}

Result<Aes> AesPath::Create(const Bytes& key) const {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  Aes aes;
  aes.accelerated_ = accelerated;
  aes.rounds_ = accelerated
                    ? ExpandKeyNi(key, aes.enc_keys_, aes.dec_keys_)
                    : ExpandKeyPortable(key, aes.enc_keys_);
  return aes;
}

Result<Bytes> AesPath::CbcEncrypt(const Bytes& key, const Bytes& iv,
                                  const Bytes& plaintext) const {
  if (iv.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CBC IV must be 16 bytes");
  }
  ASSIGN_OR_RETURN(Aes aes, Create(key));

  // PKCS#7 pad, then encrypt in place.
  size_t pad = Aes::kBlockSize - plaintext.size() % Aes::kBlockSize;
  Bytes out(plaintext.size() + pad, static_cast<uint8_t>(pad));
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  const size_t blocks = out.size() / Aes::kBlockSize;
  if (aes.accelerated_) {
    CbcEncryptNi(aes.enc_keys_, aes.rounds_, iv.data(), out.data(), blocks);
  } else {
    CbcEncryptPortable(aes.enc_keys_, aes.rounds_, iv.data(), out.data(),
                       blocks);
  }
  return out;
}

Result<Bytes> AesPath::CbcDecrypt(const Bytes& key, const Bytes& iv,
                                  const Bytes& ciphertext) const {
  if (iv.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CBC IV must be 16 bytes");
  }
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    return Status::InvalidArgument("CBC ciphertext not block aligned");
  }
  ASSIGN_OR_RETURN(Aes aes, Create(key));

  Bytes out(ciphertext.size());
  const size_t blocks = ciphertext.size() / Aes::kBlockSize;
  if (aes.accelerated_) {
    CbcDecryptNi(aes.dec_keys_, aes.rounds_, iv.data(), ciphertext.data(),
                 out.data(), blocks);
  } else {
    CbcDecryptPortable(aes.enc_keys_, aes.rounds_, iv.data(),
                       ciphertext.data(), out.data(), blocks);
  }

  uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    return Status::Corruption("bad PKCS#7 padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) return Status::Corruption("bad PKCS#7 padding");
  }
  out.resize(out.size() - pad);
  return out;
}

Result<Bytes> AesPath::Ctr(const Bytes& key, const Bytes& nonce,
                           const Bytes& data) const {
  if (nonce.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CTR nonce must be 16 bytes");
  }
  ASSIGN_OR_RETURN(Aes aes, Create(key));

  Bytes out(data.size());
  if (aes.accelerated_) {
    CtrNi(aes.enc_keys_, aes.rounds_, nonce.data(), data.data(), out.data(),
          data.size());
  } else {
    CtrPortable(aes.enc_keys_, aes.rounds_, nonce.data(), data.data(),
                out.data(), data.size());
  }
  return out;
}

}  // namespace internal

Result<Aes> Aes::Create(const Bytes& key) { return DefaultPath().Create(key); }

void Aes::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (accelerated_) {
    EncryptBlockNi(enc_keys_, rounds_, in, out);
  } else {
    EncryptBlockPortable(enc_keys_, rounds_, in, out);
  }
}

void Aes::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
  if (accelerated_) {
    DecryptBlockNi(dec_keys_, rounds_, in, out);
  } else {
    DecryptBlockPortable(enc_keys_, rounds_, in, out);
  }
}

Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext) {
  return DefaultPath().CbcEncrypt(key, iv, plaintext);
}

Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& ciphertext) {
  return DefaultPath().CbcDecrypt(key, iv, ciphertext);
}

Result<Bytes> AesCtr(const Bytes& key, const Bytes& nonce, const Bytes& data) {
  return DefaultPath().Ctr(key, nonce, data);
}

}  // namespace ironsafe::crypto
