#include "crypto/sha512.h"

#include <cstring>

namespace ironsafe::crypto {

namespace {

constexpr uint64_t kK[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL,
    0xe9b5dba58189dbbcULL, 0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL, 0xd807aa98a3030242ULL,
    0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL,
    0xc19bf174cf692694ULL, 0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL, 0x2de92c6f592b0275ULL,
    0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL,
    0xbf597fc7beef0ee4ULL, 0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL, 0x27b70a8546d22ffcULL,
    0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL,
    0x92722c851482353bULL, 0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL, 0xd192e819d6ef5218ULL,
    0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL,
    0x34b0bcb5e19b48a8ULL, 0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL, 0x748f82ee5defb2fcULL,
    0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL,
    0xc67178f2e372532bULL, 0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL, 0x06f067aa72176fbaULL,
    0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL,
    0x431d67c49c100d4cULL, 0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

uint64_t Rotr(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

/// One round. The caller rotates the roles of a..h instead of moving
/// eight words per round: only d and h change.
inline void Round(uint64_t a, uint64_t b, uint64_t c, uint64_t& d, uint64_t e,
                  uint64_t f, uint64_t g, uint64_t& h, uint64_t kw) {
  uint64_t t1 = h + (Rotr(e, 14) ^ Rotr(e, 18) ^ Rotr(e, 41)) +
                (g ^ (e & (f ^ g))) + kw;
  uint64_t t2 = (Rotr(a, 28) ^ Rotr(a, 34) ^ Rotr(a, 39)) +
                ((a & b) | (c & (a | b)));
  d += t1;
  h = t1 + t2;
}

/// Message word i >= 16, computed in place in the 16-word window.
inline uint64_t Schedule(uint64_t w[16], int i) {
  uint64_t w15 = w[(i - 15) & 15], w2 = w[(i - 2) & 15];
  uint64_t s0 = Rotr(w15, 1) ^ Rotr(w15, 8) ^ (w15 >> 7);
  uint64_t s1 = Rotr(w2, 19) ^ Rotr(w2, 61) ^ (w2 >> 6);
  return w[i & 15] += s0 + w[(i - 7) & 15] + s1;
}

}  // namespace

Sha512::Sha512() { Reset(); }

void Sha512::Reset() {
  state_[0] = 0x6a09e667f3bcc908ULL;
  state_[1] = 0xbb67ae8584caa73bULL;
  state_[2] = 0x3c6ef372fe94f82bULL;
  state_[3] = 0xa54ff53a5f1d36f1ULL;
  state_[4] = 0x510e527fade682d1ULL;
  state_[5] = 0x9b05688c2b3e6c1fULL;
  state_[6] = 0x1f83d9abfb41bd6bULL;
  state_[7] = 0x5be0cd19137e2179ULL;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha512::Compress(const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += kBlockSize) {
    uint64_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = LoadBe64(data + 8 * i);

    uint64_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 16; i += 8) {
      Round(a, b, c, d, e, f, g, h, kK[i] + w[i]);
      Round(h, a, b, c, d, e, f, g, kK[i + 1] + w[i + 1]);
      Round(g, h, a, b, c, d, e, f, kK[i + 2] + w[i + 2]);
      Round(f, g, h, a, b, c, d, e, kK[i + 3] + w[i + 3]);
      Round(e, f, g, h, a, b, c, d, kK[i + 4] + w[i + 4]);
      Round(d, e, f, g, h, a, b, c, kK[i + 5] + w[i + 5]);
      Round(c, d, e, f, g, h, a, b, kK[i + 6] + w[i + 6]);
      Round(b, c, d, e, f, g, h, a, kK[i + 7] + w[i + 7]);
    }
    for (int i = 16; i < 80; i += 8) {
      Round(a, b, c, d, e, f, g, h, kK[i] + Schedule(w, i));
      Round(h, a, b, c, d, e, f, g, kK[i + 1] + Schedule(w, i + 1));
      Round(g, h, a, b, c, d, e, f, kK[i + 2] + Schedule(w, i + 2));
      Round(f, g, h, a, b, c, d, e, kK[i + 3] + Schedule(w, i + 3));
      Round(e, f, g, h, a, b, c, d, kK[i + 4] + Schedule(w, i + 4));
      Round(d, e, f, g, h, a, b, c, kK[i + 5] + Schedule(w, i + 5));
      Round(c, d, e, f, g, h, a, b, kK[i + 6] + Schedule(w, i + 6));
      Round(b, c, d, e, f, g, h, a, kK[i + 7] + Schedule(w, i + 7));
    }

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }
}

void Sha512::Update(const uint8_t* data, size_t len) {
  // An empty Bytes has a null data(), which memcpy must not see.
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      Compress(buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= kBlockSize) {
    Compress(data, len / kBlockSize);
    data += len - len % kBlockSize;
    len %= kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

Bytes Sha512::Final() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[kBlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  size_t rem = (buffer_len_ + 1) % kBlockSize;
  size_t zeros = (rem <= 112) ? (112 - rem) : (112 + kBlockSize - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  // 128-bit length field: high 64 bits are zero at simulation scale.
  for (int i = 0; i < 8; ++i) pad[pad_len++] = 0;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(pad, pad_len);

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      digest[i * 8 + j] = static_cast<uint8_t>(state_[i] >> (56 - 8 * j));
    }
  }
  return digest;
}

Bytes Sha512::Hash(const Bytes& data) {
  Sha512 h;
  h.Update(data);
  return h.Final();
}

Bytes Sha512::Hash(std::string_view data) {
  Sha512 h;
  h.Update(data);
  return h.Final();
}

}  // namespace ironsafe::crypto
