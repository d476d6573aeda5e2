// Test-only reference Ed25519 / X25519 following the TweetNaCl
// construction: field elements of GF(2^255 - 19) in radix-2^16 limbs
// (int64[16]), the Montgomery ladder for X25519, and extended Edwards
// coordinates with a bitwise double-and-add for Ed25519. crypto_test
// checks the radix-2^51 code in src/crypto/ed25519.cc against it.

#include "ed25519_ref.h"

#include <cstring>

#include "crypto/sha512.h"

namespace ironsafe::crypto::ref {

namespace {

using i64 = int64_t;
using Gf = i64[16];

const Gf kGf0 = {0};
const Gf kGf1 = {1};
const Gf k121665 = {0xDB41, 1};
const Gf kD = {0x78a3, 0x1359, 0x4dca, 0x75eb, 0xd8ab, 0x4141, 0x0a4d, 0x0070,
               0xe898, 0x7779, 0x4079, 0x8cc7, 0xfe73, 0x2b6f, 0x6cee, 0x5203};
const Gf kD2 = {0xf159, 0x26b2, 0x9b94, 0xebd6, 0xb156, 0x8283, 0x149a, 0x00e0,
                0xd130, 0xeef3, 0x80f2, 0x198e, 0xfce7, 0x56df, 0xd9dc, 0x2406};
const Gf kX = {0xd51a, 0x8f25, 0x2d60, 0xc956, 0xa7b2, 0x9525, 0xc760, 0x692c,
               0xdc5c, 0xfdd6, 0xe231, 0xc0a4, 0x53fe, 0xcd6e, 0x36d3, 0x2169};
const Gf kY = {0x6658, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666,
               0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666, 0x6666};
const Gf kI = {0xa0b0, 0x4a0e, 0x1b27, 0xc4ee, 0xe478, 0xad2f, 0x1806, 0x2f43,
               0xd7a7, 0x3dfb, 0x0099, 0x2b4d, 0xdf0b, 0x4fc1, 0x2480, 0x2b83};

void Set25519(Gf r, const Gf a) {
  for (int i = 0; i < 16; ++i) r[i] = a[i];
}

void Car25519(Gf o) {
  for (int i = 0; i < 16; ++i) {
    o[i] += (1LL << 16);
    i64 c = o[i] >> 16;
    o[(i + 1) * (i < 15)] += c - 1 + 37 * (c - 1) * (i == 15);
    o[i] -= c << 16;
  }
}

void Sel25519(Gf p, Gf q, int b) {
  i64 c = ~static_cast<i64>(b - 1);
  for (int i = 0; i < 16; ++i) {
    i64 t = c & (p[i] ^ q[i]);
    p[i] ^= t;
    q[i] ^= t;
  }
}

void Pack25519(uint8_t* o, const Gf n) {
  Gf m, t;
  Set25519(t, n);
  Car25519(t);
  Car25519(t);
  Car25519(t);
  for (int j = 0; j < 2; ++j) {
    m[0] = t[0] - 0xffed;
    for (int i = 1; i < 15; ++i) {
      m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
      m[i - 1] &= 0xffff;
    }
    m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
    int b = static_cast<int>((m[15] >> 16) & 1);
    m[14] &= 0xffff;
    Sel25519(t, m, 1 - b);
  }
  for (int i = 0; i < 16; ++i) {
    o[2 * i] = static_cast<uint8_t>(t[i] & 0xff);
    o[2 * i + 1] = static_cast<uint8_t>(t[i] >> 8);
  }
}

int Verify32(const uint8_t* x, const uint8_t* y) {
  uint32_t d = 0;
  for (int i = 0; i < 32; ++i) d |= x[i] ^ y[i];
  return (1 & ((d - 1) >> 8)) - 1;  // 0 if equal, -1 otherwise
}

int Neq25519(const Gf a, const Gf b) {
  uint8_t c[32], d[32];
  Pack25519(c, a);
  Pack25519(d, b);
  return Verify32(c, d);
}

uint8_t Par25519(const Gf a) {
  uint8_t d[32];
  Pack25519(d, a);
  return d[0] & 1;
}

void Unpack25519(Gf o, const uint8_t* n) {
  for (int i = 0; i < 16; ++i) {
    o[i] = n[2 * i] + (static_cast<i64>(n[2 * i + 1]) << 8);
  }
  o[15] &= 0x7fff;
}

void Add(Gf o, const Gf a, const Gf b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] + b[i];
}

void Sub(Gf o, const Gf a, const Gf b) {
  for (int i = 0; i < 16; ++i) o[i] = a[i] - b[i];
}

void Mul(Gf o, const Gf a, const Gf b) {
  i64 t[31];
  for (int i = 0; i < 31; ++i) t[i] = 0;
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) t[i + j] += a[i] * b[j];
  }
  for (int i = 0; i < 15; ++i) t[i] += 38 * t[i + 16];
  for (int i = 0; i < 16; ++i) o[i] = t[i];
  Car25519(o);
  Car25519(o);
}

void Sqr(Gf o, const Gf a) { Mul(o, a, a); }

void Inv25519(Gf o, const Gf in) {
  Gf c;
  Set25519(c, in);
  for (int a = 253; a >= 0; --a) {
    Sqr(c, c);
    if (a != 2 && a != 4) Mul(c, c, in);
  }
  Set25519(o, c);
}

void Pow2523(Gf o, const Gf in) {
  Gf c;
  Set25519(c, in);
  for (int a = 250; a >= 0; --a) {
    Sqr(c, c);
    if (a != 1) Mul(c, c, in);
  }
  Set25519(o, c);
}

// ---- Edwards curve point ops (extended coordinates p = [X,Y,Z,T]) ----

void PointAdd(Gf p[4], Gf q[4]) {
  Gf a, b, c, d, t, e, f, g, h;
  Sub(a, p[1], p[0]);
  Sub(t, q[1], q[0]);
  Mul(a, a, t);
  Add(b, p[0], p[1]);
  Add(t, q[0], q[1]);
  Mul(b, b, t);
  Mul(c, p[3], q[3]);
  Mul(c, c, kD2);
  Mul(d, p[2], q[2]);
  Add(d, d, d);
  Sub(e, b, a);
  Sub(f, d, c);
  Add(g, d, c);
  Add(h, b, a);
  Mul(p[0], e, f);
  Mul(p[1], h, g);
  Mul(p[2], g, f);
  Mul(p[3], e, h);
}

void CSwap(Gf p[4], Gf q[4], uint8_t b) {
  for (int i = 0; i < 4; ++i) Sel25519(p[i], q[i], b);
}

void Pack(uint8_t* r, Gf p[4]) {
  Gf tx, ty, zi;
  Inv25519(zi, p[2]);
  Mul(tx, p[0], zi);
  Mul(ty, p[1], zi);
  Pack25519(r, ty);
  r[31] ^= static_cast<uint8_t>(Par25519(tx) << 7);
}

void ScalarMult(Gf p[4], Gf q[4], const uint8_t* s) {
  Set25519(p[0], kGf0);
  Set25519(p[1], kGf1);
  Set25519(p[2], kGf1);
  Set25519(p[3], kGf0);
  for (int i = 255; i >= 0; --i) {
    uint8_t b = (s[i / 8] >> (i & 7)) & 1;
    CSwap(p, q, b);
    PointAdd(q, p);
    PointAdd(p, p);
    CSwap(p, q, b);
  }
}

void ScalarBase(Gf p[4], const uint8_t* s) {
  Gf q[4];
  Set25519(q[0], kX);
  Set25519(q[1], kY);
  Set25519(q[2], kGf1);
  Mul(q[3], kX, kY);
  ScalarMult(p, q, s);
}

// ---- Scalar arithmetic mod the group order L ----

const uint64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                         0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                         0,    0,    0,    0,    0,    0,    0,    0,
                         0,    0,    0,    0,    0,    0,    0,    0x10};

void ModL(uint8_t* r, i64 x[64]) {
  i64 carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * static_cast<i64>(kL[j - (i - 32)]);
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * static_cast<i64>(kL[j]);
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * static_cast<i64>(kL[j]);
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<uint8_t>(x[i] & 255);
  }
}

void Reduce(uint8_t* r) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  ModL(r, x);
}

// Decompresses (and negates) a public key point for verification.
int UnpackNeg(Gf r[4], const uint8_t p[32]) {
  Gf t, chk, num, den, den2, den4, den6;
  Set25519(r[2], kGf1);
  Unpack25519(r[1], p);
  Sqr(num, r[1]);
  Mul(den, num, kD);
  Sub(num, num, r[2]);
  Add(den, r[2], den);
  Sqr(den2, den);
  Sqr(den4, den2);
  Mul(den6, den4, den2);
  Mul(t, den6, num);
  Mul(t, t, den);
  Pow2523(t, t);
  Mul(t, t, num);
  Mul(t, t, den);
  Mul(t, t, den);
  Mul(r[0], t, den);
  Sqr(chk, r[0]);
  Mul(chk, chk, den);
  if (Neq25519(chk, num)) Mul(r[0], r[0], kI);
  Sqr(chk, r[0]);
  Mul(chk, chk, den);
  if (Neq25519(chk, num)) return -1;
  if (Par25519(r[0]) == (p[31] >> 7)) Sub(r[0], kGf0, r[0]);
  Mul(r[3], r[0], r[1]);
  return 0;
}

Bytes HashConcat(const uint8_t* a, size_t alen, const Bytes& b) {
  Sha512 h;
  h.Update(a, alen);
  h.Update(b);
  return h.Final();
}

}  // namespace

Result<Ed25519KeyPair> Ed25519KeyPairFromSeed(const Bytes& seed) {
  if (seed.size() != 32) {
    return Status::InvalidArgument("Ed25519 seed must be 32 bytes");
  }
  Bytes d = Sha512::Hash(seed);
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  Gf p[4];
  ScalarBase(p, d.data());
  Bytes pk(32);
  Pack(pk.data(), p);

  Ed25519KeyPair kp;
  kp.public_key = pk;
  kp.private_key = seed;
  Append(&kp.private_key, pk);
  return kp;
}

Result<Bytes> Ed25519Sign(const Bytes& private_key, const Bytes& message) {
  if (private_key.size() != 64) {
    return Status::InvalidArgument("Ed25519 private key must be 64 bytes");
  }
  Bytes d = Sha512::Hash(Bytes(private_key.begin(), private_key.begin() + 32));
  d[0] &= 248;
  d[31] &= 127;
  d[31] |= 64;

  // r = H(prefix || message) mod L
  Bytes r = HashConcat(d.data() + 32, 32, message);
  Reduce(r.data());

  Gf p[4];
  ScalarBase(p, r.data());
  Bytes sig(64);
  Pack(sig.data(), p);

  // h = H(R || A || message) mod L
  Sha512 hh;
  hh.Update(sig.data(), 32);
  hh.Update(private_key.data() + 32, 32);
  hh.Update(message);
  Bytes h = hh.Final();
  Reduce(h.data());

  // S = r + h * a mod L
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = 0;
  for (int i = 0; i < 32; ++i) x[i] = r[i];
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<i64>(h[i]) * static_cast<i64>(d[j]);
    }
  }
  ModL(sig.data() + 32, x);
  return sig;
}

bool Ed25519Verify(const Bytes& public_key, const Bytes& message,
                   const Bytes& signature) {
  if (public_key.size() != 32 || signature.size() != 64) return false;

  Gf q[4];
  if (UnpackNeg(q, public_key.data()) != 0) return false;

  Sha512 hh;
  hh.Update(signature.data(), 32);
  hh.Update(public_key);
  hh.Update(message);
  Bytes h = hh.Final();
  Reduce(h.data());

  Gf p[4];
  ScalarMult(p, q, h.data());

  Gf b[4];
  ScalarBase(b, signature.data() + 32);
  PointAdd(p, b);

  uint8_t t[32];
  Pack(t, p);
  return Verify32(signature.data(), t) == 0;
}

Result<Bytes> X25519(const Bytes& scalar, const Bytes& point) {
  if (scalar.size() != 32 || point.size() != 32) {
    return Status::InvalidArgument("X25519 inputs must be 32 bytes");
  }
  uint8_t z[32];
  std::memcpy(z, scalar.data(), 32);
  z[31] = (scalar[31] & 127) | 64;
  z[0] &= 248;

  i64 x[80];
  Gf a, b, c, d, e, f;
  Unpack25519(x, point.data());
  for (int i = 0; i < 16; ++i) {
    b[i] = x[i];
    d[i] = a[i] = c[i] = 0;
  }
  a[0] = d[0] = 1;
  for (int i = 254; i >= 0; --i) {
    int r = (z[i >> 3] >> (i & 7)) & 1;
    Sel25519(a, b, r);
    Sel25519(c, d, r);
    Add(e, a, c);
    Sub(a, a, c);
    Add(c, b, d);
    Sub(b, b, d);
    Sqr(d, e);
    Sqr(f, a);
    Mul(a, c, a);
    Mul(c, b, e);
    Add(e, a, c);
    Sub(a, a, c);
    Sqr(b, a);
    Sub(c, d, f);
    Mul(a, c, k121665);
    Add(a, a, d);
    Mul(c, c, a);
    Mul(a, d, f);
    Mul(d, b, x);
    Sqr(b, e);
    Sel25519(a, b, r);
    Sel25519(c, d, r);
  }
  for (int i = 0; i < 16; ++i) {
    x[i + 16] = a[i];
    x[i + 32] = c[i];
    x[i + 48] = b[i];
    x[i + 64] = d[i];
  }
  Inv25519(x + 32, x + 32);
  Mul(x + 16, x + 16, x + 32);
  Bytes out(32);
  Pack25519(out.data(), x + 16);
  return out;
}

Result<Bytes> X25519Base(const Bytes& scalar) {
  Bytes base(32, 0);
  base[0] = 9;
  return X25519(scalar, base);
}

}  // namespace ironsafe::crypto::ref
