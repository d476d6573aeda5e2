// Ed25519 (RFC 8032) and X25519 (RFC 7748) over GF(2^255 - 19). Field
// elements are five 51-bit limbs multiplied through unsigned __int128
// (the ref10 / curve25519-donna 64-bit formulation). Work on secrets is
// constant-time: the X25519 Montgomery ladder swaps with masks, and the
// fixed-base multiplication [a]B reads every entry of a precomputed
// table row through masked selects. Verification uses the same signed
// 4-bit windows for [h](-A) on public data. tests/ed25519_ref.cc keeps
// the earlier 16-limb TweetNaCl code that crypto_test compares against.

#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/sha512.h"

namespace ironsafe::crypto {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

/// a = v[0] + v[1]·2^51 + ... + v[4]·2^204. Every Fe the functions below
/// return has limbs below 2^52, which keeps Mul's 128-bit sums in range.
struct Fe {
  uint64_t v[5];
};

constexpr Fe kZero = {{0, 0, 0, 0, 0}};
constexpr Fe kOne = {{1, 0, 0, 0, 0}};
// d = -121665/121666, 2d, sqrt(-1) and the base point B = (x, 4/5).
constexpr Fe kD = {{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                    0x739c663a03cbb, 0x52036cee2b6ff}};
constexpr Fe kD2 = {{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                     0x6738cc7407977, 0x2406d9dc56dff}};
constexpr Fe kSqrtM1 = {{0x61b274a0ea0b0, 0xd5a5fc8f189d, 0x7ef5e9cbd0c60,
                         0x78595a6804c9e, 0x2b8324804fc1d}};
constexpr Fe kBaseX = {{0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d,
                        0x1ff60527118fe, 0x216936d3cd6e5}};
constexpr Fe kBaseY = {{0x6666666666658, 0x4cccccccccccc, 0x1999999999999,
                        0x3333333333333, 0x6666666666666}};

/// Propagates carries once; the top carry re-enters limb 0 times 19.
void Carry(Fe& f) {
  for (int i = 0; i < 4; ++i) {
    f.v[i + 1] += f.v[i] >> 51;
    f.v[i] &= kMask51;
  }
  uint64_t c = f.v[4] >> 51;
  f.v[4] &= kMask51;
  f.v[0] += 19 * c;
}

Fe Add(const Fe& a, const Fe& b) {
  Fe h;
  for (int i = 0; i < 5; ++i) h.v[i] = a.v[i] + b.v[i];
  Carry(h);
  return h;
}

/// a - b + 2p, so no limb goes negative for b below 2^52.
Fe Sub(const Fe& a, const Fe& b) {
  Fe h;
  h.v[0] = a.v[0] + 0xfffffffffffdaULL - b.v[0];
  for (int i = 1; i < 5; ++i) h.v[i] = a.v[i] + 0xffffffffffffeULL - b.v[i];
  Carry(h);
  return h;
}

Fe Neg(const Fe& a) { return Sub(kZero, a); }

/// Reduces 128-bit column sums to limbs below 2^52.
Fe Reduce(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4) {
  Fe h;
  r1 += static_cast<uint64_t>(r0 >> 51);
  h.v[0] = static_cast<uint64_t>(r0) & kMask51;
  r2 += static_cast<uint64_t>(r1 >> 51);
  h.v[1] = static_cast<uint64_t>(r1) & kMask51;
  r3 += static_cast<uint64_t>(r2 >> 51);
  h.v[2] = static_cast<uint64_t>(r2) & kMask51;
  r4 += static_cast<uint64_t>(r3 >> 51);
  h.v[3] = static_cast<uint64_t>(r3) & kMask51;
  uint64_t c = static_cast<uint64_t>(r4 >> 51);
  h.v[4] = static_cast<uint64_t>(r4) & kMask51;
  h.v[0] += 19 * c;
  h.v[1] += h.v[0] >> 51;
  h.v[0] &= kMask51;
  return h;
}

Fe Mul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                 b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
                 b4_19 = 19 * b4;
  u128 r0 = u128{a0} * b0 + u128{a1} * b4_19 + u128{a2} * b3_19 +
            u128{a3} * b2_19 + u128{a4} * b1_19;
  u128 r1 = u128{a0} * b1 + u128{a1} * b0 + u128{a2} * b4_19 +
            u128{a3} * b3_19 + u128{a4} * b2_19;
  u128 r2 = u128{a0} * b2 + u128{a1} * b1 + u128{a2} * b0 + u128{a3} * b4_19 +
            u128{a4} * b3_19;
  u128 r3 = u128{a0} * b3 + u128{a1} * b2 + u128{a2} * b1 + u128{a3} * b0 +
            u128{a4} * b4_19;
  u128 r4 = u128{a0} * b4 + u128{a1} * b3 + u128{a2} * b2 + u128{a3} * b1 +
            u128{a4} * b0;
  return Reduce(r0, r1, r2, r3, r4);
}

Fe Sq(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                 a4 = a.v[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  u128 r0 = u128{a0} * a0 + u128{d1} * a4_19 + u128{d2} * a3_19;
  u128 r1 = u128{d0} * a1 + u128{d2} * a4_19 + u128{a3} * a3_19;
  u128 r2 = u128{d0} * a2 + u128{a1} * a1 + u128{d3} * a4_19;
  u128 r3 = u128{d0} * a3 + u128{d1} * a2 + u128{a4} * a4_19;
  u128 r4 = u128{d0} * a4 + u128{d1} * a3 + u128{a2} * a2;
  return Reduce(r0, r1, r2, r3, r4);
}

/// a squared n times.
Fe SqN(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = Sq(a);
  return a;
}

Fe MulSmall(const Fe& a, uint64_t k) {
  return Reduce(u128{a.v[0]} * k, u128{a.v[1]} * k, u128{a.v[2]} * k,
                u128{a.v[3]} * k, u128{a.v[4]} * k);
}

/// z^(2^250 - 1), with z^11 in *z11: the shared prefix of both
/// exponentiation chains below.
Fe Pow2250Minus1(const Fe& z, Fe* z11) {
  Fe z2 = Sq(z);
  Fe z9 = Mul(SqN(z2, 2), z);
  *z11 = Mul(z9, z2);
  Fe z_5_0 = Mul(Sq(*z11), z9);                // 2^5 - 1
  Fe z_10_0 = Mul(SqN(z_5_0, 5), z_5_0);       // 2^10 - 1
  Fe z_20_0 = Mul(SqN(z_10_0, 10), z_10_0);    // 2^20 - 1
  Fe z_40_0 = Mul(SqN(z_20_0, 20), z_20_0);    // 2^40 - 1
  Fe z_50_0 = Mul(SqN(z_40_0, 10), z_10_0);    // 2^50 - 1
  Fe z_100_0 = Mul(SqN(z_50_0, 50), z_50_0);   // 2^100 - 1
  Fe z_200_0 = Mul(SqN(z_100_0, 100), z_100_0);  // 2^200 - 1
  return Mul(SqN(z_200_0, 50), z_50_0);        // 2^250 - 1
}

/// z^(p - 2) = 1/z (0 for z = 0).
Fe Invert(const Fe& z) {
  Fe z11;
  Fe t = Pow2250Minus1(z, &z11);
  return Mul(SqN(t, 5), z11);  // 2^255 - 21
}

/// z^((p - 5) / 8) = z^(2^252 - 3), for square roots.
Fe Pow22523(const Fe& z) {
  Fe z11;
  Fe t = Pow2250Minus1(z, &z11);
  return Mul(SqN(t, 2), z);
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Little-endian bytes to a field element, ignoring bit 255.
Fe FromBytes(const uint8_t s[32]) {
  Fe h;
  h.v[0] = Load64(s) & kMask51;
  h.v[1] = (Load64(s + 6) >> 3) & kMask51;
  h.v[2] = (Load64(s + 12) >> 6) & kMask51;
  h.v[3] = (Load64(s + 19) >> 1) & kMask51;
  h.v[4] = (Load64(s + 24) >> 12) & kMask51;
  return h;
}

/// The canonical (fully reduced) little-endian encoding.
void ToBytes(uint8_t s[32], const Fe& f) {
  Fe t = f;
  Carry(t);
  Carry(t);
  // t < 2^255 + 19 now. Adding 19 and carrying with wrap-around subtracts
  // p exactly when t >= p; the 2^255 - 19 added next is dropped with the
  // final top carry, leaving t mod p.
  t.v[0] += 19;
  Carry(t);
  t.v[0] += 0x8000000000000ULL - 19;
  for (int i = 1; i < 5; ++i) t.v[i] += 0x8000000000000ULL - 1;
  for (int i = 0; i < 4; ++i) {
    t.v[i + 1] += t.v[i] >> 51;
    t.v[i] &= kMask51;
  }
  t.v[4] &= kMask51;

  const uint64_t words[4] = {t.v[0] | t.v[1] << 51, t.v[1] >> 13 | t.v[2] << 38,
                             t.v[2] >> 26 | t.v[3] << 25,
                             t.v[3] >> 39 | t.v[4] << 12};
  for (int i = 0; i < 32; ++i) {
    s[i] = static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
  }
}

bool IsNegative(const Fe& f) {
  uint8_t s[32];
  ToBytes(s, f);
  return s[0] & 1;
}

bool Equal(const Fe& a, const Fe& b) {
  uint8_t x[32], y[32];
  ToBytes(x, a);
  ToBytes(y, b);
  uint8_t d = 0;
  for (int i = 0; i < 32; ++i) d |= static_cast<uint8_t>(x[i] ^ y[i]);
  return d == 0;
}

/// f = g if bit is 1, unchanged if 0, without branching on bit.
void CMov(Fe& f, const Fe& g, uint64_t bit) {
  const uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

void CSwap(Fe& f, Fe& g, uint64_t bit) {
  const uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    uint64_t t = mask & (f.v[i] ^ g.v[i]);
    f.v[i] ^= t;
    g.v[i] ^= t;
  }
}

// ---- Edwards points ----

/// Extended coordinates: x = X/Z, y = Y/Z, xy = T/Z.
struct Ge {
  Fe X, Y, Z, T;
};

/// A point prepared as the second operand of an addition.
struct Cached {
  Fe YplusX, YminusX, Z, T2d;
};

constexpr Ge kIdentity = {kZero, kOne, kOne, kZero};
constexpr Cached kCachedIdentity = {kOne, kOne, kOne, kZero};

Cached ToCached(const Ge& p) {
  return {Add(p.Y, p.X), Sub(p.Y, p.X), p.Z, Mul(p.T, kD2)};
}

/// p + q (add-2008-hwcd-3; complete on Ed25519, so also for p == q).
Ge AddCached(const Ge& p, const Cached& q) {
  Fe a = Mul(Sub(p.Y, p.X), q.YminusX);
  Fe b = Mul(Add(p.Y, p.X), q.YplusX);
  Fe c = Mul(p.T, q.T2d);
  Fe d = Mul(p.Z, q.Z);
  d = Add(d, d);
  Fe e = Sub(b, a), f = Sub(d, c), g = Add(d, c), h = Add(b, a);
  return {Mul(e, f), Mul(g, h), Mul(f, g), Mul(e, h)};
}

/// 2p (dbl-2008-hwcd), signs flipped so both products keep their sign.
Ge Double(const Ge& p) {
  Fe a = Sq(p.X), b = Sq(p.Y);
  Fe c = Sq(p.Z);
  c = Add(c, c);
  Fe h = Add(a, b);
  Fe e = Sub(h, Sq(Add(p.X, p.Y)));
  Fe g = Sub(a, b);
  Fe f = Add(c, g);
  return {Mul(e, f), Mul(g, h), Mul(f, g), Mul(e, h)};
}

Ge Times16(Ge p) {
  for (int i = 0; i < 4; ++i) p = Double(p);
  return p;
}

void Pack(uint8_t out[32], const Ge& p) {
  Fe zi = Invert(p.Z);
  ToBytes(out, Mul(p.Y, zi));
  out[31] ^= static_cast<uint8_t>(IsNegative(Mul(p.X, zi)) << 7);
}

/// 1 iff a == b, for small non-negative a, b; branch-free.
uint64_t EqualMask(uint64_t a, uint64_t b) { return ((a ^ b) - 1) >> 63; }

/// digit·P for digit in [-8, 8] from table[j] = (j + 1)·P, touching
/// every entry regardless of the digit.
Cached Select(const Cached table[8], int digit) {
  const uint64_t negative = static_cast<uint64_t>(digit) >> 63;
  const uint64_t magnitude =
      static_cast<uint64_t>(digit) - ((0 - negative) &
                                       (static_cast<uint64_t>(digit) << 1));
  Cached t = kCachedIdentity;
  for (uint64_t j = 0; j < 8; ++j) {
    const uint64_t hit = EqualMask(magnitude, j + 1);
    CMov(t.YplusX, table[j].YplusX, hit);
    CMov(t.YminusX, table[j].YminusX, hit);
    CMov(t.Z, table[j].Z, hit);
    CMov(t.T2d, table[j].T2d, hit);
  }
  // -(x, y) = (-x, y): swap Y+X with Y-X and negate 2dT.
  Fe yplusx = t.YplusX;
  CMov(t.YplusX, t.YminusX, negative);
  CMov(t.YminusX, yplusx, negative);
  CMov(t.T2d, Neg(t.T2d), negative);
  return t;
}

/// Signed radix-16 digits in [-8, 8]: a = sum e[i]·16^i. Needs
/// a[31] <= 127.
void Recode(const uint8_t a[32], int e[64]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = a[i] & 15;
    e[2 * i + 1] = a[i] >> 4;
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] += carry;
    carry = (e[i] + 8) >> 4;
    e[i] -= carry << 4;
  }
  e[63] += carry;
}

/// rows[i][j] = (j + 1)·256^i·B.
struct BaseTable {
  Cached rows[32][8];
};

const BaseTable& Base() {
  static const BaseTable table = [] {
    BaseTable t;
    Ge row_base = {kBaseX, kBaseY, kOne, Mul(kBaseX, kBaseY)};
    for (int i = 0; i < 32; ++i) {
      Cached step = ToCached(row_base);
      Ge multiple = row_base;
      for (int j = 0; j < 8; ++j) {
        t.rows[i][j] = ToCached(multiple);
        multiple = AddCached(multiple, step);
      }
      for (int k = 0; k < 8; ++k) row_base = Double(row_base);
    }
    return t;
  }();
  return table;
}

/// [a]B in constant time (ref10's fixed-window method): odd digits
/// first, one multiplication by 16, then even digits; each digit is one
/// table-row select and one addition. Needs a[31] <= 127.
Ge ScalarMultBase(const uint8_t a[32]) {
  const BaseTable& base = Base();
  int e[64];
  Recode(a, e);
  Ge h = kIdentity;
  for (int i = 1; i < 64; i += 2) h = AddCached(h, Select(base.rows[i / 2], e[i]));
  h = Times16(h);
  for (int i = 0; i < 64; i += 2) h = AddCached(h, Select(base.rows[i / 2], e[i]));
  return h;
}

/// [a]P with signed 4-bit windows. Needs a[31] <= 127.
Ge ScalarMult(const Ge& p, const uint8_t a[32]) {
  Cached table[8];
  table[0] = ToCached(p);
  Ge multiple = p;
  for (int j = 1; j < 8; ++j) {
    multiple = AddCached(multiple, table[0]);
    table[j] = ToCached(multiple);
  }
  int e[64];
  Recode(a, e);
  Ge h = kIdentity;
  for (int i = 63; i >= 0; --i) {
    h = AddCached(Times16(h), Select(table, e[i]));
  }
  return h;
}

/// Decompresses a public key to -A (the negated point verification
/// needs). Returns false if the encoding is not on the curve.
bool DecompressNeg(Ge& r, const uint8_t p[32]) {
  r.Y = FromBytes(p);
  r.Z = kOne;
  Fe y2 = Sq(r.Y);
  Fe u = Sub(y2, kOne);          // y^2 - 1
  Fe v = Add(Mul(y2, kD), kOne);  // d·y^2 + 1
  Fe v3 = Mul(Sq(v), v);
  // x = u·v^3 · (u·v^7)^((p - 5) / 8)
  Fe x = Mul(Mul(u, v3), Pow22523(Mul(u, Mul(Sq(v3), v))));
  Fe check = Mul(Sq(x), v);
  if (!Equal(check, u)) x = Mul(x, kSqrtM1);
  if (!Equal(Mul(Sq(x), v), u)) return false;
  if (IsNegative(x) == ((p[31] >> 7) != 0)) x = Neg(x);
  r.X = x;
  r.T = Mul(r.X, r.Y);
  return true;
}

// ---- Scalar arithmetic mod the group order L ----

using i64 = int64_t;

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

/// Reduces a 64-byte little-endian value mod L into its first 32 bytes.
void ReduceModL(uint8_t* r) {
  i64 x[64];
  for (int i = 0; i < 64; ++i) x[i] = r[i];
  for (int i = 0; i < 64; ++i) r[i] = 0;
  ModL(r, x);
}

/// S < L, the canonical range RFC 8032 §5.1.7 requires of a signature.
bool IsCanonicalScalar(const uint8_t s[32]) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] != kL[i]) return s[i] < kL[i];
  }
  return false;  // S == L
}

void Clamp(uint8_t a[32]) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
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
  Clamp(d.data());

  Bytes pk(32);
  Pack(pk.data(), ScalarMultBase(d.data()));

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
  Clamp(d.data());

  // r = H(prefix || message) mod L
  Bytes r = HashConcat(d.data() + 32, 32, message);
  ReduceModL(r.data());

  Bytes sig(64);
  Pack(sig.data(), ScalarMultBase(r.data()));

  // h = H(R || A || message) mod L
  Sha512 hh;
  hh.Update(sig.data(), 32);
  hh.Update(private_key.data() + 32, 32);
  hh.Update(message);
  Bytes h = hh.Final();
  ReduceModL(h.data());

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
  // A signature with S + L in place of S would verify too (malleability).
  if (!IsCanonicalScalar(signature.data() + 32)) return false;

  Ge neg_a;
  if (!DecompressNeg(neg_a, public_key.data())) return false;

  Sha512 hh;
  hh.Update(signature.data(), 32);
  hh.Update(public_key);
  hh.Update(message);
  Bytes h = hh.Final();
  ReduceModL(h.data());

  // R' = [S]B - [h]A must encode to R.
  Ge p = AddCached(ScalarMult(neg_a, h.data()),
                   ToCached(ScalarMultBase(signature.data() + 32)));
  uint8_t t[32];
  Pack(t, p);
  return ConstantTimeEqual(Bytes(t, t + 32),
                           Bytes(signature.begin(), signature.begin() + 32));
}

Result<Bytes> X25519(const Bytes& scalar, const Bytes& point) {
  if (scalar.size() != 32 || point.size() != 32) {
    return Status::InvalidArgument("X25519 inputs must be 32 bytes");
  }
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  Clamp(k);

  // RFC 7748 §5 Montgomery ladder, a24 = 121665.
  const Fe x1 = FromBytes(point.data());
  Fe x2 = kOne, z2 = kZero, x3 = x1, z3 = kOne;
  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    CSwap(x2, x3, swap);
    CSwap(z2, z3, swap);
    swap = bit;
    Fe a = Add(x2, z2), aa = Sq(a);
    Fe b = Sub(x2, z2), bb = Sq(b);
    Fe e = Sub(aa, bb);
    Fe c = Add(x3, z3), d = Sub(x3, z3);
    Fe da = Mul(d, a), cb = Mul(c, b);
    x3 = Sq(Add(da, cb));
    z3 = Mul(x1, Sq(Sub(da, cb)));
    x2 = Mul(aa, bb);
    z2 = Mul(e, Add(aa, MulSmall(e, 121665)));
  }
  CSwap(x2, x3, swap);
  CSwap(z2, z3, swap);

  Bytes out(32);
  ToBytes(out.data(), Mul(x2, Invert(z2)));
  return out;
}

Result<Bytes> X25519Base(const Bytes& scalar) {
  if (scalar.size() != 32) {
    return Status::InvalidArgument("X25519 inputs must be 32 bytes");
  }
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  Clamp(k);
  // [k]B on the Edwards curve through the fixed-base table, mapped to the
  // Montgomery u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y) of u = 9.
  Ge p = ScalarMultBase(k);
  Bytes out(32);
  ToBytes(out.data(), Mul(Add(p.Z, p.Y), Invert(Sub(p.Z, p.Y))));
  return out;
}

}  // namespace ironsafe::crypto
