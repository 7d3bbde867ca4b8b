#include "src/crypto/rsa.h"

#include <openssl/bn.h>

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/common/serialize.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace et::crypto {

namespace {

// DER-encoded DigestInfo prefixes from RFC 8017 §9.2.
constexpr std::uint8_t kSha1Prefix[] = {0x30, 0x21, 0x30, 0x09, 0x06,
                                        0x05, 0x2b, 0x0e, 0x03, 0x02,
                                        0x1a, 0x05, 0x00, 0x04, 0x14};
constexpr std::uint8_t kSha256Prefix[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

Bytes digest_info(BytesView message, HashAlg alg) {
  Bytes out;
  if (alg == HashAlg::kSha1) {
    out.assign(std::begin(kSha1Prefix), std::end(kSha1Prefix));
    append(out, Sha1::digest(message));
  } else {
    out.assign(std::begin(kSha256Prefix), std::end(kSha256Prefix));
    append(out, Sha256::digest(message));
  }
  return out;
}

// EMSA-PKCS1-v1_5: 0x00 0x01 FF..FF 0x00 DigestInfo
Bytes emsa_encode(BytesView message, HashAlg alg, std::size_t em_len) {
  const Bytes t = digest_info(message, alg);
  if (em_len < t.size() + 11) {
    throw std::invalid_argument("RSA modulus too small for digest");
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t.size() - 3, 0xFF);
  em.push_back(0x00);
  append(em, t);
  return em;
}

struct BnFree {
  void operator()(BIGNUM* b) const { BN_clear_free(b); }
};
struct MontFree {
  void operator()(BN_MONT_CTX* m) const { BN_MONT_CTX_free(m); }
};
using Bn = std::unique_ptr<BIGNUM, BnFree>;
using Mont = std::unique_ptr<BN_MONT_CTX, MontFree>;

// BN calls fail only on allocation failure: every input is checked first.
void check(int ok) {
  if (!ok) throw std::runtime_error("libcrypto BN operation failed");
}

Bn bn_new() {
  Bn b(BN_new());
  check(b != nullptr);
  return b;
}

Bn bn_from(BytesView b) {
  Bn out(BN_bin2bn(b.data(), static_cast<int>(b.size()), nullptr));
  check(out != nullptr);
  return out;
}

/// Big-endian octets, minimal (empty for zero) unless padded to `len`.
Bytes bn_bytes(const BIGNUM* b, std::size_t len = 0) {
  Bytes out(std::max<std::size_t>(len, BN_num_bytes(b)));
  check(BN_bn2binpad(b, out.data(), static_cast<int>(out.size())) >= 0);
  return out;
}

/// A Montgomery context for an odd modulus above 1.
Mont mont_for(const BIGNUM* m, BN_CTX* ctx) {
  Mont mont(BN_MONT_CTX_new());
  check(mont && BN_MONT_CTX_set(mont.get(), m, ctx));
  return mont;
}

Bytes strip_leading_zeros(BytesView b) {
  while (!b.empty() && b.front() == 0) b = b.subspan(1);
  return Bytes(b.begin(), b.end());
}

bool odd_above_one(BytesView v) {
  return !v.empty() && (v.back() & 1u) && (v.size() > 1 || v[0] > 1);
}

// BN_CTX is scratch space and not thread-safe: one per thread.
BN_CTX* thread_ctx() {
  struct Holder {
    BN_CTX* ctx = BN_CTX_new();
    ~Holder() { BN_CTX_free(ctx); }
  };
  thread_local Holder holder;
  check(holder.ctx != nullptr);
  return holder.ctx;
}

/// Temporaries from the thread's BN_CTX, released on scope exit.
class Scratch {
 public:
  Scratch() : ctx_(thread_ctx()) { BN_CTX_start(ctx_); }
  ~Scratch() { BN_CTX_end(ctx_); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  BIGNUM* get() {
    BIGNUM* b = BN_CTX_get(ctx_);
    check(b != nullptr);
    return b;
  }
  BN_CTX* ctx() const { return ctx_; }

 private:
  BN_CTX* ctx_;
};

constexpr std::size_t kMaxModulusBytes = 16384 / 8;

// --- key generation ---------------------------------------------------------
//
// Candidates and Miller-Rabin witnesses come from the caller's Rng in the
// order of the original in-tree bignum (32-bit little-endian limbs, top limb
// masked), so a seed always yields the same key.

void random_bits(Rng& rng, std::size_t bits, BIGNUM* out) {
  const std::size_t limbs = (bits + 31) / 32;
  Bytes be(limbs * 4);
  for (std::size_t i = 0; i < limbs; ++i) {
    std::uint32_t limb = rng.next_u32();
    if (i + 1 == limbs && limbs * 32 > bits) {
      limb &= 0xFFFFFFFFu >> (limbs * 32 - bits);
    }
    for (std::size_t j = 0; j < 4; ++j) {
      be[be.size() - 1 - (4 * i + j)] =
          static_cast<std::uint8_t>(limb >> (8 * j));
    }
  }
  check(BN_bin2bn(be.data(), static_cast<int>(be.size()), out) != nullptr);
}

/// Uniform value in [0, bound) by rejection; bound > 0.
void random_below(Rng& rng, const BIGNUM* bound, BIGNUM* out) {
  const auto bits = static_cast<std::size_t>(BN_num_bits(bound));
  do {
    random_bits(rng, bits, out);
  } while (BN_cmp(out, bound) >= 0);
}

/// Trial division, then Miller-Rabin with `rounds` witnesses in [2, n-2];
/// n is odd and at least 64 bits.
bool is_probable_prime(Rng& rng, const BIGNUM* n, int rounds) {
  static constexpr BN_ULONG kSmallPrimes[] = {
      3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,  59,
      61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131};
  for (const BN_ULONG p : kSmallPrimes) {
    if (BN_is_word(n, p)) return true;
    if (BN_mod_word(n, p) == 0) return false;
  }

  Scratch s;
  BIGNUM* n1 = s.get();  // n - 1 = d * 2^twos
  BIGNUM* d = s.get();
  BIGNUM* bound = s.get();
  BIGNUM* a = s.get();
  BIGNUM* x = s.get();
  check(BN_copy(n1, n) && BN_sub_word(n1, 1) && BN_copy(d, n1) &&
        BN_copy(bound, n1) && BN_sub_word(bound, 2));
  std::size_t twos = 0;
  while (!BN_is_odd(d)) {
    check(BN_rshift1(d, d));
    ++twos;
  }
  const Mont mont = mont_for(n, s.ctx());
  for (int round = 0; round < rounds; ++round) {
    random_below(rng, bound, a);
    check(BN_add_word(a, 2));
    check(BN_mod_exp_mont(x, a, d, n, s.ctx(), mont.get()));
    if (BN_is_one(x) || BN_cmp(x, n1) == 0) continue;
    bool witness = true;
    for (std::size_t i = 1; i < twos && witness; ++i) {
      check(BN_mod_sqr(x, x, n, s.ctx()));
      witness = BN_cmp(x, n1) != 0;
    }
    if (witness) return false;
  }
  return true;
}

/// A random prime of exactly `bits` bits with the top two bits set, so
/// that the product of two has full length.
Bn generate_prime(Rng& rng, std::size_t bits) {
  Bn p = bn_new();
  do {
    random_bits(rng, bits, p.get());
    check(BN_set_bit(p.get(), static_cast<int>(bits - 1)) &&
          BN_set_bit(p.get(), static_cast<int>(bits - 2)) &&
          BN_set_bit(p.get(), 0));
  } while (!is_probable_prime(rng, p.get(), 32));
  return p;
}

}  // namespace

struct BnPublicKey {
  Bn n, e;
  Mont mont;
};

struct BnPrivateKey {
  Bn d, p, q;
  Bn dp, dq;  // d mod (p-1), d mod (q-1)
  Bn qinv;    // q^-1 mod p
  Mont mont_p, mont_q;

  /// The fields in wire order.
  [[nodiscard]] std::array<const Bn*, 6> fields() const {
    return {&d, &p, &q, &dp, &dq, &qinv};
  }
};

namespace {

/// Checks the factors against n and builds their Montgomery contexts.
/// Throws std::invalid_argument when they do not make a CRT key.
std::shared_ptr<const BnPrivateKey> make_private(BnPrivateKey key,
                                                 const RsaPublicKey& pub) {
  const auto usable = [](const BIGNUM* f) {
    return BN_is_odd(f) && !BN_is_one(f);
  };
  Scratch s;
  BIGNUM* n = s.get();
  check(BN_mul(n, key.p.get(), key.q.get(), s.ctx()));
  if (!usable(key.p.get()) || !usable(key.q.get()) || bn_bytes(n) != pub.n()) {
    throw std::invalid_argument("RSA: inconsistent private key");
  }
  for (const Bn* f : key.fields()) BN_set_flags(f->get(), BN_FLG_CONSTTIME);
  key.mont_p = mont_for(key.p.get(), s.ctx());
  key.mont_q = mont_for(key.q.get(), s.ctx());
  return std::make_shared<const BnPrivateKey>(std::move(key));
}

}  // namespace

std::string hash_alg_name(HashAlg alg) {
  return alg == HashAlg::kSha1 ? "SHA-1" : "SHA-256";
}

RsaPublicKey::RsaPublicKey(BytesView n, BytesView e)
    : n_(strip_leading_zeros(n)), e_(strip_leading_zeros(e)) {
  // n = 1 is odd but has no Montgomery domain; e = 1 signs nothing.
  if (!odd_above_one(n_) || n_.size() > kMaxModulusBytes ||
      !odd_above_one(e_)) {
    return;
  }
  auto key = std::make_shared<BnPublicKey>();
  key->n = bn_from(n_);
  key->e = bn_from(e_);
  key->mont = mont_for(key->n.get(), thread_ctx());
  bn_ = std::move(key);
}

Bytes RsaPublicKey::public_op(BytesView x) const {
  Scratch s;
  BIGNUM* in = s.get();
  BIGNUM* out = s.get();
  check(BN_bin2bn(x.data(), static_cast<int>(x.size()), in) != nullptr);
  check(BN_mod_exp_mont(out, in, bn_->e.get(), bn_->n.get(), s.ctx(),
                        bn_->mont.get()));
  return bn_bytes(out, modulus_len());
}

bool RsaPublicKey::verify(BytesView message, BytesView signature,
                          HashAlg alg) const {
  if (!bn_ || signature.size() != modulus_len()) return false;
  if (!std::ranges::lexicographical_compare(signature, n_)) return false;
  const Bytes em = public_op(signature);
  Bytes expected;
  try {
    expected = emsa_encode(message, alg, modulus_len());
  } catch (const std::invalid_argument&) {
    return false;
  }
  return constant_time_equal(em, expected);
}

Bytes RsaPublicKey::encrypt(BytesView plaintext, Rng& rng) const {
  const std::size_t k = modulus_len();
  if (plaintext.size() + 11 > k) {
    throw std::invalid_argument("RSAES-PKCS1: message too long");
  }
  if (!bn_) throw std::invalid_argument("RSAES-PKCS1: unusable public key");
  // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero random) 0x00 M
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  const std::size_t ps_len = k - plaintext.size() - 3;
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b;
    do {
      b = static_cast<std::uint8_t>(rng.next_u64());
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  append(em, plaintext);
  return public_op(em);
}

Bytes RsaPublicKey::serialize() const {
  Writer w;
  w.bytes(n_);
  w.bytes(e_);
  return std::move(w).take();
}

RsaPublicKey RsaPublicKey::deserialize(BytesView b) {
  Reader r(b);
  Bytes n = r.bytes();
  Bytes e = r.bytes();
  r.expect_done();
  return {n, e};
}

Bytes RsaPublicKey::fingerprint() const { return Sha1::digest(serialize()); }

Bytes RsaPrivateKey::private_op(BytesView c) const {
  // CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv*(m1-m2) mod p,
  // m = m2 + h*q. Both exponentiations run in constant time.
  const BnPrivateKey& k = *bn_;
  Scratch s;
  BIGNUM* x = s.get();
  BIGNUM* r = s.get();
  BIGNUM* m1 = s.get();
  BIGNUM* m2 = s.get();
  check(BN_bin2bn(c.data(), static_cast<int>(c.size()), x) != nullptr);
  check(BN_mod(r, x, k.p.get(), s.ctx()) &&
        BN_mod_exp_mont_consttime(m1, r, k.dp.get(), k.p.get(), s.ctx(),
                                  k.mont_p.get()) &&
        BN_mod(r, x, k.q.get(), s.ctx()) &&
        BN_mod_exp_mont_consttime(m2, r, k.dq.get(), k.q.get(), s.ctx(),
                                  k.mont_q.get()) &&
        BN_mod_sub(r, m1, m2, k.p.get(), s.ctx()) &&
        BN_mod_mul(x, r, k.qinv.get(), k.p.get(), s.ctx()) &&
        BN_mul(r, x, k.q.get(), s.ctx()) && BN_add(x, r, m2));
  return bn_bytes(x, pub_.modulus_len());
}

Bytes RsaPrivateKey::sign(BytesView message, HashAlg alg) const {
  if (empty()) throw std::logic_error("RsaPrivateKey::sign: empty key");
  return private_op(emsa_encode(message, alg, pub_.modulus_len()));
}

Bytes RsaPrivateKey::decrypt(BytesView ciphertext) const {
  if (empty()) throw std::logic_error("RsaPrivateKey::decrypt: empty key");
  const std::size_t k = pub_.modulus_len();
  if (ciphertext.size() != k) {
    throw std::invalid_argument("RSAES-PKCS1: bad ciphertext length");
  }
  if (!std::ranges::lexicographical_compare(ciphertext, pub_.n())) {
    throw std::invalid_argument("RSAES-PKCS1: ciphertext out of range");
  }
  const Bytes em = private_op(ciphertext);
  // Parse 0x00 0x02 PS 0x00 M.
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    throw std::invalid_argument("RSAES-PKCS1: bad padding");
  }
  std::size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep == em.size() || sep < 10) {
    throw std::invalid_argument("RSAES-PKCS1: bad padding");
  }
  return Bytes(em.begin() + static_cast<std::ptrdiff_t>(sep + 1), em.end());
}

Bytes RsaPrivateKey::serialize() const {
  Writer w;
  w.bytes(pub_.serialize());
  if (bn_) {
    for (const Bn* f : bn_->fields()) w.bytes(bn_bytes(f->get()));
  } else {
    for (int i = 0; i < 6; ++i) w.bytes({});
  }
  return std::move(w).take();
}

RsaPrivateKey RsaPrivateKey::deserialize(BytesView b) {
  Reader r(b);
  RsaPublicKey pub = RsaPublicKey::deserialize(r.bytes());
  BnPrivateKey key;
  for (Bn* f : {&key.d, &key.p, &key.q, &key.dp, &key.dq, &key.qinv}) {
    *f = bn_from(r.bytes());
  }
  r.expect_done();
  if (!pub.bn_) throw std::invalid_argument("RSA: unusable public key");
  auto state = make_private(std::move(key), pub);
  return {std::move(pub), std::move(state)};
}

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
  if (bits < 128 || bits % 2 != 0) {
    throw std::invalid_argument("rsa_generate: bits must be even and >=128");
  }
  Scratch s;
  BIGNUM* e = s.get();
  BIGNUM* n = s.get();
  BIGNUM* p1 = s.get();
  BIGNUM* q1 = s.get();
  BIGNUM* phi = s.get();
  BIGNUM* g = s.get();
  check(BN_set_word(e, 65537));
  BnPrivateKey key;
  for (;;) {
    key.p = generate_prime(rng, bits / 2);
    key.q = generate_prime(rng, bits / 2);
    if (BN_cmp(key.p.get(), key.q.get()) == 0) continue;
    check(BN_mul(n, key.p.get(), key.q.get(), s.ctx()));
    // want an exact-length modulus
    if (static_cast<std::size_t>(BN_num_bits(n)) != bits) continue;
    check(BN_sub(p1, key.p.get(), BN_value_one()) &&
          BN_sub(q1, key.q.get(), BN_value_one()) &&
          BN_mul(phi, p1, q1, s.ctx()) && BN_gcd(g, e, phi, s.ctx()));
    if (BN_is_one(g)) break;
  }
  key.d.reset(BN_mod_inverse(nullptr, e, phi, s.ctx()));
  // Keep p > q so CRT recombination stays in range.
  if (BN_cmp(key.p.get(), key.q.get()) < 0) std::swap(key.p, key.q);
  key.dp = bn_new();
  key.dq = bn_new();
  key.qinv.reset(BN_mod_inverse(nullptr, key.q.get(), key.p.get(), s.ctx()));
  check(key.d && key.qinv && BN_sub(p1, key.p.get(), BN_value_one()) &&
        BN_sub(q1, key.q.get(), BN_value_one()) &&
        BN_mod(key.dp.get(), key.d.get(), p1, s.ctx()) &&
        BN_mod(key.dq.get(), key.d.get(), q1, s.ctx()));

  RsaPublicKey pub(bn_bytes(n), bn_bytes(e));
  auto state = make_private(std::move(key), pub);
  RsaKeyPair pair;
  pair.public_key = pub;
  pair.private_key = RsaPrivateKey(std::move(pub), std::move(state));
  return pair;
}

}  // namespace et::crypto
