// RSA public-key cryptography (PKCS#1 v1.5), matching the paper's
// configuration: "1024-bit RSA with 160-bit SHA-1 and PKCS#1Padding" (§6.1).
//
// Provides:
//  * key generation (two-prime, CRT parameters precomputed),
//  * RSASSA-PKCS1-v1_5 signatures over SHA-1 or SHA-256,
//  * RSAES-PKCS1-v1_5 encryption (used to wrap symmetric keys),
//  * serialization of public keys for embedding in credentials and tokens.
//
// The modular arithmetic runs on libcrypto's BN layer; padding, digests and
// key generation stay in-tree. Private-key exponentiations are constant
// time (no blinding). Key generation draws only from the caller's seeded
// Rng, never from OpenSSL's RAND, so same-seed keys are byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace et::crypto {

/// Digest algorithm used inside a PKCS#1 v1.5 signature.
enum class HashAlg : std::uint8_t { kSha1 = 1, kSha256 = 2 };

struct RsaKeyPair;

/// Name of a hash algorithm ("SHA-1", "SHA-256").
std::string hash_alg_name(HashAlg alg);

// libcrypto state of a key (BN values and Montgomery contexts), built once
// when the key is made and shared, immutable, by its copies.
struct BnPublicKey;
struct BnPrivateKey;

/// RSA public key: modulus n and public exponent e.
///
/// A key made from outside data may be unusable as RSA (n even or below 3,
/// n over 16384 bits, e even or 1): it still serializes and compares, but
/// verifies nothing and refuses to encrypt.
class RsaPublicKey {
 public:
  RsaPublicKey() = default;
  /// n and e as big-endian octets; leading zeros are dropped.
  RsaPublicKey(BytesView n, BytesView e);

  /// Verifies an RSASSA-PKCS1-v1_5 signature over `message`. Safe to call
  /// from several threads on one key.
  [[nodiscard]] bool verify(BytesView message, BytesView signature,
                            HashAlg alg = HashAlg::kSha1) const;

  /// RSAES-PKCS1-v1_5 encryption; plaintext must be <= modulus_len - 11.
  /// Throws std::invalid_argument when too long or the key is unusable.
  [[nodiscard]] Bytes encrypt(BytesView plaintext, Rng& rng) const;

  /// Key size in bytes (modulus length).
  [[nodiscard]] std::size_t modulus_len() const { return n_.size(); }
  /// Minimal big-endian octets (empty for zero).
  [[nodiscard]] const Bytes& n() const { return n_; }
  [[nodiscard]] const Bytes& e() const { return e_; }
  [[nodiscard]] bool empty() const { return n_.empty(); }

  /// Wire encoding / decoding.
  [[nodiscard]] Bytes serialize() const;
  static RsaPublicKey deserialize(BytesView b);

  /// SHA-1 fingerprint of the serialized key (key identity).
  [[nodiscard]] Bytes fingerprint() const;

  friend bool operator==(const RsaPublicKey& a, const RsaPublicKey& b) {
    return a.n_ == b.n_ && a.e_ == b.e_;
  }

 private:
  friend class RsaPrivateKey;
  /// x^e mod n as modulus_len() octets, for x of that length below n.
  [[nodiscard]] Bytes public_op(BytesView x) const;

  Bytes n_;
  Bytes e_;
  std::shared_ptr<const BnPublicKey> bn_;  // null when unusable
};

/// RSA private key with CRT acceleration.
class RsaPrivateKey {
 public:
  RsaPrivateKey() = default;

  /// Signs `message` with RSASSA-PKCS1-v1_5.
  [[nodiscard]] Bytes sign(BytesView message,
                           HashAlg alg = HashAlg::kSha1) const;

  /// RSAES-PKCS1-v1_5 decryption. Throws std::invalid_argument when the
  /// padding is malformed (treat as tamper evidence).
  [[nodiscard]] Bytes decrypt(BytesView ciphertext) const;

  [[nodiscard]] const RsaPublicKey& public_key() const { return pub_; }
  [[nodiscard]] bool empty() const { return bn_ == nullptr; }

  /// Wire encoding of the full private key (used when a traced entity
  /// delegates a freshly generated signing key to its hosting broker —
  /// always over an encrypted session channel). deserialize throws on
  /// malformed bytes and on factors that do not make a usable CRT key
  /// (p or q even or below 3, p * q != n, unusable public key).
  [[nodiscard]] Bytes serialize() const;
  static RsaPrivateKey deserialize(BytesView b);

 private:
  friend RsaKeyPair rsa_generate(Rng& rng, std::size_t bits);
  RsaPrivateKey(RsaPublicKey pub, std::shared_ptr<const BnPrivateKey> bn)
      : pub_(std::move(pub)), bn_(std::move(bn)) {}

  /// CRT exponentiation m = c^d mod n, for c below n.
  [[nodiscard]] Bytes private_op(BytesView c) const;

  RsaPublicKey pub_;
  std::shared_ptr<const BnPrivateKey> bn_;
};

/// A generated key pair.
struct RsaKeyPair {
  RsaPrivateKey private_key;
  RsaPublicKey public_key;
};

/// Generates an RSA key pair with an exactly `bits`-bit modulus
/// (default 1024 as in the paper) and e = 65537.
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits = 1024);

}  // namespace et::crypto
