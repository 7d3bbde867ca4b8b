// Property-based sweeps over the crypto substrate: round-trip laws for
// AES/RSA/envelopes across parameter grids, and robustness of
// deserializers against corrupted input.
#include <gtest/gtest.h>

#include <tuple>

#include "src/crypto/aes.h"
#include "src/crypto/rsa.h"
#include "src/common/serialize.h"
#include "src/crypto/secret_key.h"

namespace et::crypto {
namespace {

// --- AES round-trip grid -----------------------------------------------------

class AesGridTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(AesGridTest, EncryptDecryptIdentity) {
  const auto [key_len, msg_len] = GetParam();
  Rng rng(key_len * 1000 + msg_len);
  const Aes cipher(rng.next_bytes(key_len));
  const Bytes pt = rng.next_bytes(msg_len);
  EXPECT_EQ(aes_cbc_decrypt(cipher, aes_cbc_encrypt(cipher, pt, rng)), pt);
}

INSTANTIATE_TEST_SUITE_P(
    KeyAndMessageSizes, AesGridTest,
    ::testing::Combine(::testing::Values(16u, 24u, 32u),
                       ::testing::Values(0u, 1u, 16u, 100u, 1000u)));

// --- RSA round-trip across key sizes ----------------------------------------

class RsaSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaSizeTest, SignVerifyAndEncryptDecrypt) {
  Rng rng(GetParam());
  const RsaKeyPair kp = rsa_generate(rng, GetParam());
  const Bytes msg = rng.next_bytes(100);
  EXPECT_TRUE(kp.public_key.verify(msg, kp.private_key.sign(msg)));
  const std::size_t capacity = kp.public_key.modulus_len() - 11;
  const Bytes secret = rng.next_bytes(std::min<std::size_t>(capacity, 32));
  EXPECT_EQ(kp.private_key.decrypt(kp.public_key.encrypt(secret, rng)),
            secret);
}

TEST_P(RsaSizeTest, PrivateKeySerializationPreservesOperation) {
  Rng rng(GetParam() + 7);
  const RsaKeyPair kp = rsa_generate(rng, GetParam());
  const RsaPrivateKey copy =
      RsaPrivateKey::deserialize(kp.private_key.serialize());
  const Bytes msg = rng.next_bytes(64);
  // The copy signs identically (PKCS#1 v1.5 is deterministic).
  EXPECT_EQ(copy.sign(msg), kp.private_key.sign(msg));
  EXPECT_EQ(copy.public_key(), kp.public_key);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaSizeTest,
                         ::testing::Values(384u, 512u, 768u));

// --- corruption robustness ----------------------------------------------------

TEST(CorruptionTest, SecretKeyDeserializeNeverCrashes) {
  Rng rng(71);
  const SecretKey k = SecretKey::generate(rng);
  const Bytes wire = k.serialize();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes corrupt = wire;
    corrupt[i] ^= 0xFF;
    try {
      const SecretKey parsed = SecretKey::deserialize(corrupt);
      // Parsed fine: the flipped byte was inside key material. It must
      // still behave like a (different) key.
      (void)parsed.material();
    } catch (const std::exception&) {
      // Rejection is equally acceptable.
    }
  }
}

TEST(CorruptionTest, PublicKeyDeserializeTruncationThrows) {
  Rng rng(72);
  const RsaKeyPair kp = rsa_generate(rng, 256);
  const Bytes wire = kp.public_key.serialize();
  for (std::size_t cut = 0; cut < wire.size(); cut += 3) {
    EXPECT_THROW(RsaPublicKey::deserialize(BytesView(wire.data(), cut)),
                 SerializeError)
        << "cut=" << cut;
  }
}

TEST(CorruptionTest, SignatureBitFlipsAllRejected) {
  Rng rng(73);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  const Bytes msg = to_bytes("every single bit matters");
  const Bytes sig = kp.private_key.sign(msg);
  for (std::size_t byte = 0; byte < sig.size(); byte += 5) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes bad = sig;
      bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1u << bit));
      EXPECT_FALSE(kp.public_key.verify(msg, bad))
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

}  // namespace
}  // namespace et::crypto
