// Known-answer tests for the seeded crypto outputs the rest of the system
// depends on. Key generation, PKCS#1 v1.5 signing and encryption, and
// AES-CBC encryption are all pure functions of their inputs and the seeded
// Rng, so same-seed deployments replay byte-identical frames. These digests
// were recorded from the original in-tree bignum and AES implementations;
// any backend must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <string>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/crypto/aes.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"

namespace et::crypto {
namespace {

std::string sha256_hex(BytesView b) { return hex_encode(Sha256::digest(b)); }

struct RsaKat {
  std::uint64_t seed;
  std::size_t bits;
  const char* private_key;  // SHA-256 of private_key.serialize()
  const char* sign_sha1;    // SHA-256 of sign(msg, kSha1)
  const char* sign_sha256;  // SHA-256 of sign(msg, kSha256)
  const char* encrypt;      // SHA-256 of encrypt(secret, Rng(seed + 1))
};

constexpr RsaKat kRsaKats[] = {
    {1, 512,
     "6844ab67ed9299ba17ce1520455b2e62ae876df956b4b54d737709a947a96cf4",
     "b0e768e2cd4edba54489e6b2b718c47394162d9c86dc9d98328da907615186b2",
     "a68880591ceed8a61822d0d73d7d517d9be838d50088dd2cefaf6dc206845985",
     "364f042207086b912084208d14d2a5b4cbf0545dd1e1341d3cc9d9e355d261c3"},
    {2, 1024,
     "eeb111bbcb5dd4a37db2cf6943f615c68301ef69774d2d6642d1121eaa4dd1b9",
     "9d6a5207988762a5385668ae710604f3a0a0513fae4fb4653d25fec37e9e32c0",
     "07b8b5695c0871e0a1550059418a971b9db7209649a16bfdc6bda77db2d08149",
     "5f54e78053222b6b85f5eaf892387dfab28ee302e6e8ea3a86543e938e01e641"},
    {3, 1024,
     "e37f61f5faaa46a351e8922447453808487f8961c04a8ccdea5b22f7fec6fa25",
     "92876bc91945b1bd4f96d86e0023985c5a4023d2d1fe6a93eaf06c1fdd9222c8",
     "46800c000b7f89f63ea4cbb83d3e2774ea1aad6e823402c06fbf2c2a232b6959",
     "892baa017e344544e82548375592a7e899a900818ef1aa99dbb2797f7b096d83"},
    {4, 1536,
     "23ca19535e83099c229a70bd4fa10d76637576684f714e41e4e7221e62ae2fc9",
     "6100558967d065846daeb2ec46777dcb783bdaa2bd04104f038a4d02f8e2fedb",
     "cf9b7f04ed539036cee5038e294c9316d72d30221b8d424835c5382e634cb545",
     "18f55112088b53c0b8b121f0d20b2ede0714a2bc6ea90b4717340fc3121555c2"},
};

class RsaKatTest : public ::testing::TestWithParam<RsaKat> {};

TEST_P(RsaKatTest, SeededOutputsMatchRecordedDigests) {
  const RsaKat& kat = GetParam();
  Rng rng(kat.seed);
  const RsaKeyPair kp = rsa_generate(rng, kat.bits);
  const Bytes msg = to_bytes("availability trace, state READY");
  const Bytes secret = Rng(kat.seed * 7).next_bytes(24);
  Rng pad_rng(kat.seed + 1);

  EXPECT_EQ(sha256_hex(kp.private_key.serialize()), kat.private_key);
  EXPECT_EQ(sha256_hex(kp.private_key.sign(msg, HashAlg::kSha1)),
            kat.sign_sha1);
  EXPECT_EQ(sha256_hex(kp.private_key.sign(msg, HashAlg::kSha256)),
            kat.sign_sha256);
  const Bytes wrapped = kp.public_key.encrypt(secret, pad_rng);
  EXPECT_EQ(sha256_hex(wrapped), kat.encrypt);
  EXPECT_EQ(kp.private_key.decrypt(wrapped), secret);
}

std::string kat_name(const ::testing::TestParamInfo<RsaKat>& p) {
  return "seed" + std::to_string(p.param.seed) + "_" +
         std::to_string(p.param.bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsaKatTest, ::testing::ValuesIn(kRsaKats),
                         kat_name);

TEST(AesKatTest, SeededCbcOutputsMatchRecordedDigests) {
  // One ciphertext per key size over a multi-block, padded plaintext.
  const char* kDigests[] = {
      "2d59b604f2fafcec27e97114669084123d1ce331b062d2469c67038d81f9bfa9",
      "ee5317213012140251de042450eb6b94d8e087c7ea5ce651fc14e8a2521d4700",
      "2f2d24f0cadb4c7a6f47689be943898904eb66f5495275e514a53ca0de972e1a"};
  const std::size_t kKeyLens[] = {16, 24, 32};
  for (int i = 0; i < 3; ++i) {
    Rng rng(100 + static_cast<std::uint64_t>(i));
    const Aes cipher(rng.next_bytes(kKeyLens[i]));
    const Bytes pt = rng.next_bytes(100);
    const Bytes ct = aes_cbc_encrypt(cipher, pt, rng);
    EXPECT_EQ(sha256_hex(ct), kDigests[i]) << "key bytes " << kKeyLens[i];
    EXPECT_EQ(aes_cbc_decrypt(cipher, ct), pt);
  }
}

}  // namespace
}  // namespace et::crypto
