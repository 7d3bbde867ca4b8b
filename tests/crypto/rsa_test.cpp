#include "src/crypto/rsa.h"

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/crypto/sha1.h"

namespace et::crypto {
namespace {

// Key generation is the slow part; share one pair across the suite.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    pair_ = new RsaKeyPair(rsa_generate(rng, 1024));
    small_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete small_;
    pair_ = nullptr;
    small_ = nullptr;
  }
  static RsaKeyPair* pair_;
  static RsaKeyPair* small_;
};

RsaKeyPair* RsaTest::pair_ = nullptr;
RsaKeyPair* RsaTest::small_ = nullptr;

TEST_F(RsaTest, ModulusHasRequestedLength) {
  // Exact length: the top bit of the leading octet is set.
  EXPECT_EQ(pair_->public_key.modulus_len(), 128u);
  EXPECT_GE(pair_->public_key.n().front(), 0x80);
  EXPECT_EQ(small_->public_key.modulus_len(), 64u);
  EXPECT_GE(small_->public_key.n().front(), 0x80);
}

TEST_F(RsaTest, SignVerifySha1) {
  const Bytes msg = to_bytes("trace registration message");
  const Bytes sig = pair_->private_key.sign(msg, HashAlg::kSha1);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(pair_->public_key.verify(msg, sig, HashAlg::kSha1));
}

TEST_F(RsaTest, SignVerifySha256) {
  const Bytes msg = to_bytes("trace registration message");
  const Bytes sig = pair_->private_key.sign(msg, HashAlg::kSha256);
  EXPECT_TRUE(pair_->public_key.verify(msg, sig, HashAlg::kSha256));
  // Digest mismatch must fail.
  EXPECT_FALSE(pair_->public_key.verify(msg, sig, HashAlg::kSha1));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const Bytes sig = pair_->private_key.sign(to_bytes("original"));
  EXPECT_FALSE(pair_->public_key.verify(to_bytes("forged"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = pair_->private_key.sign(msg);
  sig[40] ^= 0x01;
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  const Bytes msg = to_bytes("message");
  const Bytes sig = pair_->private_key.sign(msg);
  EXPECT_FALSE(small_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = pair_->private_key.sign(msg);
  sig.pop_back();
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
  sig.push_back(0);
  sig.push_back(0);
  EXPECT_FALSE(pair_->public_key.verify(msg, sig));
}

TEST_F(RsaTest, SignatureIsDeterministic) {
  const Bytes msg = to_bytes("PKCS#1 v1.5 is deterministic");
  EXPECT_EQ(pair_->private_key.sign(msg), pair_->private_key.sign(msg));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(1);
  const Bytes pt = to_bytes("secret trace key material 192bit");
  const Bytes ct = pair_->public_key.encrypt(pt, rng);
  EXPECT_EQ(ct.size(), 128u);
  EXPECT_EQ(pair_->private_key.decrypt(ct), pt);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Rng rng(2);
  const Bytes pt = to_bytes("same message");
  EXPECT_NE(pair_->public_key.encrypt(pt, rng),
            pair_->public_key.encrypt(pt, rng));
}

TEST_F(RsaTest, EncryptRejectsOverlongMessage) {
  Rng rng(3);
  EXPECT_THROW(pair_->public_key.encrypt(Bytes(118), rng),
               std::invalid_argument);
  // 117 = 128 - 11 is the PKCS#1 v1.5 limit for a 1024-bit key.
  EXPECT_NO_THROW(pair_->public_key.encrypt(Bytes(117), rng));
}

TEST_F(RsaTest, DecryptRejectsGarbage) {
  EXPECT_THROW(pair_->private_key.decrypt(Bytes(128, 0xAB)),
               std::invalid_argument);
  EXPECT_THROW(pair_->private_key.decrypt(Bytes(64)), std::invalid_argument);
}

TEST_F(RsaTest, DecryptWithWrongKeyFails) {
  Rng rng(4);
  const Bytes ct = small_->public_key.encrypt(to_bytes("hello"), rng);
  EXPECT_THROW((void)pair_->private_key.decrypt(ct), std::invalid_argument);
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  const Bytes wire = pair_->public_key.serialize();
  const RsaPublicKey parsed = RsaPublicKey::deserialize(wire);
  EXPECT_EQ(parsed, pair_->public_key);
  const Bytes msg = to_bytes("serialized key still verifies");
  EXPECT_TRUE(parsed.verify(msg, pair_->private_key.sign(msg)));
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(pair_->public_key.fingerprint(), pair_->public_key.fingerprint());
  EXPECT_NE(pair_->public_key.fingerprint(),
            small_->public_key.fingerprint());
  EXPECT_EQ(pair_->public_key.fingerprint().size(), 20u);
}

TEST_F(RsaTest, EmptyKeyBehaviour) {
  RsaPublicKey empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.verify(to_bytes("m"), Bytes(128)));
  RsaPrivateKey empty_priv;
  EXPECT_THROW((void)empty_priv.sign(to_bytes("m")), std::logic_error);
}

TEST_F(RsaTest, CrtMatchesPlainExponentiation) {
  // private_op via CRT must invert the public operation.
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const Bytes pt = rng.next_bytes(32);
    const Bytes ct = small_->public_key.encrypt(pt, rng);
    EXPECT_EQ(small_->private_key.decrypt(ct), pt);
  }
}

// Delegate keys in tokens and credentials come from outside the program:
// whatever a deserialized key holds, verify returns a verdict.
Bytes wire_key(BytesView n, BytesView e) {
  Writer w;
  w.bytes(n);
  w.bytes(e);
  return std::move(w).take();
}

TEST_F(RsaTest, DegenerateWireKeysNeverVerify) {
  const Bytes msg = to_bytes("trace from a hostile token");
  const RsaPublicKey& good = pair_->public_key;
  const Bytes sig = pair_->private_key.sign(msg);
  const Bytes n = good.n();
  const Bytes e = good.e();
  Bytes even_n = n;
  even_n.back() &= 0xFE;
  Rng rng(11);
  Bytes big_n = rng.next_bytes(512);  // a 4096-bit odd modulus
  big_n.front() |= 0x80;
  big_n.back() |= 0x01;

  // EM for `msg` under SHA-1: with e = 1 it is its own "signature".
  Bytes em = {0x00, 0x01};
  em.insert(em.end(), 128 - 35 - 3, 0xFF);
  append(em, Bytes{0x00, 0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03,
                   0x02, 0x1a, 0x05, 0x00, 0x04, 0x14});
  append(em, Sha1::digest(msg));
  ASSERT_EQ(em.size(), 128u);

  const std::vector<Bytes> keys = {
      wire_key({}, e),          wire_key(Bytes{0x01}, e),
      wire_key(even_n, e),      wire_key(n, {}),
      wire_key(n, Bytes{0x01}), wire_key(big_n, e),
      wire_key(Bytes{0x00, 0x00}, Bytes{0x00})};
  Bytes short_sig(sig.begin(), sig.end() - 1);
  Bytes long_sig = sig;
  long_sig.push_back(0);
  const std::vector<Bytes> sigs = {
      sig, short_sig, long_sig, n, Bytes(128, 0xFF), em, Bytes(512, 0x7F),
      Bytes{}};
  for (std::size_t k = 0; k < keys.size(); ++k) {
    RsaPublicKey key;
    ASSERT_NO_THROW(key = RsaPublicKey::deserialize(keys[k])) << "key " << k;
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      bool ok = true;
      EXPECT_NO_THROW(ok = key.verify(msg, sigs[i])) << k << "/" << i;
      EXPECT_FALSE(ok) << "key " << k << " signature " << i;
    }
    if (key.n() != big_n) {  // the 4096-bit key is odd, hence usable
      EXPECT_THROW((void)key.encrypt(to_bytes("k"), rng),
                   std::invalid_argument)
          << "key " << k;
    }
  }

  // The genuine key still rejects every malformed signature.
  for (const Bytes& bad : {short_sig, long_sig, n, Bytes(128, 0xFF), em}) {
    EXPECT_FALSE(good.verify(msg, bad));
  }
  // Malformed bytes still throw.
  const Bytes wire = good.serialize();
  const BytesView truncated = BytesView(wire).first(wire.size() - 1);
  EXPECT_THROW(RsaPublicKey::deserialize(truncated), SerializeError);
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(RsaPublicKey::deserialize(trailing), SerializeError);
}

TEST_F(RsaTest, InconsistentPrivateKeyRejectedOnDeserialize) {
  // Fields after the public key: d, p, q, dp, dq, qinv.
  const Bytes wire = small_->private_key.serialize();
  Reader r(wire);
  const Bytes pub = r.bytes();
  std::vector<Bytes> f;
  for (int i = 0; i < 6; ++i) f.push_back(r.bytes());
  const auto rebuild = [&](const std::vector<Bytes>& fields) {
    Writer w;
    w.bytes(pub);
    for (const Bytes& x : fields) w.bytes(x);
    return std::move(w).take();
  };
  EXPECT_EQ(RsaPrivateKey::deserialize(rebuild(f)).sign(to_bytes("m")),
            small_->private_key.sign(to_bytes("m")));

  std::vector<Bytes> even_p = f;
  even_p[1].back() &= 0xFE;
  std::vector<Bytes> swapped_n = f;
  swapped_n[2] = f[1];  // p * p != n
  std::vector<Bytes> one_q = f;
  one_q[2] = Bytes{0x01};
  for (const auto& bad : {even_p, swapped_n, one_q}) {
    EXPECT_THROW((void)RsaPrivateKey::deserialize(rebuild(bad)),
                 std::invalid_argument);
  }
}

TEST(RsaGenerateTest, RejectsBadSizes) {
  Rng rng(6);
  EXPECT_THROW(rsa_generate(rng, 100), std::invalid_argument);
  EXPECT_THROW(rsa_generate(rng, 127), std::invalid_argument);
}

TEST(RsaGenerateTest, DistinctKeysAcrossCalls) {
  Rng rng(7);
  const RsaKeyPair a = rsa_generate(rng, 256);
  const RsaKeyPair b = rsa_generate(rng, 256);
  EXPECT_NE(a.public_key.n(), b.public_key.n());
}

}  // namespace
}  // namespace et::crypto
