// AES block cipher (FIPS 197) with CBC mode and PKCS#7 padding.
//
// The paper secures trace payloads with "192-bit AES keys" (§6.1); this
// implementation supports 128/192/256-bit keys. CBC ciphertexts carry the
// random IV as their first block. The block cipher is libcrypto's
// low-level AES; CBC chaining and PKCS#7 padding stay in-tree.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace et::crypto {

/// Raw AES block cipher over 16-byte blocks.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Key must be 16, 24 or 32 bytes; throws std::invalid_argument otherwise.
  explicit Aes(BytesView key);
  ~Aes();

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::uint8_t block[16]) const;
  /// Decrypts one 16-byte block in place.
  void decrypt_block(std::uint8_t block[16]) const;

  [[nodiscard]] std::size_t key_bits() const { return key_bits_; }

 private:
  struct Schedules;  // libcrypto's encrypt and decrypt key schedules
  std::unique_ptr<const Schedules> keys_;
  std::size_t key_bits_;
};

/// CBC + PKCS#7 encryption. Output = IV || ciphertext. IV drawn from `rng`.
Bytes aes_cbc_encrypt(const Aes& cipher, BytesView plaintext, Rng& rng);

/// CBC + PKCS#7 decryption of a buffer produced by aes_cbc_encrypt.
/// Throws std::invalid_argument on bad length or padding (treat as tamper).
Bytes aes_cbc_decrypt(const Aes& cipher, BytesView ciphertext);

}  // namespace et::crypto
