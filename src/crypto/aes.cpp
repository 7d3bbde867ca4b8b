// The AES_* functions are deprecated in OpenSSL 3.0 in favour of EVP, which
// would start the provider machinery; the low-level block cipher does not.
#define OPENSSL_SUPPRESS_DEPRECATED
#include "src/crypto/aes.h"

#include <openssl/aes.h>

#include <cstring>
#include <stdexcept>

namespace et::crypto {

struct Aes::Schedules {
  AES_KEY enc;
  AES_KEY dec;
};

Aes::Aes(BytesView key) : key_bits_(key.size() * 8) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    throw std::invalid_argument("Aes: key must be 16, 24 or 32 bytes");
  }
  auto keys = std::make_unique<Schedules>();
  const int bits = static_cast<int>(key_bits_);
  if (AES_set_encrypt_key(key.data(), bits, &keys->enc) != 0 ||
      AES_set_decrypt_key(key.data(), bits, &keys->dec) != 0) {
    throw std::invalid_argument("Aes: key schedule failed");
  }
  keys_ = std::move(keys);
}

Aes::~Aes() = default;

void Aes::encrypt_block(std::uint8_t block[16]) const {
  AES_encrypt(block, block, &keys_->enc);
}

void Aes::decrypt_block(std::uint8_t block[16]) const {
  AES_decrypt(block, block, &keys_->dec);
}

Bytes aes_cbc_encrypt(const Aes& cipher, BytesView plaintext, Rng& rng) {
  constexpr std::size_t kBlock = Aes::kBlockSize;
  // PKCS#7 pad.
  const std::size_t pad = kBlock - (plaintext.size() % kBlock);
  Bytes padded(plaintext.begin(), plaintext.end());
  padded.insert(padded.end(), pad, static_cast<std::uint8_t>(pad));

  Bytes out = rng.next_bytes(kBlock);  // IV
  out.reserve(kBlock + padded.size());

  std::uint8_t prev[kBlock];
  std::memcpy(prev, out.data(), kBlock);
  for (std::size_t off = 0; off < padded.size(); off += kBlock) {
    std::uint8_t block[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i] = static_cast<std::uint8_t>(padded[off + i] ^ prev[i]);
    }
    cipher.encrypt_block(block);
    out.insert(out.end(), block, block + kBlock);
    std::memcpy(prev, block, kBlock);
  }
  return out;
}

Bytes aes_cbc_decrypt(const Aes& cipher, BytesView ciphertext) {
  constexpr std::size_t kBlock = Aes::kBlockSize;
  if (ciphertext.size() < 2 * kBlock || ciphertext.size() % kBlock != 0) {
    throw std::invalid_argument("aes_cbc_decrypt: bad ciphertext length");
  }
  Bytes out;
  out.reserve(ciphertext.size() - kBlock);

  std::uint8_t prev[kBlock];
  std::memcpy(prev, ciphertext.data(), kBlock);  // IV
  for (std::size_t off = kBlock; off < ciphertext.size(); off += kBlock) {
    std::uint8_t block[kBlock];
    std::memcpy(block, ciphertext.data() + off, kBlock);
    std::uint8_t saved[kBlock];
    std::memcpy(saved, block, kBlock);
    cipher.decrypt_block(block);
    for (std::size_t i = 0; i < kBlock; ++i) {
      out.push_back(static_cast<std::uint8_t>(block[i] ^ prev[i]));
    }
    std::memcpy(prev, saved, kBlock);
  }

  if (out.empty()) throw std::invalid_argument("aes_cbc_decrypt: empty");
  const std::uint8_t pad = out.back();
  if (pad == 0 || pad > kBlock || pad > out.size()) {
    throw std::invalid_argument("aes_cbc_decrypt: bad padding");
  }
  for (std::size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) {
      throw std::invalid_argument("aes_cbc_decrypt: bad padding");
    }
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace et::crypto
