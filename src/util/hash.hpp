#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace hpop::util {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
/// A 19-digit truncation of kFnvOffset. The metro, attic, directory and WAL
/// fingerprints were first written with it; they keep it so that stored
/// checksums and recorded reports stay valid.
inline constexpr std::uint64_t kFnvOffsetShort = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Incremental 64-bit FNV-1a, for deterministic fingerprints and
/// checksums (not for hash tables or anything adversarial).
struct Fnv {
  std::uint64_t h = kFnvOffset;

  Fnv() = default;
  explicit Fnv(std::uint64_t basis) : h(basis) {}

  void mix_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
  /// The value's 8 bytes, least significant first, on any host.
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). Self-contained; validated against the
/// NIST test vectors in the unit tests. Used for NoCDN object integrity,
/// capability tokens, and erasure-shard checksums.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  Digest finish();

  /// One-shot helpers.
  static Digest digest(const Bytes& data);
  static Digest digest(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104). Used to sign NoCDN usage records and HPoP
/// capability tokens.
Digest hmac_sha256(const Bytes& key, const Bytes& message);
Digest hmac_sha256(const Bytes& key, std::string_view message);

/// Constant-time digest comparison (the simulation does not have timing
/// side channels, but the API models the correct idiom).
bool digest_equal(const Digest& a, const Digest& b);

std::string digest_hex(const Digest& d);

}  // namespace hpop::util
