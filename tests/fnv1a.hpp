// 64-bit FNV-1a over a stream of 64-bit words, fed as little-endian bytes:
// the digest the golden-value tests (OrderingDigest, FactorSchedule) pin
// their outputs with.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

namespace irrlu::test {

class Fnv1a {
 public:
  void word(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void real(double x) { word(std::bit_cast<std::uint64_t>(x)); }
  void text(std::string_view s) {
    word(s.size());
    for (char c : s) word(static_cast<unsigned char>(c));
  }
  void ints(const std::vector<int>& v) {
    word(v.size());
    for (int x : v) word(static_cast<std::uint32_t>(x));
  }
  void doubles(const std::vector<double>& v) {
    word(v.size());
    for (double x : v) real(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace irrlu::test
