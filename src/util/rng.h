#ifndef RDBSC_UTIL_RNG_H_
#define RDBSC_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <random>

namespace rdbsc::util {

/// MT19937-64 with the output stream of std::mt19937_64(seed), bit for bit,
/// that pays only for the numbers it draws.
///
/// std::mt19937_64 seeds all 312 state words when constructed and twists
/// all of them on the first draw, a fixed cost whether the stream then
/// yields 1 number or 300. The library forks many short streams (one per
/// D&C leaf, one per sampling sample), so this engine seeds and twists its
/// first block lazily: twisted word i < 156 needs only seeded words i, i+1
/// and i+156, and twisted word i >= 156 needs the already twisted word
/// i-156. The first block is therefore produced in chunks of kChunk words,
/// each seeding and twisting exactly what its outputs need. From the
/// second block on, every refill is the standard full twist.
///
/// A draw costs one compare outside the refill, like libstdc++'s. The
/// engine is a standard UniformRandomBitGenerator (result_type, min(),
/// max(), operator()), so every std:: distribution and std::shuffle sees
/// the same numbers as with std::mt19937_64(seed). Copies carry the whole
/// state, including a half-built first block, and continue identically.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (next_ >= ready_) Refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;     // state words
  static constexpr size_t kM = 156;     // twist offset
  static constexpr size_t kChunk = 8;   // first-block words per refill

  /// Makes x_[next_] twisted: the next chunk of the first block, or the
  /// full twist of a new block once the first is complete.
  void Refill();
  /// Seeds words [seeded_, end), end >= seeded_, from the recurrence on
  /// the word before.
  void Seed(size_t end);
  /// Twists words [begin, end) in place, in the standard order.
  void Twist(size_t begin, size_t end);

  // Zero-initialised so that copying a half-seeded engine reads no
  // indeterminate words; the values past seeded_ are never used.
  uint64_t x_[kN] = {};
  size_t next_ = 0;    // index of the word the next draw tempers
  size_t ready_ = 0;   // words [0, ready_) of the block are twisted
  size_t seeded_ = 1;  // words [0, seeded_) have been seeded
};

/// Deterministic pseudo-random source used everywhere in the library so that
/// every experiment is reproducible from a single seed.
///
/// Wraps Mt19937_64 (the std::mt19937_64 stream, lazily seeded) with the
/// distributions the RDB-SC workloads need.
class Rng {
 public:
  /// Seeds the generator. The same seed yields the same stream on every
  /// platform we target (mt19937_64 is fully specified by the standard).
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// The next raw 64-bit output of the stream.
  uint64_t NextU64() { return engine_(); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    assert(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Gaussian clamped (by re-drawing, then clamping as a last resort) to
  /// [lo, hi]; used by the paper's confidence model "Gaussian within
  /// [p_min, p_max]".
  double TruncatedGaussian(double mean, double stddev, double lo, double hi) {
    assert(lo <= hi);
    for (int attempt = 0; attempt < 16; ++attempt) {
      double x = Gaussian(mean, stddev);
      if (x >= lo && x <= hi) return x;
    }
    double x = Gaussian(mean, stddev);
    return x < lo ? lo : (x > hi ? hi : x);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child stream; used to give each subsystem its
  /// own generator without correlated draws.
  Rng Fork() { return Rng(engine_()); }

  /// The raw engine, a standard URBG, for std::shuffle and std::
  /// distributions that Rng does not wrap.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace rdbsc::util

#endif  // RDBSC_UTIL_RNG_H_
