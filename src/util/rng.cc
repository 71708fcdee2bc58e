#include "util/rng.h"

#include <algorithm>

namespace rdbsc::util {
namespace {

constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kSeedMul = 6364136223846793005ULL;

// The twist of one word from its upper bits and the next word's lower bits.
inline uint64_t Mix(uint64_t upper, uint64_t lower) {
  const uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
}

}  // namespace

void Mt19937_64::Seed(size_t end) {
  for (size_t i = seeded_; i < end; ++i) {
    const uint64_t prev = x_[i - 1];
    x_[i] = kSeedMul * (prev ^ (prev >> 62)) + i;
  }
  seeded_ = end;
}

// Split at the same points as libstdc++'s full twist, so each loop reads
// words at a fixed offset: k + kM for k < kN - kM (not yet twisted), then
// k - (kN - kM) (twisted earlier in this pass), and the last word wraps to
// the freshly twisted word 0. Inlined into both calls in Refill so the
// full twist runs with constant bounds.
[[gnu::always_inline]] inline void Mt19937_64::Twist(size_t begin,
                                                     size_t end) {
  size_t k = begin;
  for (const size_t stop = std::min(end, kN - kM); k < stop; ++k) {
    x_[k] = x_[k + kM] ^ Mix(x_[k], x_[k + 1]);
  }
  for (const size_t stop = std::min(end, kN - 1); k < stop; ++k) {
    x_[k] = x_[k - (kN - kM)] ^ Mix(x_[k], x_[k + 1]);
  }
  if (k < end) x_[kN - 1] = x_[kM - 1] ^ Mix(x_[kN - 1], x_[0]);
}

void Mt19937_64::Refill() {
  if (ready_ < kN) {
    // First block: twisting words [ready_, end) reads seeded words up to
    // end - 1 + kM (all of them once end passes kN - kM).
    const size_t end = std::min(ready_ + kChunk, kN);
    Seed(std::min(end + kM, kN));
    Twist(ready_, end);
    ready_ = end;
    return;
  }
  Twist(0, kN);
  next_ = 0;
}

}  // namespace rdbsc::util
