#include "obs/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace rdbsc::obs {
namespace {

/// Relaxed CAS-min/max: integer, order-insensitive, so concurrent
/// recording stays deterministic in aggregate.
void AtomicMin(std::atomic<int64_t>& slot, int64_t value) {
  int64_t current = slot.load(std::memory_order_relaxed);
  while (value < current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>& slot, int64_t value) {
  int64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

// --- Bucket geometry -------------------------------------------------------

int Histogram::BucketIndex(int64_t units) {
  if (units < kSubBuckets) return static_cast<int>(units);
  // The octave of `units` is its bit width; keeping the top kSubBucketBits
  // bits as the sub-bucket makes every octave 16 buckets wide (the lower
  // half of the sub-bucket range belongs to the previous octave).
  const int width = std::bit_width(static_cast<uint64_t>(units));
  const int exponent = width - kSubBucketBits;         // >= 1
  const int64_t sub = units >> exponent;               // in [16, 32)
  return static_cast<int>(sub + kSubBuckets / 2 * exponent);
}

int64_t Histogram::BucketLow(int index) {
  if (index < kSubBuckets) return index;
  const int exponent = index / (kSubBuckets / 2) - 1;
  const int64_t sub = index - kSubBuckets / 2 * exponent;
  return sub << exponent;
}

int64_t Histogram::BucketHigh(int index) {
  if (index < kSubBuckets) return index;
  const int exponent = index / (kSubBuckets / 2) - 1;
  // Parenthesized so the top bucket's high edge never overflows on the
  // way to its value (BucketLow + 2^exponent alone exceeds int64_t).
  return BucketLow(index) + ((int64_t{1} << exponent) - 1);
}

int64_t Histogram::BucketMid(int index) {
  if (index < kSubBuckets) return index;
  const int exponent = index / (kSubBuckets / 2) - 1;
  return BucketLow(index) + (int64_t{1} << (exponent - 1));
}

// --- Recording -------------------------------------------------------------

void Histogram::Record(int64_t units) {
  units = std::clamp<int64_t>(units, 0, kMaxValue);
  buckets_[BucketIndex(units)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_units_.fetch_add(units, std::memory_order_relaxed);
  AtomicMin(min_units_, units);
  AtomicMax(max_units_, units);
}

void Histogram::Observe(double value) {
  if (!(value > 0.0)) {  // negatives and NaN clamp to zero
    Record(0);
    return;
  }
  const double units = value / resolution_;
  if (units >= static_cast<double>(kMaxValue)) {
    Record(kMaxValue);
    return;
  }
  Record(std::llround(units));
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.resolution_ = resolution_;
  snap.count_ = count_.load(std::memory_order_relaxed);
  snap.sum_units_ = sum_units_.load(std::memory_order_relaxed);
  // The min slot's empty sentinel is kMaxValue, which is also a recordable
  // value -- distinguish by count, not by the sentinel.
  const int64_t min_units = min_units_.load(std::memory_order_relaxed);
  snap.min_units_ = snap.count_ == 0 ? 0 : min_units;
  snap.max_units_ = max_units_.load(std::memory_order_relaxed);
  snap.buckets_.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets_[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_units_.store(0, std::memory_order_relaxed);
  min_units_.store(kMaxValue, std::memory_order_relaxed);
  max_units_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

// --- Snapshot queries ------------------------------------------------------

double HistogramSnapshot::sum() const {
  return static_cast<double>(sum_units_) * resolution_;
}

double HistogramSnapshot::avg() const {
  if (count_ == 0) return 0.0;
  return sum() / static_cast<double>(count_);
}

double HistogramSnapshot::min() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(min_units_) * resolution_;
}

double HistogramSnapshot::max() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(max_units_) * resolution_;
}

double HistogramSnapshot::stddev() const {
  if (count_ == 0 || buckets_.empty()) return 0.0;
  // Both moments from bucket midpoints (not the exact sum), so the
  // deviations are measured around the same approximated mean and the
  // variance cannot go negative.
  double mid_sum = 0.0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    mid_sum += static_cast<double>(buckets_[i]) *
               static_cast<double>(Histogram::BucketMid(static_cast<int>(i)));
  }
  const double mean = mid_sum / static_cast<double>(count_);
  double var_sum = 0.0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double d =
        static_cast<double>(Histogram::BucketMid(static_cast<int>(i))) - mean;
    var_sum += static_cast<double>(buckets_[i]) * d * d;
  }
  return std::sqrt(var_sum / static_cast<double>(count_)) * resolution_;
}

double HistogramSnapshot::ValueAtPercentile(double q) const {
  if (count_ == 0 || buckets_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  // The extreme ranks are the tracked min/max samples: report them
  // exactly instead of a bucket midpoint (this is what makes p0 == min
  // and p100 == max precise, not just within bucket resolution).
  if (rank == 1) return static_cast<double>(min_units_) * resolution_;
  if (rank == count_) return static_cast<double>(max_units_) * resolution_;
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += static_cast<int64_t>(buckets_[i]);
    if (seen >= rank) {
      const int64_t mid = std::clamp(
          Histogram::BucketMid(static_cast<int>(i)), min_units_, max_units_);
      return static_cast<double>(mid) * resolution_;
    }
  }
  return static_cast<double>(max_units_) * resolution_;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_units_ = other.min_units_;
    max_units_ = other.max_units_;
    resolution_ = other.resolution_;
  } else {
    min_units_ = std::min(min_units_, other.min_units_);
    max_units_ = std::max(max_units_, other.max_units_);
  }
  count_ += other.count_;
  sum_units_ += other.sum_units_;
  if (buckets_.empty()) buckets_.resize(Histogram::kNumBuckets);
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

// --- WindowedRecorder ------------------------------------------------------

void WindowedRecorder::Observe(double value) {
  total_.Observe(value);
  windows_[active_.load(std::memory_order_acquire) & 1].Observe(value);
}

HistogramSnapshot WindowedRecorder::Rotate() {
  util::MutexLock lock(mu_);
  const uint64_t retiring = active_.fetch_add(1, std::memory_order_acq_rel);
  Histogram& closed = windows_[retiring & 1];
  HistogramSnapshot snap = closed.Snapshot();
  // Samples recorded between the index flip and this reset land in the
  // snapshot or the reset state; either way they survive in total_.
  closed.Reset();
  ++rotations_;
  return snap;
}

HistogramSnapshot WindowedRecorder::Window() const {
  return windows_[active_.load(std::memory_order_acquire) & 1].Snapshot();
}

int64_t WindowedRecorder::rotations() const {
  util::MutexLock lock(mu_);
  return rotations_;
}

}  // namespace rdbsc::obs
