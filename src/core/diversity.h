#ifndef RDBSC_CORE_DIVERSITY_H_
#define RDBSC_CORE_DIVERSITY_H_

#include <cstddef>
#include <vector>

#include "core/model.h"

namespace rdbsc::core {

/// One assigned worker as seen from its task: the approach angle at the task
/// location (Figure 2(a)), the arrival time inside the valid period
/// (Figure 2(b)) and the worker's confidence.
struct Observation {
  double angle = 0.0;       ///< approach direction, radians in [0, 2*pi)
  double arrival = 0.0;     ///< arrival time, clamped into [task.start, end]
  double confidence = 0.9;  ///< worker reliability p_j
};

/// Builds the observation of worker `w` for task `t` given the system time.
Observation MakeObservation(const Task& t, const Worker& w, double now,
                            ArrivalPolicy policy);

/// Spatial diversity SD (Eq. 3): entropy of the circular gaps between the
/// given approach angles. 0 for fewer than two distinct rays.
double SpatialDiversity(const std::vector<double>& angles);

/// Temporal diversity TD (Eq. 4): entropy of the sub-intervals into which
/// the arrival times divide [start, end]. 0 for an empty set of arrivals.
double TemporalDiversity(const std::vector<double>& arrivals, double start,
                         double end);

/// Deterministic spatial/temporal diversity STD (Eq. 5) of a concrete
/// worker set, i.e. assuming every observation is realized.
double Std(const Task& task, const std::vector<Observation>& obs);

/// Expected spatial diversity E[SD] under possible-worlds semantics,
/// computed with the spatial diversity matrix M_SD of Section 3.2
/// (prefix-product formulation instead of the paper's O(r^3)). Cost is at
/// most O(r^2): each row of Eq. 9 ends once its remaining terms provably
/// cannot change the running sum, so the result is bit-identical to the
/// full rows (proof at the cut in diversity.cc; tests/diversity_test.cc
/// checks it against a full-row copy).
double ExpectedSpatialDiversity(const std::vector<Observation>& obs);

/// Expected temporal diversity E[TD], computed with the temporal diversity
/// matrix M_TD of Section 3.2. The valid period boundaries act as virtual
/// always-present dividers (see DESIGN.md on the Eq. 10 index convention).
/// Cost is at most O(r^2), with the same bit-identical row cut-off as
/// ExpectedSpatialDiversity. Requires end > start (core::ValidateTask).
double ExpectedTemporalDiversity(const std::vector<Observation>& obs,
                                 double start, double end);

/// Expected combined diversity E[STD] = beta*E[SD] + (1-beta)*E[TD]
/// (Lemma 3.1).
double ExpectedStd(const Task& task, const std::vector<Observation>& obs);

/// Test oracle: E[STD] by exhaustive enumeration of all 2^r possible worlds
/// (Eq. 6). Requires obs.size() <= 25.
double ExpectedStdBruteForce(const Task& task,
                             const std::vector<Observation>& obs);

/// Lower/upper bounds on E[STD] used by the greedy pruning strategy
/// (Section 4.3): ub is STD with every worker present (Lemma 4.2 maximum);
/// lb is P(diversity non-zero) times the smallest realizable non-zero
/// diversity. Both are O(r log r).
struct DiversityBounds {
  double lb = 0.0;
  double ub = 0.0;
};
DiversityBounds ExpectedStdBounds(const Task& task,
                                  const std::vector<Observation>& obs);

namespace internal {

/// Rosters up to this size are put in angle or arrival order by
/// InsertionSortOrder; larger ones by std::sort.
inline constexpr size_t kInsertionSortMax = 16;

/// Sorts `order[0, r)` by `less` with the insertion sort libstdc++'s
/// std::sort runs on at most 16 elements: an element less than the first
/// moves to the front, any other one is inserted by an unguarded linear
/// scan down from its position. For r <= kInsertionSortMax the permutation
/// therefore equals std::sort's for every input, ties and NaN keys
/// included, without std::sort's call and dispatch. Exposed for the test
/// that checks this against std::sort.
template <typename Less>
void InsertionSortOrder(size_t* order, size_t r, Less less) {
  for (size_t i = 1; i < r; ++i) {
    const size_t value = order[i];
    if (less(value, order[0])) {
      for (size_t k = i; k > 0; --k) order[k] = order[k - 1];
      order[0] = value;
      continue;
    }
    size_t k = i;
    while (less(value, order[k - 1])) {
      order[k] = order[k - 1];
      --k;
    }
    order[k] = value;
  }
}

}  // namespace internal

}  // namespace rdbsc::core

#endif  // RDBSC_CORE_DIVERSITY_H_
