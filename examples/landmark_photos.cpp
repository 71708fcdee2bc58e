// Landmark photography (Example 1 of the paper, and the Figs 19-20
// showcase substitute): one landmark task, a crowd of moving workers, and
// a report of the camera-angle coverage each approach achieves -- the
// quantity that determines how well a 3-D model could be reconstructed
// from the collected photos.
//
//   $ ./examples/landmark_photos

#include <algorithm>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "core/diversity.h"
#include "engine/engine.h"
#include "util/rng.h"

using namespace rdbsc;

namespace {

// 16-slot ASCII dial of the camera angles around the landmark.
void PrintAngleDial(const std::vector<double>& angles) {
  const int kSlots = 16;
  std::vector<int> slots(kSlots, 0);
  for (double a : angles) {
    int s = static_cast<int>(geo::NormalizeAngle(a) / geo::kTwoPi * kSlots);
    ++slots[std::min(s, kSlots - 1)];
  }
  std::printf("    angle dial [0..2pi): ");
  for (int s = 0; s < kSlots; ++s) {
    std::printf("%c", slots[s] == 0 ? '.' : (slots[s] > 9 ? '+' : '0' + slots[s]));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  constexpr double kPi = std::numbers::pi;
  util::Rng rng(2025);

  // The landmark: a statue with a 3-hour shooting window; the requester
  // cares mostly about spatial coverage (beta = 0.9).
  core::Task statue;
  statue.location = {0.5, 0.5};
  statue.start = 0.0;
  statue.end = 3.0;
  statue.beta = 0.9;

  // A competing task: the firework show over the harbor, a little to the
  // east, with the same window. Solvers must split the crowd between the
  // two, which is where their quality differs.
  core::Task fireworks;
  fireworks.location = {0.62, 0.48};
  fireworks.start = 0.0;
  fireworks.end = 3.0;
  fireworks.beta = 0.9;

  // 40 pedestrians scattered around the statue, each moving roughly
  // towards it (with a +-30 degree cone) at walking speed. Most of them
  // can also reach the fireworks site.
  std::vector<core::Worker> workers;
  for (int i = 0; i < 40; ++i) {
    double bearing = rng.Uniform(0.0, geo::kTwoPi);
    double radius = rng.Uniform(0.1, 0.45);
    core::Worker w;
    w.location = {0.5 + radius * std::cos(bearing),
                  0.5 + radius * std::sin(bearing)};
    double towards = geo::Bearing(w.location, statue.location);
    w.direction = geo::AngularInterval(towards - kPi / 6, towards + kPi / 6);
    w.velocity = rng.Uniform(0.15, 0.35);
    w.confidence = rng.Uniform(0.75, 0.98);
    workers.push_back(w);
  }

  core::Instance instance({statue, fireworks}, std::move(workers));

  // One engine per approach; the facade handles graph construction.
  std::vector<Engine> engines;
  for (const char* name : {"greedy", "sampling", "dc"}) {
    engines.push_back(
        Engine::Create(name).value());
  }

  core::CandidateGraph graph = engines.front().BuildGraph(instance).value();
  int candidates = 0;
  for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
    candidates += std::ranges::count(graph.TasksOf(j), core::TaskId{0});
  }
  std::printf("landmark task: %d candidate photographers\n\n", candidates);
  for (Engine& engine : engines) {
    core::SolveResult result =
        engine.SolveOn(instance, graph).value();
    std::printf("%-9s total_STD = %.3f, min reliability = %.4f\n",
                std::string(engine.solver_display_name()).c_str(),
                result.objectives.total_std,
                result.objectives.min_reliability);
    const char* task_names[] = {"statue", "fireworks"};
    for (core::TaskId t = 0; t < instance.num_tasks(); ++t) {
      std::vector<double> angles;
      for (core::WorkerId j = 0; j < instance.num_workers(); ++j) {
        if (result.assignment.TaskOf(j) == t) {
          angles.push_back(
              core::ApproachAngle(instance.task(t), instance.worker(j)));
        }
      }
      std::printf("  %-10s %2zu photographers, SD entropy = %.3f\n",
                  task_names[t], angles.size(),
                  core::SpatialDiversity(angles));
      PrintAngleDial(angles);
    }
  }
  std::printf(
      "\nHigher SD entropy = more viewpoints covered = better 3-D "
      "reconstruction (Figs 19-20 of the paper).\n");
  return 0;
}
