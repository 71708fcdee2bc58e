#include "core/registry.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace rdbsc::core {

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    internal::RegisterGreedySolver(*r);
    internal::RegisterWorkerGreedySolver(*r);
    internal::RegisterSamplingSolver(*r);
    internal::RegisterDivideConquerSolvers(*r);
    internal::RegisterExactSolver(*r);
    return r;
  }();
  return *registry;
}

util::Status SolverRegistry::Register(std::string name, Factory factory) {
  if (name.empty() || factory == nullptr) {
    return util::Status::InvalidArgument(
        "solver registration needs a name and a factory");
  }
  auto [it, inserted] =
      factories_.emplace(std::move(name), std::move(factory));
  if (!inserted) {
    return util::Status::AlreadyExists("solver '" + it->first +
                                       "' is already registered");
  }
  return util::Status::OK();
}

util::StatusOr<std::unique_ptr<Solver>> SolverRegistry::Create(
    std::string_view name, const SolverOptions& options) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string message = "unknown solver '";
    message += name;
    message += "'; registered:";
    for (const std::string& known : Names()) {
      message += ' ';
      message += known;
    }
    return util::Status::NotFound(std::move(message));
  }
  std::unique_ptr<Solver> solver = it->second(options);
  if (solver == nullptr) {
    return util::Status::Internal("factory for solver '" + it->first +
                                  "' returned null");
  }
  return solver;
}

namespace internal {

void RegisterBuiltin(SolverRegistry& registry, std::string name,
                     SolverRegistry::Factory factory) {
  util::Status status = registry.Register(std::move(name), std::move(factory));
  if (!status.ok()) {
    std::fprintf(stderr, "built-in solver registration failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

}  // namespace internal

bool SolverRegistry::Contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iterates in sorted order
}

}  // namespace rdbsc::core
