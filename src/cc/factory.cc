#include "cc/factory.h"

#include "cc/basic_to.h"
#include "cc/locking.h"
#include "cc/mvto.h"
#include "cc/optimistic.h"
#include "cc/optimistic_forward.h"
#include "cc/static_locking.h"
#include "util/check.h"

namespace ccsim {

std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    const std::string& name, VictimPolicy victim_policy) {
  if (LockingCC::Implements(name)) {
    return std::make_unique<LockingCC>(name, victim_policy);
  }
  if (name == "optimistic") return std::make_unique<OptimisticCC>();
  if (name == "basic_to") return std::make_unique<BasicTimestampOrderingCC>();
  if (name == "mvto") {
    return std::make_unique<MultiversionTimestampOrderingCC>();
  }
  if (name == "static_locking") return std::make_unique<StaticLockingCC>();
  if (name == "optimistic_forward") {
    return std::make_unique<ForwardOptimisticCC>();
  }
  CCSIM_CHECK(false) << "unknown concurrency control algorithm: " << name;
  return nullptr;
}

const std::vector<std::string>& PaperAlgorithms() {
  static const std::vector<std::string> algorithms = {
      "blocking", "immediate_restart", "optimistic"};
  return algorithms;
}

const std::vector<std::string>& AllAlgorithms() {
  static const std::vector<std::string> algorithms = {
      "blocking", "immediate_restart", "optimistic", "optimistic_forward",
      "wound_wait", "wait_die", "basic_to", "mvto", "static_locking"};
  return algorithms;
}

bool NeedsRestartDelay(const std::string& name) {
  // The paper's immediate-restart, and wait-die (the younger transaction
  // dies against an older holder that keeps running).
  return name == "immediate_restart" || name == "wait_die";
}

RestartDelayMode DefaultRestartDelayMode(const std::string& name) {
  return NeedsRestartDelay(name) ? RestartDelayMode::kAdaptive
                                 : RestartDelayMode::kNone;
}

}  // namespace ccsim
