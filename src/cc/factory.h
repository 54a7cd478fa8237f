// Construction of concurrency control algorithms by name, plus each
// algorithm's conventional restart-delay default.
#ifndef CCSIM_CC_FACTORY_H_
#define CCSIM_CC_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "cc/concurrency_control.h"
#include "cc/deadlock.h"
#include "cc/restart_policy.h"

namespace ccsim {

/// Builds the algorithm named `name`, one of AllAlgorithms(); an unknown name
/// is a CHECK failure.
std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    const std::string& name, VictimPolicy victim_policy = VictimPolicy::kYoungest);

/// The paper's three algorithms, in presentation order.
const std::vector<std::string>& PaperAlgorithms();

/// All implemented algorithms (paper three + extensions).
const std::vector<std::string>& AllAlgorithms();

/// True if the algorithm restarts a transaction against a conflictor that is
/// still running, so the restart must sit out a delay: without one, the
/// restarted transaction re-requests the same lock at the same simulated
/// instant and the same conflict recurs forever.
bool NeedsRestartDelay(const std::string& name);

/// Conventional delay default: adaptive for the algorithms above (their
/// restarts must outlast the conflicting transaction), none for the others
/// (blocking restarts only on deadlock, optimistic conflicts are with
/// already-committed transactions).
RestartDelayMode DefaultRestartDelayMode(const std::string& name);

}  // namespace ccsim

#endif  // CCSIM_CC_FACTORY_H_
