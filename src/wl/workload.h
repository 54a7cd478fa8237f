// Transaction specification and workload generation.
//
// A transaction is described entirely by its readset (sampled uniformly
// without replacement from the database) and the subset of it that is also
// written (each read object independently with probability write_prob). All
// reads precede all writes, and updates are deferred to commit — so the spec
// fully determines the access sequence, and a restarted transaction replays
// the identical spec (the simulator "maintains backup copies of transaction
// read and write sets").
#ifndef CCSIM_WL_WORKLOAD_H_
#define CCSIM_WL_WORKLOAD_H_

#include <vector>

#include "sim/time.h"
#include "util/random.h"
#include "wl/params.h"

namespace ccsim {

/// Immutable description of one transaction's logical work.
struct TxnSpec {
  /// Objects read, in access order.
  std::vector<ObjectId> reads;
  /// writes[i] is true iff reads[i] is also written. Writes are performed in
  /// readset order during the write phase.
  std::vector<bool> writes;
  /// Which TxnClass produced this transaction (0 for single-class).
  int class_index = 0;

  int num_reads() const { return static_cast<int>(reads.size()); }

  int num_writes() const {
    int n = 0;
    for (bool w : writes) n += w ? 1 : 0;
    return n;
  }

  bool read_only() const { return num_writes() == 0; }

  /// The written objects, in write-phase order.
  std::vector<ObjectId> WriteSet() const {
    std::vector<ObjectId> set;
    WriteSet(&set);
    return set;
  }

  /// The same, written into `*out` (whose capacity is reused).
  void WriteSet(std::vector<ObjectId>* out) const {
    out->clear();
    for (size_t i = 0; i < reads.size(); ++i) {
      if (writes[i]) out->push_back(reads[i]);
    }
  }

  /// Back to the default-constructed spec, keeping the buffers' capacity.
  void Clear() {
    reads.clear();
    writes.clear();
    class_index = 0;
  }
};

/// Draws transaction specs and think times per the workload parameters.
class WorkloadGenerator {
 public:
  /// `spec_rng` drives readset/writeset selection; `think_rng` drives the
  /// exponential think times. Separate streams keep the access pattern
  /// invariant under think-time parameter changes.
  WorkloadGenerator(const WorkloadParams& params, Rng spec_rng, Rng think_rng);

  const WorkloadParams& params() const { return params_; }

  /// Generates the next transaction spec.
  TxnSpec NextTransaction();

  /// Generates the next transaction spec into `*spec` and its write set
  /// into `*write_set` (unless null), reusing their buffers: both are
  /// reserved to the largest transaction the parameters allow, so recycled
  /// buffers (the engine's per-terminal transaction slots) allocate only on
  /// first use. Draws exactly what NextTransaction() draws.
  void NextTransaction(TxnSpec* spec, std::vector<ObjectId>* write_set);

  /// External think delay: exponential with mean ext_think_time (0 if the
  /// mean is 0).
  SimTime NextExternalThink();

  /// Internal (intra-transaction) think delay: exponential with mean
  /// int_think_time; 0 when the internal think path is disabled.
  SimTime NextInternalThink();

 private:
  WorkloadParams params_;
  Rng spec_rng_;
  Rng think_rng_;
  /// Largest readset any class can draw.
  int max_size_ = 0;
  /// Sampling scratch reused by every in-place NextTransaction call: the
  /// sampler's membership set, and the hot/cold strata of the x-y rule.
  std::vector<int64_t> chosen_;
  std::vector<bool> is_hot_;
  std::vector<ObjectId> hot_;
  std::vector<ObjectId> cold_;
};

}  // namespace ccsim

#endif  // CCSIM_WL_WORKLOAD_H_
