// Crash-safe sweep journal (docs/EXECUTION.md, "Crash-safe resume").
//
// A full paper reproduction is hours of sweep work; a crash — or a kill —
// hours in must not throw away every completed point. The journal makes
// sweeps resumable: each completed point is appended to a JSON-lines file
// (one flushed line per point) keyed by the point's configuration hash and
// derived seed, together with its full MetricsReport and replay digest. On
// restart with the same CCSIM_JOURNAL path, RunPointsChecked looks every
// point up before running it and reuses journaled results verbatim, so an
// interrupted-and-resumed sweep produces byte-identical tables and CSVs to
// an uninterrupted run (the resume test proves it).
//
// Keying: a point is identified by (HashPointKey(config, lengths), seed).
// The hash folds every EngineConfig and RunLengths field of the config
// table (core/config_fields.h) except the seed, so changing any parameter —
// or the run lengths — invalidates reuse for that point while leaving
// unrelated entries usable. The per-point seed
// participates separately because sweeps derive it from the master seed and
// the point's position (core/experiment.h).
//
// Crash tolerance: a SIGKILL mid-append can leave a truncated final line;
// loading skips unparsable lines (counting them) instead of failing, and
// the affected point simply re-runs — determinism makes the re-run
// bit-identical to what the lost line would have recorded.
#ifndef CCSIM_CORE_JOURNAL_H_
#define CCSIM_CORE_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/experiment.h"
#include "core/metrics.h"
#include "util/status.h"

namespace ccsim {

/// FNV-1a hash over the folding rows of the config table, in table order
/// (the seed keys separately). Stable across processes on the same build;
/// a code version that adds a folding row changes every key.
uint64_t HashPointKey(const EngineConfig& config, const RunLengths& lengths);

/// The journal: an in-memory index over a JSON-lines file, with flushed
/// appends. Thread-safe; Find() pointers stay valid for the journal's life.
class SweepJournal {
 public:
  /// Opens the CCSIM_JOURNAL path, or returns nullptr when the variable is
  /// unset (journaling off). Aborts on an unloadable journal file.
  static std::unique_ptr<SweepJournal> FromEnv();

  /// Loads `path` if it exists (tolerating a truncated trailing line) and
  /// opens it for appending. Aborts if the file cannot be opened for append.
  /// Fsyncs the containing directory so the file's existence is durable — a
  /// crash right after creation must not leave a resumed run looking at an
  /// unlinked journal.
  explicit SweepJournal(const std::string& path);

  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The journaled report for (key, seed), or nullptr if not present.
  const MetricsReport* Find(uint64_t key, uint64_t seed) const;

  /// Appends one completed point (one flushed and fsynced JSON line) and
  /// indexes it. Returns kDataLoss if the write did not reach the device.
  /// Fault-injection sites (docs/FAULTS.md): journal.append fails the call
  /// before writing, journal.corrupt lands a torn line (as a mid-append
  /// crash would), journal.kill raises SIGKILL right after the line is
  /// durable — the deterministic trigger for the crash/resume harnesses.
  Status Append(uint64_t key, uint64_t seed, const MetricsReport& report);

  const std::string& path() const { return path_; }

  /// Points loaded from the file plus points appended this process.
  size_t entry_count() const;

  /// Unparsable lines skipped at load time (e.g. a line truncated by a
  /// mid-append kill). The points they covered re-run.
  size_t skipped_lines() const { return skipped_lines_; }

 private:
  std::string path_;
  size_t skipped_lines_ = 0;
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, uint64_t>, MetricsReport> entries_;
  std::ofstream out_;
  int sync_fd_ = -1;  ///< Second fd on the file, for fsync after each line.
};

}  // namespace ccsim

#endif  // CCSIM_CORE_JOURNAL_H_
