#include "core/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <ranges>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "audit/digest.h"
#include "core/config_fields.h"
#include "core/report.h"
#include "inject/fault.h"
#include "util/env.h"
#include "util/json.h"
#include "util/str.h"

namespace ccsim {
namespace {

// ---------------------------------------------------------------------------
// Point-key hashing: every folding row of the config table
// (core/config_fields.h), in table order.

/// Folds config field values into `digest`, in order.
template <typename T, typename... Rest>
void Fold(FnvDigest* digest, const T& value, const Rest&... rest) {
  if constexpr (std::is_same_v<T, double>) {
    digest->Fold(std::bit_cast<uint64_t>(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    digest->Fold(value.size());
    for (char c : value) digest->Fold(static_cast<unsigned char>(c));
  } else if constexpr (std::is_same_v<T, std::optional<RestartDelayMode>>) {
    Fold(digest, value.has_value(), value.value_or(RestartDelayMode{}));
  } else if constexpr (std::is_same_v<T, FaultWindow>) {
    Fold(digest, value.kind, value.start, value.end);
  } else if constexpr (std::is_same_v<T, TxnClass>) {
    Fold(digest, value.name, value.fraction, value.tran_size, value.min_size,
         value.max_size, value.write_prob);
  } else if constexpr (std::ranges::range<T>) {
    digest->Fold(value.size());
    for (const auto& element : value) Fold(digest, element);
  } else {  // Integers, bools and enums, sign-extended.
    digest->Fold(static_cast<uint64_t>(static_cast<int64_t>(value)));
  }
  if constexpr (sizeof...(rest) > 0) Fold(digest, rest...);
}

// ---------------------------------------------------------------------------
// Report (de)serialization, driven by the field tables (core/report.h).

/// Appends `"key":`, after a comma unless it opens an object.
void AppendKey(std::string* out, std::string_view key) {
  if (out->back() != '{') out->push_back(',');
  json::AppendString(out, key);
  out->push_back(':');
}

/// Appends the stored fields of `s` as one JSON object; a run of fields
/// with the same non-empty `object` nests in that object.
template <typename S>
void WriteFields(std::string* out, const S& s,
                 std::span<const FieldSpec<S>> fields) {
  out->push_back('{');
  std::string_view object;
  for (const FieldSpec<S>& field : fields) {
    if (field.key == nullptr) continue;
    if (object != field.object) {
      if (!object.empty()) out->push_back('}');
      object = field.object;
      if (!object.empty()) {
        AppendKey(out, object);
        out->push_back('{');
      }
    }
    AppendKey(out, field.key);
    std::visit(
        [out](auto value) {
          using P = decltype(value);  // A pointer, except for derived views.
          if constexpr (std::is_same_v<P, std::string*>) {
            json::AppendString(out, *value);
          } else if constexpr (std::is_same_v<P, int*> ||
                               std::is_same_v<P, int64_t*>) {
            *out += std::to_string(*value);
          } else if constexpr (std::is_same_v<P, uint64_t*>) {
            json::AppendU64(out, *value);
          } else if constexpr (std::is_same_v<P, double*>) {
            json::AppendDouble(out, *value);
          } else if constexpr (std::is_same_v<P, bool*>) {
            *out += *value ? "true" : "false";
          } else if constexpr (std::is_same_v<P, IntervalEstimate*>) {
            WriteFields(out, *value, IntervalFields());
          } else if constexpr (std::is_same_v<P, std::vector<ClassMetrics>*>) {
            out->push_back('[');
            for (const ClassMetrics& cls : *value) {
              if (out->back() != '[') out->push_back(',');
              WriteFields(out, cls, ClassFields());
            }
            out->push_back(']');
          }
        },
        field.Get(s));
  }
  if (!object.empty()) out->push_back('}');
  out->push_back('}');
}

/// Inverse of WriteFields. Fails on a missing `in` or any missing or
/// mistyped member, except that a whole `may_be_absent` object may be
/// missing (journals written before it existed).
template <typename S>
bool ReadFields(const json::Value* in, S* s,
                std::span<const FieldSpec<S>> fields) {
  if (in == nullptr || in->kind != json::Value::Kind::kObject) return false;
  for (const FieldSpec<S>& field : fields) {
    if (field.key == nullptr) continue;
    const json::Value* object = *field.object ? in->Find(field.object) : in;
    if (object == nullptr && field.may_be_absent) continue;
    const json::Value* member = object ? object->Find(field.key) : nullptr;
    const bool loaded = std::visit(
        [member](auto value) {
          using T = std::remove_pointer_t<decltype(value)>;
          if constexpr (std::is_same_v<T, IntervalEstimate>) {
            return ReadFields(member, value, IntervalFields());
          } else if constexpr (std::is_same_v<T, std::vector<ClassMetrics>>) {
            bool ok = member && member->kind == json::Value::Kind::kArray;
            for (size_t i = 0; ok && i < member->array.size(); ++i) {
              ok = ReadFields(&member->array[i], &value->emplace_back(),
                              ClassFields());
            }
            return ok;
          } else if constexpr (std::is_pointer_v<decltype(value)>) {
            return json::Read(member, value);
          } else {
            return false;  // A derived view has no key.
          }
        },
        field.at(*s));
    if (!loaded) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Durability helpers (docs/EXECUTION.md, "Crash-safe resume"). A flushed
// line is kill-safe against the *process* dying; surviving the *machine*
// dying needs fsync of the file data and — for a freshly created file — of
// the directory entry that names it.

/// Best-effort fsync of `path`'s containing directory, so the journal
/// file's creation is durable before any result lands in it. Unopenable or
/// unsyncable directories (permissions, exotic filesystems) are ignored:
/// the write path's own health checks still govern the append itself.
void FsyncParentDir(const std::string& path) {
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// True when an fsync errno means "this sink does not support fsync" (a
/// pipe or character device — e.g. the /dev/full write-failure tests)
/// rather than "your data did not reach the device".
bool FsyncUnsupported(int error) {
  return error == EINVAL || error == ENOTSUP || error == EROFS;
}

}  // namespace

uint64_t HashPointKey(const EngineConfig& config, const RunLengths& lengths) {
  FnvDigest digest;
  for (const ConfigField& field : ConfigFields()) {
    if (!field.folds) continue;
    std::visit([&digest](const auto* value) { Fold(&digest, *value); },
               field.Get(config, lengths));
  }
  return digest.value();
}

std::unique_ptr<SweepJournal> SweepJournal::FromEnv() {
  auto path = GetEnv("CCSIM_JOURNAL");
  if (!path.has_value()) return nullptr;
  return std::make_unique<SweepJournal>(*path);
}

SweepJournal::SweepJournal(const std::string& path) : path_(path) {
  // Only regular files are loadable history; a pipe or device (e.g. the
  // /dev/full write-failure tests) is append-only from our point of view.
  struct stat file_info;
  bool loadable = ::stat(path_.c_str(), &file_info) == 0 &&
                  S_ISREG(file_info.st_mode);
  std::ifstream in;
  if (loadable) in.open(path_);
  if (loadable && in.good()) {
    std::string line;
    while (std::getline(in, line)) {
      if (StripWhitespace(line).empty()) continue;
      json::Value root;
      uint64_t key = 0;
      uint64_t seed = 0;
      MetricsReport report;
      if (!(json::Parse(line, &root) && json::Read(root.Find("key"), &key) &&
            json::Read(root.Find("seed"), &seed) &&
            ReadFields(root.Find("report"), &report, ReportFields()))) {
        ++skipped_lines_;
        continue;
      }
      entries_[{key, seed}] = std::move(report);
    }
  }
  if (skipped_lines_ > 0) {
    std::fprintf(stderr,
                 "journal %s: skipped %zu unparsable line(s) (likely a "
                 "truncated append from an interrupted run); the affected "
                 "points will re-run\n",
                 path_.c_str(), skipped_lines_);
  }
  out_.open(path_, std::ios::app);
  CCSIM_CHECK(out_.good()) << "cannot open journal " << path_
                           << " for appending (CCSIM_JOURNAL)";
  // A second fd on the same file gives Append an fsync handle (fsync
  // synchronizes the file, not one fd's writes); -1 just disables the
  // fsync, e.g. for write-only special sinks.
  sync_fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  FsyncParentDir(path_);
}

SweepJournal::~SweepJournal() {
  if (sync_fd_ >= 0) ::close(sync_fd_);
}

const MetricsReport* SweepJournal::Find(uint64_t key, uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find({key, seed});
  return it == entries_.end() ? nullptr : &it->second;
}

Status SweepJournal::Append(uint64_t key, uint64_t seed,
                            const MetricsReport& report) {
  std::string line = "{";
  AppendKey(&line, "key");
  json::AppendU64(&line, key);
  AppendKey(&line, "seed");
  json::AppendU64(&line, seed);
  AppendKey(&line, "report");
  WriteFields(&line, report, ReportFields());
  line += "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  // Injected append failure: the record never reaches the stream, exactly
  // as if the file had been closed under us.
  if (FaultPoint(FaultSite::kJournalAppend)) {
    return Status::DataLoss("injected journal append failure (" + path_ + ")");
  }
  // Injected corruption: land a torn prefix with no terminator — the disk
  // state a mid-append crash leaves — while this process sails on believing
  // the append worked. The record is deliberately not indexed (a crashed
  // process would not have it either); reload skips the torn line and the
  // point re-runs.
  if (FaultPoint(FaultSite::kJournalCorrupt)) {
    out_ << line.substr(0, line.size() / 2);
    out_.flush();
    return Status::Ok();
  }
  out_ << line;
  out_.flush();  // One flushed line per point: kill-safe from here on.
  if (!out_.good()) {
    return Status::DataLoss("journal append to " + path_ +
                            " failed (disk full or file closed)");
  }
  // Flush covers a process kill; fsync covers the machine. Sinks that
  // cannot fsync (pipes, character devices) are excused — the stream
  // health check above already vouched for the write itself.
  if (sync_fd_ >= 0 && ::fsync(sync_fd_) != 0 && !FsyncUnsupported(errno)) {
    return Status::DataLoss("journal fsync of " + path_ + " failed: " +
                            std::strerror(errno));
  }
  entries_[{key, seed}] = report;
  // Injected SIGKILL: the line above is durable, so dying here is the
  // deterministic "crash after journal line N" the resume harnesses drive
  // (journal.kill@hit:N). SIGKILL, not exit: no destructors, no flushing —
  // the real thing.
  if (FaultPoint(FaultSite::kJournalKill)) {
    std::raise(SIGKILL);
  }
  return Status::Ok();
}

size_t SweepJournal::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ccsim
