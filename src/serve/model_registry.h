// ModelRegistry: named, versioned model artifacts behind atomic hot-swap,
// organized as a two-tier cache for fleet-scale serving (hundreds of
// models behind one process).
//
//   warm tier  entries whose snapshot — one core::FrozenScorer — is
//              resident: frozen from a text model as it loads, or built by
//              pointer fixup over a ".tgz1" artifact read into memory.
//              GetScorer hands the snapshot out under the mutex; scorers
//              keep a consistent model for a whole batch while a
//              replacement is published concurrently.
//   cold tier  file-backed entries the registry knows about — name, path,
//              stat signature, lookup count — whose snapshot has been
//              dropped. The first lookup promotes the entry back to warm
//              (a disk load; for ".tgz1" artifacts a read + checksum +
//              fixup, not a parse).
//
// set_warm_capacity bounds how many file-backed snapshots stay resident.
// Eviction is least-frequently-used with aging: every lookup of a
// file-backed entry, hit or miss, adds one to its count; all counts halve
// once every 8 x warm-capacity lookups; past the cap, the warm file-backed
// entry with the lowest count is demoted to cold, ties going to the entry
// looked up or installed longest ago. A count survives demotion, so a hot
// model that was evicted comes back with its history, and the entry being
// installed is never its own victim, so every load lands warm. Frequency,
// not recency, because BatchScorer fetches a batch's models in name order:
// a batch that routes to more models than the cap holds is a sorted scan
// longer than the cache, which evicts every model under LRU before its
// next batch reaches it. In-memory publishes have no file to reload from,
// so they are pinned warm, never counted, and never count against the cap.
// Eviction only drops the registry's reference — in-flight scores hold
// snapshot shared_ptrs, which pin the plan (and an artifact's load buffer)
// until the last batch completes. Every (re)load into the warm tier bumps
// the entry's generation counter; `version` keeps its publish-count
// meaning.
//
// One serving type: a text model (".targad"/".model") is parsed, frozen to
// the serve dtype (set_serve_dtype; kFloat64, the default, scores
// bit-identically to TargAdPipeline::Score) and the pipeline dropped, all
// at load time. ".tgz1" artifacts carry their own dtype and are served
// as-is. A model that fails to freeze fails to load, like a corrupt file.
//
// Redeploys: RefreshIfChanged re-stats the source file of every warm
// file-backed model and republishes artifacts whose stat signature —
// nanosecond mtime AND size — changed, so a same-second rewrite is still
// caught. Cold entries are skipped: they are re-read from disk at
// promotion time anyway. It also re-scans LoadDirectory directories with
// the start-up scan, so new stems join and a ".tgz1" dropped beside a
// served text model takes over from it. A file that fails to load is
// remembered by its signature and not read again until it changes.
//
// Registry metrics (hits/misses/evictions, refreshes, refresh polls and
// their errors, and a load-latency histogram) are recorded into an
// optional ServeMetrics sink (set_metrics) and surface as the reg_* keys
// of the TCP STATS line and the serve exit report.

#ifndef TARGAD_SERVE_MODEL_REGISTRY_H_
#define TARGAD_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/frozen_scorer.h"
#include "core/scorer.h"
#include "nn/frozen.h"
#include "serve/metrics.h"

namespace targad {
namespace serve {

/// stat()-derived identity of a file's contents: nanosecond mtime plus
/// size. Comparing both catches same-second rewrites that coarse
/// filesystem timestamps would hide (as long as the size moved; a
/// same-size same-timestamp rewrite is indistinguishable by polling).
struct FileSignature {
  int64_t mtime_sec = 0;
  int64_t mtime_nsec = 0;
  uint64_t size = 0;

  friend bool operator==(const FileSignature& a, const FileSignature& b) {
    return a.mtime_sec == b.mtime_sec && a.mtime_nsec == b.mtime_nsec &&
           a.size == b.size;
  }
  friend bool operator!=(const FileSignature& a, const FileSignature& b) {
    return !(a == b);
  }
};

/// Metadata of one registered model.
struct ModelInfo {
  std::string name;
  /// Publish counter, starting at 1; each hot-swap increments it.
  uint64_t version = 0;
  /// Where the artifact came from ("<path>" or "(in-memory)").
  std::string source;
  /// Warm-load counter: bumped every time a snapshot is (re)loaded into
  /// the warm tier, including cold-tier promotions that leave `version`
  /// untouched.
  uint64_t generation = 0;
  /// True when the snapshot is resident (warm tier).
  bool warm = false;
  /// True when the source is a flat ".tgz1" artifact (loaded by read +
  /// pointer fixup, not frozen from a text model).
  bool artifact = false;
};

/// Thread-safe name -> snapshot map with warm/cold tiering.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Dtype every text model is frozen to as it loads; kFloat64 (the
  /// default) scores bit-identically to the pipeline. ".tgz1" artifacts
  /// keep their own dtype. Set before publishing: already-registered models
  /// keep the scorer they were loaded with.
  void set_serve_dtype(nn::Dtype dtype) TARGAD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    serve_dtype_ = dtype;
  }
  nn::Dtype serve_dtype() const TARGAD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return serve_dtype_;
  }

  /// Warm-tier capacity: at most this many FILE-BACKED snapshots stay
  /// resident; loading past the cap demotes the least-frequently-used one
  /// (header comment) to the cold tier. 0 (the default) means unbounded.
  /// In-memory publishes are pinned warm and do not count. Lowering the
  /// cap takes effect on the next load or publish, not retroactively.
  void set_warm_capacity(size_t capacity) TARGAD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    warm_capacity_ = capacity;
  }

  /// Optional sink for hit/miss/eviction counters and the load-latency
  /// histogram. Not owned; must outlive the registry. Set before serving
  /// starts.
  void set_metrics(ServeMetrics* metrics) TARGAD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    metrics_ = metrics;
  }

  /// Loads one model per file stem in `dir` (model name = stem) and
  /// remembers `dir` for RefreshIfChanged re-scans. A stem's "*.tgz1" (flat
  /// frozen artifact) wins over its "*.targad", which wins over its
  /// "*.model" (text pipelines); the files that lose are not read. Fails on
  /// an unreadable directory or an unloadable artifact; models registered
  /// before the failure stay registered.
  [[nodiscard]] Status LoadDirectory(const std::string& dir);

  /// Loads one artifact file (text pipeline or ".tgz1" by extension) and
  /// publishes it under `name`. A text pipeline is frozen to the serve
  /// dtype on the way in.
  [[nodiscard]] Status PublishFile(const std::string& name, const std::string& path);

  /// Publishes an in-memory frozen scorer (atomic hot-swap if `name`
  /// exists). The entry is pinned warm — there is no file to reload it
  /// from. Returns the new version number.
  uint64_t Publish(const std::string& name,
                   std::shared_ptr<const core::FrozenScorer> scorer,
                   const std::string& source = "(in-memory)");

  /// Re-stats every warm file-backed model and re-scans every
  /// LoadDirectory directory. Artifacts whose stat signature changed, new
  /// stems in a watched directory, and a ".tgz1" that now sits beside the
  /// text model a stem was loaded from in that directory are (re)loaded
  /// and hot-swapped; an entry published from anywhere else is never
  /// replaced by the scan. Vanished files keep their last good snapshot
  /// registered, and so do files that fail to load, which do not stop the
  /// pass. A file that failed to load is not read again until its stat
  /// signature changes (or the name loads from elsewhere or is removed).
  /// Returns the number of models (re)published, or the first load error
  /// once the pass is done; the metrics sink counts every republish either
  /// way (MetricsSnapshot::registry_refreshes), and the pass itself and
  /// whether it failed (registry_refresh_polls, registry_refresh_errors).
  [[nodiscard]] Result<size_t> RefreshIfChanged();

  /// Serving snapshot for `name` (always a core::FrozenScorer), or
  /// NotFound when no such model is registered. Every lookup of a
  /// file-backed entry adds to its eviction count. A warm entry is handed
  /// out under the lock; a cold entry is promoted first — the disk load
  /// runs outside the lock, so concurrent lookups of warm models never
  /// stall behind it. A promotion that cannot load the file is
  /// FailedPrecondition carrying the load error: the model is registered
  /// but unavailable, which is not the caller's fault. The snapshot is
  /// immutable and remains valid after any subsequent Publish or eviction
  /// of the name.
  [[nodiscard]] Result<std::shared_ptr<const core::RowScorer>> GetScorer(
      const std::string& name);

  /// Metadata for `name`, or NotFound.
  [[nodiscard]] Result<ModelInfo> Info(const std::string& name) const;

  /// Registered models (both tiers), sorted by name.
  std::vector<ModelInfo> List() const;

  /// Registered model names (both tiers), sorted — the BatchScorer
  /// unknown-model error's "available:" list.
  std::vector<std::string> ListNames() const;

  /// Removes `name`, and forgets a failed refresh load under it;
  /// outstanding snapshots stay valid. NotFound if absent.
  [[nodiscard]] Status Remove(const std::string& name);

  size_t size() const TARGAD_EXCLUDES(mu_);

  /// Resident file-backed snapshots (warm tier, excluding pinned in-memory
  /// entries). Exposed for tests and the serve exit report.
  size_t warm_size() const TARGAD_EXCLUDES(mu_);

 private:
  struct Entry {
    /// The serving snapshot; null while the entry is cold.
    std::shared_ptr<const core::FrozenScorer> scorer;
    uint64_t version = 0;
    uint64_t generation = 0;
    std::string source;
    bool file_backed = false;
    bool artifact = false;  ///< Source is a flat ".tgz1" file.
    bool warm = false;      ///< Snapshot resident. In-memory entries: always.
    /// Source-file stat signature at load time; file-backed entries only.
    FileSignature sig{};
    /// Lookups, halved per aging period; current as of `uses_period`.
    /// Kept across demotion. Use CurrentUsesLocked to read it.
    uint64_t uses = 0;
    uint64_t uses_period = 0;
    /// use_clock_ at the entry's last lookup or install: the eviction
    /// tie-break.
    uint64_t last_used = 0;
  };

  /// The file whose last RefreshIfChanged load under a name failed.
  struct FailedLoad {
    std::string path;
    FileSignature sig{};
  };

  /// What one disk load produced; installed under the lock afterwards.
  struct LoadedModel {
    std::shared_ptr<const core::FrozenScorer> scorer;
    FileSignature sig{};
    bool stat_ok = false;  ///< False -> entry pinned warm (not refreshable).
    bool artifact = false;
  };

  /// Reads `path`: a ".tgz1" artifact load, or a text parse frozen to
  /// `serve_dtype`, by extension. Runs without mu_; records the load
  /// latency into `metrics` when non-null.
  [[nodiscard]] static Result<LoadedModel> LoadFromFile(
      const std::string& path, nn::Dtype serve_dtype, ServeMetrics* metrics);

  /// Installs a loaded snapshot as the warm entry for `name`, bumping
  /// generation (and version when `bump_version`) and evicting over
  /// capacity — never the installed entry itself. Returns the entry's
  /// version.
  uint64_t InstallLocked(const std::string& name, LoadedModel loaded,
                         const std::string& source, bool bump_version)
      TARGAD_REQUIRES(mu_);

  /// Counts one lookup of a file-backed entry and advances the aging
  /// clock.
  void CountLookupLocked(Entry* entry) TARGAD_REQUIRES(mu_);

  /// `entry->uses` after the halvings of the aging periods it missed,
  /// applied lazily here so aging costs O(1) per lookup.
  uint64_t CurrentUsesLocked(Entry* entry) TARGAD_REQUIRES(mu_);

  /// Demotes the lowest-count warm file-backed entries other than `keep`
  /// while the warm tier exceeds warm_capacity_.
  void EvictOverCapacityLocked(const Entry* keep) TARGAD_REQUIRES(mu_);

  /// Drops `entry` from warm_files_.
  void ForgetWarmFileLocked(const Entry* entry) TARGAD_REQUIRES(mu_);

  /// Shared lookup behind GetScorer/Info/RefreshIfChanged; nullptr when
  /// `name` is not registered. The pointer is only valid while mu_ stays
  /// held.
  Entry* FindLocked(const std::string& name) TARGAD_REQUIRES(mu_);
  const Entry* FindLocked(const std::string& name) const TARGAD_REQUIRES(mu_);

  mutable RankedMutex mu_{LockRank::kModelRegistry};
  std::map<std::string, Entry> models_ TARGAD_GUARDED_BY(mu_);
  /// The warm file-backed entries, unordered: the eviction candidates.
  /// std::map nodes are stable, so these stay valid until Remove.
  std::vector<Entry*> warm_files_ TARGAD_GUARDED_BY(mu_);
  /// Lookups and installs so far; stamps Entry::last_used.
  uint64_t use_clock_ TARGAD_GUARDED_BY(mu_) = 0;
  /// Aging periods elapsed, and lookups counted in the current one.
  uint64_t aging_period_ TARGAD_GUARDED_BY(mu_) = 0;
  uint64_t period_lookups_ TARGAD_GUARDED_BY(mu_) = 0;
  std::vector<std::string> watched_dirs_ TARGAD_GUARDED_BY(mu_);
  /// By model name; RefreshIfChanged skips these until the file changes.
  /// An install or Remove of the name drops its record.
  std::map<std::string, FailedLoad> failed_loads_ TARGAD_GUARDED_BY(mu_);
  nn::Dtype serve_dtype_ TARGAD_GUARDED_BY(mu_) = nn::Dtype::kFloat64;
  size_t warm_capacity_ TARGAD_GUARDED_BY(mu_) = 0;
  ServeMetrics* metrics_ TARGAD_GUARDED_BY(mu_) = nullptr;
};

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_MODEL_REGISTRY_H_
