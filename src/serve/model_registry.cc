#include "serve/model_registry.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/pipeline.h"
#include "nn/artifact.h"

namespace targad {
namespace serve {

namespace fs = std::filesystem;

namespace {

bool IsArtifactPath(const std::string& path) {
  return fs::path(path).extension().string() == nn::kArtifactExtension;
}

bool IsModelExtension(const std::string& ext) {
  return ext == ".targad" || ext == ".model" || ext == nn::kArtifactExtension;
}

/// stat() with nanosecond mtime; false when the file cannot be statted.
bool StatSignature(const std::string& path, FileSignature* sig) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return false;
  sig->mtime_sec = static_cast<int64_t>(st.st_mtim.tv_sec);
  sig->mtime_nsec = static_cast<int64_t>(st.st_mtim.tv_nsec);
  sig->size = static_cast<uint64_t>(st.st_size);
  return true;
}

/// The model file of each stem in `dir`, keyed (and so ordered) by stem:
/// the stem's ".tgz1" when it has one, else its ".targad", else its
/// ".model". LoadDirectory and the RefreshIfChanged re-scan both use it.
Result<std::map<std::string, fs::path>> ScanModelDir(const std::string& dir) {
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (IsModelExtension(entry.path().extension().string())) {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::IOError("model registry: cannot scan ", dir, ": ",
                           ec.message());
  }
  // Within a stem "a.model" < "a.targad" < "a.tgz1", so the last one wins.
  std::sort(files.begin(), files.end());
  std::map<std::string, fs::path> models;
  for (fs::path& file : files) models[file.stem().string()] = std::move(file);
  return models;
}

/// True when `source` is the text model that `artifact`, a ".tgz1" in the
/// same directory with the same stem, takes over from.
bool SupersededBy(const std::string& source, const fs::path& artifact) {
  const fs::path text(source);
  return IsArtifactPath(artifact.string()) && !IsArtifactPath(source) &&
         text.parent_path() == artifact.parent_path() &&
         text.stem() == artifact.stem();
}

}  // namespace

Status ModelRegistry::LoadDirectory(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("model registry: not a directory: ", dir);
  }
  {
    MutexLock lock(&mu_);
    if (std::find(watched_dirs_.begin(), watched_dirs_.end(), dir) ==
        watched_dirs_.end()) {
      watched_dirs_.push_back(dir);
    }
  }
  // Registered in stem order, for reproducible version counters.
  TARGAD_ASSIGN_OR_RETURN(const auto models, ScanModelDir(dir));
  for (const auto& [name, path] : models) {
    TARGAD_RETURN_NOT_OK(PublishFile(name, path.string()));
  }
  return Status::OK();
}

Result<ModelRegistry::LoadedModel> ModelRegistry::LoadFromFile(
    const std::string& path, nn::Dtype serve_dtype, ServeMetrics* metrics) {
  const auto started = std::chrono::steady_clock::now();
  LoadedModel loaded;
  // Stat before reading: if the file is overwritten while we load it, the
  // next RefreshIfChanged sees a newer signature and reloads.
  loaded.stat_ok = StatSignature(path, &loaded.sig);

  if (IsArtifactPath(path)) {
    // Flat artifact: read + checksum + pointer fixup, no parse. The
    // artifact carries its own dtype; serve_dtype does not apply.
    TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer scorer,
                            core::FrozenScorer::LoadArtifact(path));
    loaded.scorer =
        std::make_shared<const core::FrozenScorer>(std::move(scorer));
    loaded.artifact = true;
  } else {
    // Text model: parse, freeze to the serve dtype, drop the pipeline. The
    // caller runs this outside the registry lock — freezing is CPU work,
    // and lookups must stay responsive while a large model is prepared.
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot open ", path);
    TARGAD_ASSIGN_OR_RETURN(core::TargAdPipeline pipeline,
                            core::TargAdPipeline::Load(in));
    TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer scorer,
                            pipeline.Freeze(serve_dtype));
    loaded.scorer =
        std::make_shared<const core::FrozenScorer>(std::move(scorer));
  }
  if (metrics != nullptr) metrics->RecordRegistryLoad(ElapsedUs(started));
  return loaded;
}

uint64_t ModelRegistry::InstallLocked(const std::string& name,
                                      LoadedModel loaded,
                                      const std::string& source,
                                      bool bump_version) {
  Entry& entry = models_[name];
  const bool was_candidate = entry.warm && entry.file_backed;
  entry.scorer = std::move(loaded.scorer);
  if (bump_version) entry.version += 1;
  entry.generation += 1;
  entry.source = source;
  entry.artifact = loaded.artifact;
  entry.sig = loaded.sig;
  // An unstattable source cannot be refreshed or reloaded after eviction,
  // so the entry is pinned warm like an in-memory publish.
  entry.file_backed = loaded.stat_ok;
  entry.warm = true;
  entry.last_used = ++use_clock_;
  failed_loads_.erase(name);
  if (entry.file_backed && !was_candidate) {
    warm_files_.push_back(&entry);
  } else if (!entry.file_backed && was_candidate) {
    ForgetWarmFileLocked(&entry);
  }
  EvictOverCapacityLocked(&entry);
  return entry.version;
}

void ModelRegistry::CountLookupLocked(Entry* entry) {
  entry->uses = CurrentUsesLocked(entry) + 1;
  entry->last_used = ++use_clock_;
  // Unbounded tiers evict nothing, so their counts need no aging.
  if (warm_capacity_ > 0 && ++period_lookups_ >= 8 * warm_capacity_) {
    period_lookups_ = 0;
    ++aging_period_;
  }
}

uint64_t ModelRegistry::CurrentUsesLocked(Entry* entry) {
  const uint64_t missed = aging_period_ - entry->uses_period;
  entry->uses = missed >= 64 ? 0 : entry->uses >> missed;
  entry->uses_period = aging_period_;
  return entry->uses;
}

void ModelRegistry::EvictOverCapacityLocked(const Entry* keep) {
  while (warm_capacity_ > 0 && warm_files_.size() > warm_capacity_) {
    // The cap is at least 1, so past it there is a candidate besides
    // `keep`. The scan visits only warm file-backed entries.
    Entry* victim = nullptr;
    for (Entry* entry : warm_files_) {
      if (entry == keep) continue;
      if (victim == nullptr) {
        victim = entry;
        continue;
      }
      const uint64_t uses = CurrentUsesLocked(entry);
      const uint64_t victim_uses = CurrentUsesLocked(victim);
      if (uses < victim_uses ||
          (uses == victim_uses && entry->last_used < victim->last_used)) {
        victim = entry;
      }
    }
    ForgetWarmFileLocked(victim);
    // Demotion drops only the registry's references: snapshots held by
    // in-flight batches keep the plan — and an artifact's load buffer —
    // alive until the last one completes. The count stays.
    victim->scorer.reset();
    victim->warm = false;
    if (metrics_ != nullptr) metrics_->RecordRegistryEviction();
  }
}

void ModelRegistry::ForgetWarmFileLocked(const Entry* entry) {
  auto it = std::find(warm_files_.begin(), warm_files_.end(), entry);
  if (it == warm_files_.end()) return;
  *it = warm_files_.back();
  warm_files_.pop_back();
}

Status ModelRegistry::PublishFile(const std::string& name,
                                  const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("model registry: empty model name");
  }
  nn::Dtype dtype;
  ServeMetrics* metrics;
  {
    MutexLock lock(&mu_);
    dtype = serve_dtype_;
    metrics = metrics_;
  }
  auto loaded = LoadFromFile(path, dtype, metrics);
  if (!loaded.ok()) {
    return Status(loaded.status().code(),
                  "model registry: loading " + path + ": " +
                      loaded.status().message());
  }
  MutexLock lock(&mu_);
  InstallLocked(name, std::move(loaded).ValueOrDie(), path,
                /*bump_version=*/true);
  return Status::OK();
}

uint64_t ModelRegistry::Publish(
    const std::string& name, std::shared_ptr<const core::FrozenScorer> scorer,
    const std::string& source) {
  LoadedModel loaded;
  loaded.scorer = std::move(scorer);  // No stat: pinned warm, not reloaded.
  MutexLock lock(&mu_);
  return InstallLocked(name, std::move(loaded), source, /*bump_version=*/true);
}

Result<size_t> ModelRegistry::RefreshIfChanged() {
  // Snapshot the poll set under the lock, then stat and reload without it:
  // loading an artifact must not stall concurrent Get/GetScorer calls.
  // Cold entries are skipped — promotion re-reads the file anyway.
  struct Polled {
    std::string name;
    std::string path;
    FileSignature sig;
  };
  std::vector<Polled> polled;
  std::vector<std::string> dirs;
  ServeMetrics* metrics;
  {
    MutexLock lock(&mu_);
    for (const auto& [name, entry] : models_) {
      if (entry.file_backed && entry.warm) {
        polled.push_back({name, entry.source, entry.sig});
      }
    }
    dirs = watched_dirs_;
    metrics = metrics_;
  }

  // A file that fails to load keeps its old snapshot, and the pass goes on
  // past it: one damaged file must not hold back the models after it. The
  // failed file's signature is remembered, so later polls do not re-read
  // the same bytes (nor report the same error) until it changes. The first
  // error is returned at the end, which drops the count, so each republish
  // is also recorded in the metrics.
  size_t republished = 0;
  Status first_error;
  const auto publish = [&](const std::string& name, const std::string& path,
                           const FileSignature& sig) {
    {
      MutexLock lock(&mu_);
      const auto failed = failed_loads_.find(name);
      if (failed != failed_loads_.end() && failed->second.path == path &&
          failed->second.sig == sig) {
        return;
      }
    }
    Status status = PublishFile(name, path);
    if (status.ok()) {
      ++republished;
      if (metrics != nullptr) metrics->RecordRegistryRefresh();
      return;
    }
    {
      MutexLock lock(&mu_);
      failed_loads_[name] = FailedLoad{path, sig};
    }
    if (first_error.ok()) first_error = std::move(status);
  };
  for (const Polled& model : polled) {
    FileSignature now;
    // A vanished or unreadable artifact keeps its last good snapshot. The
    // signature compares nanosecond mtime AND size, so a same-second
    // rewrite (coarse filesystem timestamps) is still caught when the
    // content size moved.
    if (!StatSignature(model.path, &now) || now == model.sig) continue;
    publish(model.name, model.path, now);
  }

  // The start-up scan again: a new stem joins the registry, and a ".tgz1"
  // dropped beside the text model a stem was loaded from takes over, as a
  // fresh LoadDirectory would have it. The signature poll above covers
  // every other registered model.
  for (const std::string& dir : dirs) {
    auto models = ScanModelDir(dir);
    if (!models.ok()) continue;  // A vanished directory is not an error here.
    for (const auto& [name, path] : *models) {
      bool stale = false;
      {
        MutexLock lock(&mu_);
        const Entry* entry = FindLocked(name);
        stale = entry == nullptr || SupersededBy(entry->source, path);
      }
      FileSignature now;
      // A file that vanished since the scan is skipped, as above.
      if (!stale || !StatSignature(path.string(), &now)) continue;
      publish(name, path.string(), now);
    }
  }
  if (metrics != nullptr) metrics->RecordRegistryPoll(!first_error.ok());
  if (!first_error.ok()) return first_error;
  return republished;
}

ModelRegistry::Entry* ModelRegistry::FindLocked(const std::string& name) {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : &it->second;
}

const ModelRegistry::Entry* ModelRegistry::FindLocked(
    const std::string& name) const {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : &it->second;
}

Result<std::shared_ptr<const core::RowScorer>> ModelRegistry::GetScorer(
    const std::string& name) {
  std::string path;
  nn::Dtype dtype;
  ServeMetrics* metrics;
  {
    MutexLock lock(&mu_);
    Entry* entry = FindLocked(name);
    if (entry == nullptr) {
      return Status::NotFound("model registry: no model named '", name, "'");
    }
    // Cold entries are always file-backed; pinned ones are not counted.
    if (entry->file_backed) CountLookupLocked(entry);
    if (entry->warm) {
      if (metrics_ != nullptr) metrics_->RecordRegistryHit();
      return std::shared_ptr<const core::RowScorer>(entry->scorer);
    }
    if (metrics_ != nullptr) metrics_->RecordRegistryMiss();
    path = entry->source;
    dtype = serve_dtype_;
    metrics = metrics_;
  }
  // Cold: promote. Two threads racing on the same cold model both load;
  // both installs are consistent (the second one wins and bumps the
  // generation again) and each caller scores with the snapshot it loaded —
  // the duplicate work is the price of never holding mu_ across disk I/O.
  // A failed load is the server's condition, not the caller's: the model
  // is registered but cannot be served until its file is fixed.
  auto loaded = LoadFromFile(path, dtype, metrics);
  if (!loaded.ok()) {
    return Status::FailedPrecondition("model registry: promoting '", name,
                                      "' from ", path, ": ",
                                      loaded.status().message());
  }
  std::shared_ptr<const core::RowScorer> scorer = loaded->scorer;
  MutexLock lock(&mu_);
  // A concurrent Remove wins: hand the caller its snapshot, but do not
  // resurrect the entry.
  if (models_.count(name) > 0) {
    InstallLocked(name, std::move(loaded).ValueOrDie(), path,
                  /*bump_version=*/false);
  }
  return scorer;
}

Result<ModelInfo> ModelRegistry::Info(const std::string& name) const {
  MutexLock lock(&mu_);
  const Entry* entry = FindLocked(name);
  if (entry == nullptr) {
    return Status::NotFound("model registry: no model named '", name, "'");
  }
  return ModelInfo{name,           entry->version, entry->source,
                   entry->generation, entry->warm, entry->artifact};
}

std::vector<ModelInfo> ModelRegistry::List() const {
  MutexLock lock(&mu_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) {
    out.push_back(ModelInfo{name, entry.version, entry.source,
                            entry.generation, entry.warm, entry.artifact});
  }
  return out;
}

std::vector<std::string> ModelRegistry::ListNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& kv : models_) out.push_back(kv.first);
  return out;
}

Status ModelRegistry::Remove(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("model registry: no model named '", name, "'");
  }
  if (it->second.warm && it->second.file_backed) {
    ForgetWarmFileLocked(&it->second);
  }
  models_.erase(it);
  failed_loads_.erase(name);
  return Status::OK();
}

size_t ModelRegistry::size() const {
  MutexLock lock(&mu_);
  return models_.size();
}

size_t ModelRegistry::warm_size() const {
  MutexLock lock(&mu_);
  return warm_files_.size();
}

}  // namespace serve
}  // namespace targad
