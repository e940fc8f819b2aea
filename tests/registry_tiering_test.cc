// Warm/cold tiering of the ModelRegistry: least-frequently-used eviction
// under a warm capacity, cold-tier promotion on lookup, generation-vs-version
// counters, in-flight snapshot pinning across eviction, in-place rewrites of
// a live artifact, and the registry metrics those transitions record. The flat-artifact format itself is covered by
// artifact_test; here artifacts are just the fastest thing to evict and
// promote.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"

namespace targad {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("targad_tiering_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static int counter_;
  fs::path path_;
};

int TempDir::counter_ = 0;

data::RawTable MakeTrainingTable(uint64_t seed) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"x", "y", "label"};
  for (size_t i = 0; i < 300; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(0.0, 1.0)),
                          std::to_string(rng.Normal(0.0, 1.0)), ""});
  }
  for (size_t i = 0; i < 20; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(5.0, 0.3)),
                          std::to_string(rng.Normal(5.0, 0.3)), "attack"});
  }
  return table;
}

core::TargAdPipeline TrainPipeline(uint64_t seed) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 5;
  config.model.epochs = 5;
  return core::TargAdPipeline::Train(MakeTrainingTable(seed), config)
      .ValueOrDie();
}

// Writes a text pipeline artifact trained from `seed`.
void WriteTextModel(const fs::path& path, uint64_t seed) {
  auto pipeline = TrainPipeline(seed);
  std::ofstream out(path);
  TARGAD_CHECK_OK(pipeline.Save(out));
}

// Writes a flat ".tgz1" artifact trained from `seed`.
void WriteFlatArtifact(const fs::path& path, uint64_t seed) {
  auto pipeline = TrainPipeline(seed);
  auto frozen = pipeline.Freeze(nn::Dtype::kFloat32).ValueOrDie();
  TARGAD_CHECK_OK(frozen.SaveArtifact(path.string()));
}

data::RawTable OneRow() {
  data::RawTable row;
  row.column_names = {"x", "y"};
  row.rows.push_back({"0.5", "0.5"});
  return row;
}

TEST(RegistryTieringTest, EvictsLeastUsedPastWarmCapacity) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);
  WriteFlatArtifact(dir.path() / "c.tgz1", 3);

  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  EXPECT_EQ(registry.warm_size(), 2u);

  // Loading c pushes the registry past capacity. Neither a nor b has been
  // looked up, so the tie goes to a, installed longest ago: it is demoted
  // to the cold tier. Nothing is forgotten: all three names stay
  // registered.
  ASSERT_TRUE(registry.PublishFile("c", (dir.path() / "c.tgz1").string()).ok());
  EXPECT_EQ(registry.warm_size(), 2u);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.Info("a")->warm);
  EXPECT_TRUE(registry.Info("b")->warm);
  EXPECT_TRUE(registry.Info("c")->warm);
}

TEST(RegistryTieringTest, GetScorerCountChangesEvictionVictim) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);
  WriteFlatArtifact(dir.path() / "c.tgz1", 3);

  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  // Serving a counts one lookup; b, never looked up, becomes the victim.
  ASSERT_TRUE(registry.GetScorer("a").ok());
  ASSERT_TRUE(registry.PublishFile("c", (dir.path() / "c.tgz1").string()).ok());
  EXPECT_TRUE(registry.Info("a")->warm);
  EXPECT_FALSE(registry.Info("b")->warm);
  EXPECT_TRUE(registry.Info("c")->warm);
}

TEST(RegistryTieringTest, ColdPromotionBumpsGenerationNotVersion) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);

  ModelRegistry registry;
  registry.set_warm_capacity(1);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  ASSERT_FALSE(registry.Info("a")->warm);
  EXPECT_EQ(registry.Info("a")->version, 1u);
  EXPECT_EQ(registry.Info("a")->generation, 1u);

  // Looking a up faults it back in: a disk load (read + fixup), a new
  // generation, the same published version — and b, the only other warm
  // entry (an install is never its own victim), takes a's place in the
  // cold tier.
  auto scorer = registry.GetScorer("a");
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  EXPECT_TRUE((*scorer)->Score(OneRow()).ok());
  EXPECT_TRUE(registry.Info("a")->warm);
  EXPECT_EQ(registry.Info("a")->version, 1u);
  EXPECT_EQ(registry.Info("a")->generation, 2u);
  EXPECT_FALSE(registry.Info("b")->warm);
  EXPECT_EQ(registry.warm_size(), 1u);
}

TEST(RegistryTieringTest, InFlightSnapshotStaysValidAcrossEviction) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);

  ModelRegistry registry;
  registry.set_warm_capacity(1);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  auto snapshot = registry.GetScorer("a").ValueOrDie();
  const auto before = snapshot->Score(OneRow()).ValueOrDie();

  // Evict a (capacity 1, b takes the slot) and delete its backing file:
  // the snapshot handed out above pins both the frozen plan and the
  // artifact's load buffer, so in-flight scoring is unaffected...
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  ASSERT_FALSE(registry.Info("a")->warm);
  fs::remove(dir.path() / "a.tgz1");
  EXPECT_EQ(snapshot->Score(OneRow()).ValueOrDie(), before);

  // ...while a fresh lookup needs the file back and reports the failure.
  EXPECT_FALSE(registry.GetScorer("a").ok());
}

TEST(RegistryTieringTest, TextBackedEntriesPromoteToFrozenScorers) {
  TempDir dir;
  WriteTextModel(dir.path() / "a.targad", 1);
  WriteTextModel(dir.path() / "b.targad", 2);

  ModelRegistry registry;
  registry.set_warm_capacity(1);
  ASSERT_TRUE(
      registry.PublishFile("a", (dir.path() / "a.targad").string()).ok());
  ASSERT_TRUE(
      registry.PublishFile("b", (dir.path() / "b.targad").string()).ok());
  ASSERT_FALSE(registry.Info("a")->warm);

  // Promotion re-parses the text model and freezes it again; the pipeline
  // is dropped, so the snapshot is a frozen scorer like any other.
  auto scorer = registry.GetScorer("a");
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  const auto* frozen = dynamic_cast<const core::FrozenScorer*>(scorer->get());
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat64);
  EXPECT_TRUE(frozen->Score(OneRow()).ok());
  EXPECT_TRUE(registry.Info("a")->warm);
  EXPECT_EQ(registry.Info("a")->generation, 2u);
}

TEST(RegistryTieringTest, InMemoryPublishesArePinnedWarm) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);

  ModelRegistry registry;
  registry.set_warm_capacity(1);
  auto pinned = std::make_shared<const core::FrozenScorer>(
      TrainPipeline(3).Freeze(nn::Dtype::kFloat64).ValueOrDie());
  registry.Publish("pinned", pinned);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());

  // Only file-backed snapshots count against (and are evicted by) the cap;
  // the in-memory publish has no file to reload from and never leaves the
  // warm tier.
  EXPECT_EQ(registry.warm_size(), 1u);
  EXPECT_TRUE(registry.Info("pinned")->warm);
  EXPECT_FALSE(registry.Info("a")->warm);
  EXPECT_TRUE(registry.Info("b")->warm);
  EXPECT_EQ(registry.GetScorer("pinned")->get(), pinned.get());
}

TEST(RegistryTieringTest, ArtifactEntriesServeLoadedScorers) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "flat.tgz1", 1);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.PublishFile("flat", (dir.path() / "flat.tgz1").string()).ok());
  EXPECT_TRUE(registry.Info("flat")->artifact);
  // The artifact is served as loaded, in its own dtype, whatever the
  // registry's serve dtype.
  auto scorer = registry.GetScorer("flat");
  ASSERT_TRUE(scorer.ok());
  const auto* frozen = dynamic_cast<const core::FrozenScorer*>(scorer->get());
  ASSERT_NE(frozen, nullptr);
  EXPECT_TRUE(frozen->from_artifact());
  EXPECT_EQ(frozen->dtype(), nn::Dtype::kFloat32);
  EXPECT_TRUE(frozen->Score(OneRow()).ok());
}

TEST(RegistryTieringTest, ListNamesIsSortedAcrossBothTiers) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "zeta.tgz1", 1);
  WriteFlatArtifact(dir.path() / "alpha.tgz1", 2);
  WriteFlatArtifact(dir.path() / "mid.tgz1", 3);

  ModelRegistry registry;
  registry.set_warm_capacity(1);  // zeta and alpha end up cold.
  ASSERT_TRUE(
      registry.PublishFile("zeta", (dir.path() / "zeta.tgz1").string()).ok());
  ASSERT_TRUE(
      registry.PublishFile("alpha", (dir.path() / "alpha.tgz1").string()).ok());
  ASSERT_TRUE(
      registry.PublishFile("mid", (dir.path() / "mid.tgz1").string()).ok());
  EXPECT_EQ(registry.ListNames(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(RegistryTieringTest, MetricsCountHitsMissesEvictionsAndLoads) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);

  ServeMetrics metrics;
  ModelRegistry registry;
  registry.set_metrics(&metrics);
  registry.set_warm_capacity(1);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  // a is cold now: 1 eviction, 2 loads, no lookups yet.
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.registry_evictions, 1u);
  EXPECT_EQ(snapshot.registry_loads, 2u);
  EXPECT_EQ(snapshot.registry_hits, 0u);
  EXPECT_EQ(snapshot.registry_misses, 0u);

  ASSERT_TRUE(registry.GetScorer("b").ok());  // Warm: hit.
  ASSERT_TRUE(registry.GetScorer("a").ok());  // Cold: miss + load (+evict b).
  snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.registry_hits, 1u);
  EXPECT_EQ(snapshot.registry_misses, 1u);
  EXPECT_EQ(snapshot.registry_evictions, 2u);
  EXPECT_EQ(snapshot.registry_loads, 3u);
  // Every load fed the latency histogram the report prints.
  uint64_t histogram_total = 0;
  for (uint64_t count : snapshot.registry_load_buckets) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, 3u);
}

// The batch scorer's access pattern: each batch fetches its models in name
// order, so a batch routed to more models than the cap holds is a scan
// longer than the cache. A model fetched twice per round (two batches'
// groups) stays warm through the scan; under LRU the scan would evict it
// every round.
TEST(RegistryTieringTest, FrequentModelSurvivesScansLongerThanTheCache) {
  TempDir dir;
  for (const char* name : {"a", "b", "c", "hot"}) {
    WriteFlatArtifact(dir.path() / (std::string(name) + ".tgz1"), 1);
  }
  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());

  auto round = [&] {
    for (const char* name : {"hot", "hot", "a", "b", "c"}) {
      ASSERT_TRUE(registry.GetScorer(name).ok()) << name;
    }
  };
  round();
  const uint64_t generation = registry.Info("hot")->generation;
  for (int i = 0; i < 20; ++i) round();
  EXPECT_TRUE(registry.Info("hot")->warm);
  EXPECT_EQ(registry.Info("hot")->generation, generation);
  EXPECT_EQ(registry.warm_size(), 2u);
}

// Counts halve once every 8 x warm-capacity lookups, so a model that was
// hot long ago loses its slot to models that are hot now.
TEST(RegistryTieringTest, AgedCountsLetNewlyHotModelsIn) {
  TempDir dir;
  for (const char* name : {"new", "old", "x"}) {
    WriteFlatArtifact(dir.path() / (std::string(name) + ".tgz1"), 1);
  }
  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  // Installed in name order: new, old, x; installing x evicted new.
  ASSERT_FALSE(registry.Info("new")->warm);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(registry.GetScorer("old").ok());

  // new and x alternate; old is never asked for again. Without aging,
  // old's 1000 lookups would keep its slot through all 100 rounds, and new
  // and x would evict each other on every lookup.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(registry.GetScorer("new").ok());
    ASSERT_TRUE(registry.GetScorer("x").ok());
  }
  EXPECT_FALSE(registry.Info("old")->warm);
  const uint64_t new_generation = registry.Info("new")->generation;
  const uint64_t x_generation = registry.Info("x")->generation;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(registry.GetScorer("new").ok());
    ASSERT_TRUE(registry.GetScorer("x").ok());
  }
  EXPECT_EQ(registry.Info("new")->generation, new_generation);
  EXPECT_EQ(registry.Info("x")->generation, x_generation);
}

// A registered model whose cold promotion cannot load is unavailable, not
// unknown and not a bad request: FailedPrecondition with the load error.
TEST(RegistryTieringTest, FailedPromotionIsFailedPreconditionWithTheCause) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);
  ModelRegistry registry;
  registry.set_warm_capacity(1);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  ASSERT_FALSE(registry.Info("a")->warm);
  fs::remove(dir.path() / "a.tgz1");

  auto promoted = registry.GetScorer("a");
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(promoted.status().message().find("cannot open"), std::string::npos)
      << promoted.status().ToString();
  EXPECT_NE(promoted.status().message().find("a.tgz1"), std::string::npos);
  // Unregistered is still NotFound.
  EXPECT_EQ(registry.GetScorer("zzz").status().code(), StatusCode::kNotFound);
}

// A live artifact rewritten in place — truncated, or overwritten with
// same-size zeros or garbage — never reaches serving: the warm snapshot
// keeps its scores, the refresh poll reports the load error and keeps the
// old version, and once the entry is evicted its promotion fails with an
// error status, never a signal.
TEST(RegistryTieringTest, InPlaceRewriteOfALiveArtifactNeverReachesServing) {
  for (const char* damage : {"truncate", "zeros", "garbage"}) {
    SCOPED_TRACE(damage);
    TempDir dir;
    const fs::path a = dir.path() / "a.tgz1";
    WriteFlatArtifact(a, 1);
    WriteFlatArtifact(dir.path() / "b.tgz1", 2);
    ModelRegistry registry;
    registry.set_warm_capacity(1);
    ASSERT_TRUE(registry.PublishFile("a", a.string()).ok());
    auto snapshot = registry.GetScorer("a").ValueOrDie();
    const auto before = snapshot->Score(OneRow()).ValueOrDie();
    const ModelInfo info = registry.Info("a").ValueOrDie();

    const auto mtime = fs::last_write_time(a);
    const size_t size = fs::file_size(a);
    if (std::string(damage) == "truncate") {
      std::ofstream out(a, std::ios::binary | std::ios::trunc);
    } else {
      // in|out opens the existing inode without truncating it.
      std::fstream out(a, std::ios::binary | std::ios::in | std::ios::out);
      std::string bytes(size, '\0');
      if (std::string(damage) == "garbage") {
        Rng rng(3);
        for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
      }
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // A same-size rewrite can land in the same timestamp tick, which the
    // signature poll cannot see; move the mtime so the poll must look.
    fs::last_write_time(a, mtime + std::chrono::seconds(1));

    EXPECT_EQ(snapshot->Score(OneRow()).ValueOrDie(), before);
    auto refreshed = registry.RefreshIfChanged();
    EXPECT_FALSE(refreshed.ok());
    const ModelInfo after = registry.Info("a").ValueOrDie();
    EXPECT_EQ(after.version, info.version);
    EXPECT_EQ(after.generation, info.generation);
    EXPECT_TRUE(after.warm);
    EXPECT_EQ(registry.GetScorer("a").ValueOrDie()->Score(OneRow()).ValueOrDie(),
              before);

    // Evicted (b takes the one slot), a must come back from the damaged
    // file: an error status.
    ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
    ASSERT_FALSE(registry.Info("a")->warm);
    auto promoted = registry.GetScorer("a");
    ASSERT_FALSE(promoted.ok());
    EXPECT_EQ(promoted.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(snapshot->Score(OneRow()).ValueOrDie(), before);
  }
}

}  // namespace
}  // namespace serve
}  // namespace targad
