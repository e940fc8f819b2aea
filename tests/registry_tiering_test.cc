// Warm/cold tiering of the ModelRegistry: LRU eviction under a warm
// capacity, cold-tier promotion on lookup, generation-vs-version counters,
// in-flight snapshot pinning across eviction, and the registry metrics
// those transitions record. The flat-artifact format itself is covered by
// artifact_test; here artifacts are just the fastest thing to evict and
// promote.

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

TEST(RegistryTieringTest, EvictsLeastRecentlyUsedPastWarmCapacity) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);
  WriteFlatArtifact(dir.path() / "c.tgz1", 3);

  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  EXPECT_EQ(registry.warm_size(), 2u);

  // Loading c pushes the registry past capacity; a, the least recently
  // used, is demoted to the cold tier. Nothing is forgotten: all three
  // names stay registered.
  ASSERT_TRUE(registry.PublishFile("c", (dir.path() / "c.tgz1").string()).ok());
  EXPECT_EQ(registry.warm_size(), 2u);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.Info("a")->warm);
  EXPECT_TRUE(registry.Info("b")->warm);
  EXPECT_TRUE(registry.Info("c")->warm);
}

TEST(RegistryTieringTest, GetScorerTouchChangesEvictionVictim) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "a.tgz1", 1);
  WriteFlatArtifact(dir.path() / "b.tgz1", 2);
  WriteFlatArtifact(dir.path() / "c.tgz1", 3);

  ModelRegistry registry;
  registry.set_warm_capacity(2);
  ASSERT_TRUE(registry.PublishFile("a", (dir.path() / "a.tgz1").string()).ok());
  ASSERT_TRUE(registry.PublishFile("b", (dir.path() / "b.tgz1").string()).ok());
  // Serving a moves it to the front of the LRU; b becomes the victim.
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

  // Looking a up faults it back in: a disk load (mmap + fixup), a new
  // generation, the same published version — and b, now least recent,
  // takes a's place in the cold tier.
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
  // underlying mapping, so in-flight scoring is unaffected...
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

TEST(RegistryTieringTest, ArtifactEntriesServeMappedScorers) {
  TempDir dir;
  WriteFlatArtifact(dir.path() / "flat.tgz1", 1);
  ModelRegistry registry;
  ASSERT_TRUE(
      registry.PublishFile("flat", (dir.path() / "flat.tgz1").string()).ok());
  EXPECT_TRUE(registry.Info("flat")->artifact);
  // The artifact is served as mapped, in its own dtype, whatever the
  // registry's serve dtype.
  auto scorer = registry.GetScorer("flat");
  ASSERT_TRUE(scorer.ok());
  const auto* frozen = dynamic_cast<const core::FrozenScorer*>(scorer->get());
  ASSERT_NE(frozen, nullptr);
  EXPECT_TRUE(frozen->mapped());
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

}  // namespace
}  // namespace serve
}  // namespace targad
