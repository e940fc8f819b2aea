#include "serve/model_registry.h"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"

namespace targad {
namespace serve {
namespace {

namespace fs = std::filesystem;

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

core::PipelineConfig FastConfig(uint64_t seed) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 5;
  config.model.epochs = 5;
  return config;
}

core::TargAdPipeline TrainPipeline(uint64_t seed) {
  return core::TargAdPipeline::Train(MakeTrainingTable(seed), FastConfig(seed))
      .ValueOrDie();
}

// A trained pipeline frozen at `dtype`, ready for an in-memory Publish.
std::shared_ptr<const core::FrozenScorer> TrainScorer(
    uint64_t seed, nn::Dtype dtype = nn::Dtype::kFloat64) {
  return std::make_shared<const core::FrozenScorer>(
      TrainPipeline(seed).Freeze(dtype).ValueOrDie());
}

// A serialized pipeline artifact, as `targad train` would write it.
std::string SavedArtifact(uint64_t seed) {
  auto pipeline = TrainPipeline(seed);
  std::stringstream buffer;
  TARGAD_CHECK_OK(pipeline.Save(buffer));
  return buffer.str();
}

data::RawTable TwoRows() {
  data::RawTable rows;
  rows.column_names = {"x", "y"};
  rows.rows.push_back({"0.5", "0.5"});
  rows.rows.push_back({"4.8", "5.1"});
  return rows;
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("targad_registry_test_" + std::to_string(::getpid()) + "_" +
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

TEST(ModelRegistryTest, PublishGetAndVersioning) {
  ModelRegistry registry;
  auto scorer_v1 = TrainScorer(1);
  EXPECT_EQ(registry.Publish("fraud", scorer_v1), 1u);
  EXPECT_EQ(registry.size(), 1u);

  auto snapshot = registry.GetScorer("fraud");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->get(), scorer_v1.get());

  EXPECT_EQ(registry.Publish("fraud", TrainScorer(2)), 2u);
  auto info = registry.Info("fraud");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2u);

  // The old snapshot handed out before the swap stays fully usable.
  data::RawTable row;
  row.column_names = {"x", "y"};
  row.rows.push_back({"0.5", "0.5"});
  auto scores = (*snapshot)->Score(row);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  EXPECT_EQ(scores->size(), 1u);
}

TEST(ModelRegistryTest, GetUnknownIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.GetScorer("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Info("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Remove("nope").code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, LoadDirectoryRegistersArtifactsByStem) {
  TempDir dir;
  {
    const std::string artifact = SavedArtifact(3);
    std::ofstream out(dir.path() / "alpha.targad");
    out << artifact;
    std::ofstream out2(dir.path() / "beta.model");
    out2 << artifact;
    std::ofstream ignored(dir.path() / "notes.txt");
    ignored << "not a model\n";
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.GetScorer("alpha").ok());
  EXPECT_TRUE(registry.GetScorer("beta").ok());
  EXPECT_EQ(registry.GetScorer("notes").status().code(),
            StatusCode::kNotFound);

  const std::vector<ModelInfo> models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[1].name, "beta");
}

TEST(ModelRegistryTest, LoadDirectoryFailsOnCorruptArtifact) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "broken.targad");
    out << "this is not a pipeline\n";
  }
  ModelRegistry registry;
  EXPECT_FALSE(registry.LoadDirectory(dir.path().string()).ok());
}

// `text` with the whitespace-separated token `skip` places after the
// first `anchor` replaced by `value`.
std::string EditToken(std::string text, const std::string& anchor,
                      size_t skip, const std::string& value) {
  size_t pos = text.find(anchor);
  EXPECT_NE(pos, std::string::npos) << anchor;
  pos += anchor.size();
  for (size_t i = 0; i <= skip; ++i) {
    pos = text.find_first_not_of(" \n", pos);
    if (i < skip) pos = text.find_first_of(" \n", pos);
  }
  return text.replace(pos, text.find_first_of(" \n", pos) - pos, value);
}

// One edit to a saved model's counts or widths: the file fails to publish
// with InvalidArgument, and nothing is sized from the edited number.
TEST(ModelRegistryTest, PublishFileRejectsHostileCountsInTextModels) {
  TempDir dir;
  const std::string saved = SavedArtifact(8);
  const std::string huge = "1099511627776";
  const std::string edits[] = {
      EditToken(saved, "minmax-v1", 0, "4611686018427387904"),
      EditToken(saved, "hidden", 1, huge),
      EditToken(saved, "targad-v1", 2, huge),
      EditToken(EditToken(saved, "matrix", 0, "4294967296"), "matrix", 1,
                "4294967296"),
  };
  ModelRegistry registry;
  for (const std::string& text : edits) {
    ASSERT_NE(text, saved);
    const fs::path path = dir.path() / "bad.targad";
    {
      std::ofstream out(path);
      out << text;
    }
    const Status st = registry.PublishFile("bad", path.string());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  EXPECT_EQ(registry.GetScorer("bad").status().code(), StatusCode::kNotFound);
}

// Seeded mutations of a saved text model, published through the registry
// (TargAdPipeline::Load into nn::ReadParams, then Freeze): every publish
// returns ok() or an error status, and a model that publishes also scores a
// record. Under ASan/UBSan (the serve label) this is the text reader's fuzz
// pass.
TEST(ModelRegistryTest, MutatedTextModelsPublishOrFailCleanly) {
  TempDir dir;
  const std::string saved = SavedArtifact(9);
  // The model as alternating separator / token pieces, so a mutation
  // replaces whole tokens and keeps the layout around them.
  std::vector<std::string> tokens;
  for (size_t i = 0; i < saved.size();) {
    const bool space = std::isspace(static_cast<unsigned char>(saved[i])) != 0;
    size_t j = i;
    while (j < saved.size() &&
           (std::isspace(static_cast<unsigned char>(saved[j])) != 0) == space) {
      ++j;
    }
    tokens.push_back(saved.substr(i, j - i));
    i = j;
  }
  // Weights and statistics are most of the tokens, and changing one is
  // harmless. Keywords, names and counts are what the reader trusts, so
  // most edits aim at them: any token that is not a decimal fraction.
  std::vector<size_t> structural;
  for (size_t t = 0; t < tokens.size(); ++t) {
    if (std::isspace(static_cast<unsigned char>(tokens[t][0])) == 0 &&
        tokens[t].find('.') == std::string::npos) {
      structural.push_back(t);
    }
  }
  ASSERT_GT(structural.size(), 10u);
  const std::vector<std::string> replacements = {
      "0", "1", "-1", "2", "3", "64", "2147483647", "2147483648", "4294967296",
      "1099511627776", "18446744073709551615", "99999999999999999999",
      "1e308", "nan", "inf", "-0", "0.5", "f64", "f32", "f16", "matrix",
      "params", "hidden", "0:", "1:", "5:x", "2:x 2:y", "", "onehot-v1",
      "minmax-v1", "targad-v1", "targad-pipeline-v1"};

  Rng rng(36);
  const fs::path path = dir.path() / "mutant.targad";
  const std::vector<core::RowScorer::Record> record = {{"0.5,0.5", -1}};
  ModelRegistry registry;
  size_t published = 0;
  constexpr int kBudget = 300;
  for (int round = 0; round < kBudget; ++round) {
    std::vector<std::string> mutant = tokens;
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits; ++e) {
      std::string& token =
          rng.UniformInt(4) == 0
              ? mutant[rng.UniformInt(mutant.size())]
              : mutant[structural[rng.UniformInt(structural.size())]];
      switch (rng.UniformInt(4)) {
        case 0:  // A boundary value, a huge count or a wrong keyword.
          token = replacements[rng.UniformInt(replacements.size())];
          break;
        case 1:  // One digit changed, or any byte if there is no digit.
          if (!token.empty()) {
            char& c = token[rng.UniformInt(token.size())];
            c = std::isdigit(static_cast<unsigned char>(c)) != 0
                    ? static_cast<char>('0' + rng.UniformInt(10))
                    : static_cast<char>(33 + rng.UniformInt(94));
          }
          break;
        case 2:  // Deleted.
          token.clear();
          break;
        default:  // A token inserted before it.
          token = replacements[rng.UniformInt(replacements.size())] + " " +
                  token;
          break;
      }
    }
    std::string text;
    for (const std::string& token : mutant) text += token;
    if (rng.UniformInt(8) == 0) {  // Cut short.
      text.resize(rng.UniformInt(text.size() + 1));
    }
    {
      std::ofstream out(path, std::ios::trunc);
      out << text;
    }
    if (!registry.PublishFile("m", path.string()).ok()) continue;
    ++published;
    auto scorer = registry.GetScorer("m");
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    EXPECT_EQ((*scorer)->ScoreRecords(record).size(), 1u);
  }
  // Some mutations are harmless (a renamed column, a changed statistic):
  // the loop reached the freeze and the scorer, not only parse errors.
  EXPECT_GT(published, 0u);
  EXPECT_LT(published, static_cast<size_t>(kBudget));
}

TEST(ModelRegistryTest, LoadDirectoryOnMissingDirIsNotFound) {
  ModelRegistry registry;
  EXPECT_EQ(registry.LoadDirectory("/nonexistent/registry/dir").code(),
            StatusCode::kNotFound);
}

// The scorer a text model is served as: frozen at `dtype`, pipeline gone.
const core::FrozenScorer* ServedFrozen(ModelRegistry* registry,
                                       const std::string& name,
                                       nn::Dtype dtype) {
  auto scorer = registry->GetScorer(name);
  EXPECT_TRUE(scorer.ok()) << scorer.status().ToString();
  if (!scorer.ok()) return nullptr;
  const auto* frozen = dynamic_cast<const core::FrozenScorer*>(scorer->get());
  EXPECT_NE(frozen, nullptr);
  if (frozen == nullptr) return nullptr;
  EXPECT_EQ(frozen->dtype(), dtype);
  return frozen;
}

TEST(ModelRegistryTest, TextModelsServeFrozenScorerAtFloat64) {
  TempDir dir;
  const fs::path path = dir.path() / "m.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(6);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("m", path.string()).ok());
  const core::FrozenScorer* frozen =
      ServedFrozen(&registry, "m", nn::Dtype::kFloat64);
  ASSERT_NE(frozen, nullptr);
  EXPECT_FALSE(frozen->from_artifact());
  // Default dtype is float64: the frozen snapshot scores bit-identically
  // to the pipeline it was frozen from.
  EXPECT_EQ(frozen->Score(TwoRows()).ValueOrDie(),
            TrainPipeline(6).Score(TwoRows()).ValueOrDie());
}

TEST(ModelRegistryTest, Float32DtypeServesFrozenScorer) {
  TempDir dir;
  const fs::path path = dir.path() / "m.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(7);
  }
  ModelRegistry registry;
  registry.set_serve_dtype(nn::Dtype::kFloat32);
  ASSERT_TRUE(registry.PublishFile("m", path.string()).ok());
  const core::FrozenScorer* frozen =
      ServedFrozen(&registry, "m", nn::Dtype::kFloat32);
  ASSERT_NE(frozen, nullptr);

  auto frozen_scores = frozen->Score(TwoRows());
  auto exact_scores = TrainPipeline(7).Score(TwoRows());
  ASSERT_TRUE(frozen_scores.ok()) << frozen_scores.status().ToString();
  ASSERT_TRUE(exact_scores.ok());
  ASSERT_EQ(frozen_scores->size(), exact_scores->size());
  for (size_t i = 0; i < exact_scores->size(); ++i) {
    EXPECT_NEAR((*frozen_scores)[i], (*exact_scores)[i], 1e-4) << "row " << i;
  }
}

TEST(ModelRegistryTest, RefreshIfChangedReloadsOverwrittenArtifacts) {
  TempDir dir;
  const fs::path path = dir.path() / "live.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(8);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("live", path.string()).ok());
  EXPECT_EQ(registry.Info("live")->version, 1u);

  // Nothing changed: a refresh is a no-op.
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 0u);

  // Overwrite the artifact and force a newer mtime (filesystem timestamp
  // granularity can swallow a fast rewrite).
  auto old_snapshot = registry.GetScorer("live").ValueOrDie();
  {
    std::ofstream out(path);
    out << SavedArtifact(9);
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));

  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("live")->version, 2u);
  // Hot-swap semantics: the new snapshot differs, the old one stays valid.
  auto new_snapshot = registry.GetScorer("live").ValueOrDie();
  EXPECT_NE(new_snapshot.get(), old_snapshot.get());
  data::RawTable row;
  row.column_names = {"x", "y"};
  row.rows.push_back({"1.0", "1.0"});
  EXPECT_TRUE(old_snapshot->Score(row).ok());

  // A second refresh with no further writes is again a no-op.
  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
}

TEST(ModelRegistryTest, RefreshCatchesSameTimestampRewrite) {
  // Regression: the refresh poll used to compare only the (coarse) mtime,
  // so a rewrite landing within the filesystem's timestamp granularity was
  // invisible. The stat signature now pairs nanosecond mtime with size;
  // pinning the mtime back to its pre-rewrite value forces the poll to
  // notice via the size alone.
  TempDir dir;
  const fs::path path = dir.path() / "fast.targad";
  const std::string v1 = SavedArtifact(13);
  {
    std::ofstream out(path);
    out << v1;
  }
  const auto original_mtime = fs::last_write_time(path);

  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("fast", path.string()).ok());
  auto old_snapshot = registry.GetScorer("fast").ValueOrDie();

  // Rewrite with different bytes (a second pipeline differs in size: the
  // serialized weights are decimal text) and restore the old timestamp, as
  // if the rewrite happened within the same clock tick.
  const std::string v2 = SavedArtifact(14);
  ASSERT_NE(v1.size(), v2.size());
  {
    std::ofstream out(path, std::ios::trunc);
    out << v2;
  }
  fs::last_write_time(path, original_mtime);

  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("fast")->version, 2u);
  EXPECT_NE(registry.GetScorer("fast").ValueOrDie().get(), old_snapshot.get());
}

TEST(ModelRegistryTest, RefreshIfChangedPicksUpNewFilesInWatchedDirs) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "first.targad");
    out << SavedArtifact(10);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.size(), 1u);

  {
    std::ofstream out(dir.path() / "second.targad");
    out << SavedArtifact(11);
  }
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.GetScorer("second").ok());
}

TEST(ModelRegistryTest, RefreshIfChangedKeepsVanishedArtifactsServing) {
  TempDir dir;
  const fs::path path = dir.path() / "gone.targad";
  {
    std::ofstream out(path);
    out << SavedArtifact(12);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.PublishFile("gone", path.string()).ok());
  fs::remove(path);
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
  // The last good snapshot stays registered and scoreable.
  EXPECT_TRUE(registry.GetScorer("gone").ok());
}

// A stem with both files is served from its ".tgz1"; the text file that
// loses is never read.
TEST(ModelRegistryTest, LoadDirectoryServesArtifactOverTextModel) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "a.targad");
    out << "not a pipeline\n";
  }
  ASSERT_TRUE(TrainScorer(15, nn::Dtype::kFloat32)
                  ->SaveArtifact((dir.path() / "a.tgz1").string())
                  .ok());
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.Info("a")->source, (dir.path() / "a.tgz1").string());
  EXPECT_EQ(registry.Info("a")->version, 1u);
  EXPECT_TRUE(registry.Info("a")->artifact);
}

// Regression: the re-scan skipped every registered stem, so a ".tgz1"
// dropped beside a served text model waited for a restart.
TEST(ModelRegistryTest, RefreshServesArtifactDroppedBesideTextModel) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "a.targad");
    out << SavedArtifact(16);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  EXPECT_EQ(registry.Info("a")->source, (dir.path() / "a.targad").string());

  ASSERT_TRUE(TrainScorer(17, nn::Dtype::kFloat32)
                  ->SaveArtifact((dir.path() / "a.tgz1").string())
                  .ok());
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("a")->source, (dir.path() / "a.tgz1").string());
  EXPECT_EQ(registry.Info("a")->version, 2u);
  EXPECT_TRUE(registry.Info("a")->artifact);
  ServedFrozen(&registry, "a", nn::Dtype::kFloat32);

  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(*refreshed, 0u);
}

// The re-scan adds stems and upgrades its own text models, but an entry
// published from anywhere else keeps its source.
TEST(ModelRegistryTest, RefreshNeverReplacesModelsPublishedElsewhere) {
  TempDir dir;
  TempDir elsewhere;
  const fs::path text = elsewhere.path() / "a.targad";
  {
    std::ofstream out(text);
    out << SavedArtifact(18);
  }
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());
  ASSERT_TRUE(registry.PublishFile("a", text.string()).ok());
  auto pinned = TrainScorer(19);
  registry.Publish("b", pinned);

  for (const char* stem : {"a", "b"}) {
    ASSERT_TRUE(TrainScorer(20, nn::Dtype::kFloat32)
                    ->SaveArtifact((dir.path() / (std::string(stem) + ".tgz1"))
                                       .string())
                    .ok());
  }
  auto refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 0u);
  EXPECT_EQ(registry.Info("a")->source, text.string());
  EXPECT_EQ(registry.Info("b")->source, "(in-memory)");
  EXPECT_EQ(registry.GetScorer("b")->get(), pinned.get());
}

// Regression: the refresh returned at the first file that failed to load.
// That file keeps its old signature, so it failed again at every poll, and
// no model after it in name order — nor any new stem of the re-scan —
// ever refreshed. The pass now finishes and reports the first error. A
// file that failed is then not read again until its signature changes, so
// an unchanged damaged file costs later polls nothing and reports nothing.
TEST(ModelRegistryTest, RefreshGoesOnPastADamagedFile) {
  TempDir dir;
  const auto save = [&dir](uint64_t seed, const char* file) {
    return TrainScorer(seed, nn::Dtype::kFloat32)
        ->SaveArtifact((dir.path() / file).string())
        .ok();
  };
  const fs::path a = dir.path() / "a.tgz1";
  const fs::path b = dir.path() / "b.tgz1";
  const fs::path c = dir.path() / "c.tgz1";
  ASSERT_TRUE(save(40, "a.tgz1"));
  ASSERT_TRUE(save(41, "b.tgz1"));
  ServeMetrics metrics;
  ModelRegistry registry;
  registry.set_metrics(&metrics);
  ASSERT_TRUE(registry.LoadDirectory(dir.path().string()).ok());

  // `a` is truncated, `b` validly redeployed; the re-scan finds a damaged
  // new stem `c` and a good new stem `d` after it.
  fs::resize_file(a, fs::file_size(a) / 2);
  ASSERT_TRUE(save(42, "b.tgz1"));
  fs::last_write_time(b, fs::last_write_time(b) + std::chrono::seconds(2));
  {
    std::ofstream out(c);
    out << "not an artifact";
  }
  ASSERT_TRUE(save(43, "d.tgz1"));

  auto refreshed = registry.RefreshIfChanged();
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refreshed.status().message().find(a.string()), std::string::npos)
      << refreshed.status().ToString();
  EXPECT_EQ(registry.Info("a")->version, 1u);
  EXPECT_EQ(registry.Info("b")->version, 2u);
  EXPECT_FALSE(registry.Info("c").ok());
  ASSERT_TRUE(registry.Info("d").ok());
  EXPECT_EQ(registry.Info("d")->version, 1u);
  // The failed pass returns no count; the metrics keep its two
  // republishes, `b` and `d`, and count it as a failing poll.
  EXPECT_EQ(metrics.Snapshot().registry_refreshes, 2u);
  EXPECT_EQ(metrics.Snapshot().registry_refresh_polls, 1u);
  EXPECT_EQ(metrics.Snapshot().registry_refresh_errors, 1u);

  // Nothing changed: the damaged `a` and `c` are not read again.
  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 0u);
  EXPECT_EQ(registry.Info("a")->version, 1u);
  EXPECT_FALSE(registry.Info("c").ok());
  EXPECT_EQ(metrics.Snapshot().registry_refreshes, 2u);
  EXPECT_TRUE(registry.GetScorer("a").ok());  // The last good snapshot.

  // A valid rewrite of `a` is picked up at the next poll.
  ASSERT_TRUE(save(44, "a.tgz1"));
  fs::last_write_time(a, fs::last_write_time(a) + std::chrono::seconds(4));
  refreshed = registry.RefreshIfChanged();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 1u);
  EXPECT_EQ(registry.Info("a")->version, 2u);

  // New garbage in `c`, of another size, is read and fails again.
  {
    std::ofstream out(c);
    out << "still not an artifact";
  }
  refreshed = registry.RefreshIfChanged();
  ASSERT_FALSE(refreshed.ok());
  EXPECT_NE(refreshed.status().message().find(c.string()), std::string::npos)
      << refreshed.status().ToString();
  EXPECT_FALSE(registry.Info("c").ok());
  EXPECT_EQ(metrics.Snapshot().registry_refreshes, 3u);
  EXPECT_EQ(metrics.Snapshot().registry_refresh_polls, 4u);
  EXPECT_EQ(metrics.Snapshot().registry_refresh_errors, 2u);
}

TEST(ModelRegistryTest, ConcurrentPublishAndGetKeepSnapshotsIntact) {
  ModelRegistry registry;
  auto scorer_a = TrainScorer(4);
  auto scorer_b = TrainScorer(5);
  registry.Publish("m", scorer_a);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto snapshot = registry.GetScorer("m");
        ASSERT_TRUE(snapshot.ok());
        const core::RowScorer* raw = snapshot->get();
        // Every observed snapshot is one of the two published scorers.
        ASSERT_TRUE(raw == scorer_a.get() || raw == scorer_b.get());
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    registry.Publish("m", i % 2 == 0 ? scorer_b : scorer_a);
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.Info("m")->version, 51u);
}

}  // namespace
}  // namespace serve
}  // namespace targad
