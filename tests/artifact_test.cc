#include "nn/artifact.h"

#include <cstdint>
#include <cstring>
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

namespace targad {
namespace nn {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("targad_artifact_test_" + std::to_string(::getpid()) + "_" +
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

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A writer holding two float32 tensors and a meta blob — the smallest
// artifact that exercises every layout region.
ArtifactWriter SmallWriter(const std::vector<float>& a,
                           const std::vector<float>& b) {
  ArtifactWriter writer(Dtype::kFloat32);
  writer.set_meta("schema: toy");
  writer.AddTensor(2, 3, a.data());
  writer.AddTensor(1, 4, b.data());
  return writer;
}

TEST(ArtifactTest, WriteMapRoundTripPreservesEverything) {
  TempDir dir;
  const fs::path path = dir.path() / "toy.tgz1";
  const std::vector<float> a = {1.0f, -2.5f, 3.25f, 0.0f, 7.5f, -0.125f};
  const std::vector<float> b = {9.0f, 8.0f, 7.0f, 6.0f};
  ASSERT_TRUE(SmallWriter(a, b).WriteFile(path.string()).ok());

  auto mapped = MappedArtifact::Map(path.string());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const MappedArtifact& artifact = **mapped;
  EXPECT_EQ(artifact.version(), 1u);
  EXPECT_EQ(artifact.dtype(), Dtype::kFloat32);
  EXPECT_EQ(artifact.meta(), "schema: toy");
  ASSERT_EQ(artifact.num_sections(), 2u);
  EXPECT_EQ(artifact.section(0).rows, 2u);
  EXPECT_EQ(artifact.section(0).cols, 3u);
  EXPECT_EQ(artifact.section(1).rows, 1u);
  EXPECT_EQ(artifact.section(1).cols, 4u);

  auto t0 = artifact.Tensor<float>(0, 2, 3);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(0, std::memcmp(*t0, a.data(), a.size() * sizeof(float)));
  auto t1 = artifact.Tensor<float>(1, 1, 4);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(0, std::memcmp(*t1, b.data(), b.size() * sizeof(float)));

  // The layout contract: every payload pointer is 64-byte aligned.
  for (size_t i = 0; i < artifact.num_sections(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(artifact.section(i).data) % 64, 0u)
        << "section " << i;
  }
}

TEST(ArtifactTest, TensorRejectsDtypeAndShapeMismatch) {
  TempDir dir;
  const fs::path path = dir.path() / "toy.tgz1";
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  ASSERT_TRUE(SmallWriter(a, b).WriteFile(path.string()).ok());
  auto mapped = MappedArtifact::Map(path.string());
  ASSERT_TRUE(mapped.ok());
  // Wrong element type for the stored dtype tag.
  EXPECT_FALSE((*mapped)->Tensor<double>(0, 2, 3).ok());
  // Wrong expected shape.
  EXPECT_FALSE((*mapped)->Tensor<float>(0, 3, 2).ok());
}

TEST(ArtifactTest, MapRejectsCorruptFiles) {
  TempDir dir;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  const std::string good = SmallWriter(a, b).Serialize();
  const fs::path path = dir.path() / "bad.tgz1";

  {  // Bad magic.
    std::string bytes = good;
    bytes[0] ^= 0x5a;
    WriteBytes(path, bytes);
    EXPECT_FALSE(MappedArtifact::Map(path.string()).ok());
  }
  {  // One flipped payload byte: the footer checksum must catch it.
    std::string bytes = good;
    bytes[bytes.size() / 2] ^= 0x01;
    WriteBytes(path, bytes);
    EXPECT_FALSE(MappedArtifact::Map(path.string()).ok());
  }
  {  // Truncated mid-payload: header file_size disagrees with the file.
    WriteBytes(path, good.substr(0, good.size() - 10));
    EXPECT_FALSE(MappedArtifact::Map(path.string()).ok());
  }
  {  // Shorter than one header.
    WriteBytes(path, good.substr(0, 20));
    EXPECT_FALSE(MappedArtifact::Map(path.string()).ok());
  }
  {  // Missing file.
    EXPECT_FALSE(
        MappedArtifact::Map((dir.path() / "absent.tgz1").string()).ok());
  }
  // The pristine bytes still map — the corruptions above, not the harness,
  // caused the rejections.
  WriteBytes(path, good);
  EXPECT_TRUE(MappedArtifact::Map(path.string()).ok());
}

TEST(ArtifactTest, MapRejectsOutOfBoundsSectionEvenWithValidChecksum) {
  TempDir dir;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  std::string bytes = SmallWriter(a, b).Serialize();

  // Point section 0's payload past the end of the file. The section table
  // lives at the 8-aligned offset after the meta blob ("schema: toy", 11
  // bytes, at offset 64); each descriptor is {u64 offset, u64 rows, u64
  // cols}. Recompute the footer checksum so only the bounds check can
  // reject the file.
  const size_t table_offset = (64 + 11 + 7) & ~size_t{7};
  uint64_t huge = 1ull << 40;
  std::memcpy(&bytes[table_offset], &huge, sizeof(huge));
  const uint64_t checksum = Fnv1a64(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &checksum, sizeof(checksum));

  const fs::path path = dir.path() / "oob.tgz1";
  WriteBytes(path, bytes);
  EXPECT_FALSE(MappedArtifact::Map(path.string()).ok());
}

// ---------------------------------------------------------------------------
// FrozenScorer round trip: SaveArtifact -> LoadArtifact must be
// bit-identical to the freshly frozen scorer, both dtypes.

data::RawTable MakeTrainingTable(uint64_t seed) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"x", "y", "channel", "label"};
  for (size_t i = 0; i < 300; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    table.rows.push_back({std::to_string(rng.Normal(0.0, 1.0)),
                          std::to_string(rng.Normal(0.0, 1.0)),
                          mode ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < 20; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(5.0, 0.3)),
                          std::to_string(rng.Normal(5.0, 0.3)), "web",
                          "attack"});
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

data::RawTable MakeScoringRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"x", "y", "channel"};
  for (size_t i = 0; i < n; ++i) {
    table.rows.push_back({std::to_string(rng.Normal(1.0, 2.0)),
                          std::to_string(rng.Normal(1.0, 2.0)),
                          i % 2 == 0 ? "web" : "pos"});
  }
  return table;
}

class ArtifactRoundTripTest : public ::testing::TestWithParam<Dtype> {};

TEST_P(ArtifactRoundTripTest, LoadArtifactScoresBitIdentically) {
  TempDir dir;
  const Dtype dtype = GetParam();
  auto pipeline = TrainPipeline(21);
  auto frozen = pipeline.Freeze(dtype).ValueOrDie();

  const fs::path path = dir.path() / "model.tgz1";
  ASSERT_TRUE(frozen.SaveArtifact(path.string()).ok());
  auto loaded = core::FrozenScorer::LoadArtifact(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded->mapped());
  EXPECT_FALSE(frozen.mapped());
  EXPECT_EQ(loaded->dtype(), dtype);
  EXPECT_EQ(loaded->m(), frozen.m());
  EXPECT_EQ(loaded->k(), frozen.k());
  EXPECT_EQ(loaded->class_names(), frozen.class_names());
  EXPECT_EQ(loaded->feature_columns(), frozen.feature_columns());
  EXPECT_EQ(loaded->label_column(), frozen.label_column());

  const data::RawTable rows = MakeScoringRows(22, 64);
  auto expected = frozen.Score(rows);
  auto actual = loaded->Score(rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ASSERT_EQ(expected->size(), actual->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    // Bit identity, not tolerance: the artifact stores the already-cast
    // parameters and the load path does no arithmetic.
    EXPECT_EQ((*expected)[i], (*actual)[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, ArtifactRoundTripTest,
                         ::testing::Values(Dtype::kFloat64, Dtype::kFloat32),
                         [](const ::testing::TestParamInfo<Dtype>& info) {
                           return std::string(DtypeName(info.param));
                         });

TEST(ArtifactTest, MappedScorerSurvivesFileUnlink) {
  TempDir dir;
  auto pipeline = TrainPipeline(23);
  auto frozen = pipeline.Freeze(Dtype::kFloat32).ValueOrDie();
  const fs::path path = dir.path() / "gone.tgz1";
  ASSERT_TRUE(frozen.SaveArtifact(path.string()).ok());
  auto loaded = core::FrozenScorer::LoadArtifact(path.string()).ValueOrDie();
  // POSIX keeps the mapping alive after the unlink; scoring must not fault
  // or change — this is what lets a redeploy overwrite artifacts in place.
  fs::remove(path);
  const data::RawTable rows = MakeScoringRows(24, 16);
  auto before = frozen.Score(rows).ValueOrDie();
  auto after = loaded.Score(rows).ValueOrDie();
  EXPECT_EQ(before, after);
}

// Republishing over a live artifact must not touch the inode a running
// scorer maps: an in-place rewrite would change its weights under it (same
// size) or fault it (shorter file).
TEST(ArtifactTest, RewriteOverMappedArtifactKeepsOldScorerIntact) {
  TempDir dir;
  auto old_frozen = TrainPipeline(26).Freeze(Dtype::kFloat32).ValueOrDie();
  auto new_frozen = TrainPipeline(27).Freeze(Dtype::kFloat32).ValueOrDie();
  const fs::path path = dir.path() / "live.tgz1";
  ASSERT_TRUE(old_frozen.SaveArtifact(path.string()).ok());
  auto served = core::FrozenScorer::LoadArtifact(path.string()).ValueOrDie();

  const data::RawTable rows = MakeScoringRows(28, 32);
  const std::vector<double> old_scores = old_frozen.Score(rows).ValueOrDie();
  const std::vector<double> new_scores = new_frozen.Score(rows).ValueOrDie();
  ASSERT_NE(old_scores, new_scores);

  ASSERT_TRUE(new_frozen.SaveArtifact(path.string()).ok());
  EXPECT_EQ(served.Score(rows).ValueOrDie(), old_scores);
  auto reloaded = core::FrozenScorer::LoadArtifact(path.string());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->Score(rows).ValueOrDie(), new_scores);

  // The publish leaves no temp file behind.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename(), "live.tgz1");
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ArtifactTest, WriteFileFailureLeavesNoTempFile) {
  TempDir dir;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  // A directory in the way makes the final rename fail.
  const fs::path path = dir.path() / "blocked.tgz1";
  fs::create_directories(path / "child");
  EXPECT_FALSE(SmallWriter(a, b).WriteFile(path.string()).ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().filename(), "blocked.tgz1");
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ArtifactTest, LoadArtifactRejectsTamperedScorerFile) {
  TempDir dir;
  auto pipeline = TrainPipeline(25);
  auto frozen = pipeline.Freeze(Dtype::kFloat64).ValueOrDie();
  const fs::path path = dir.path() / "model.tgz1";
  ASSERT_TRUE(frozen.SaveArtifact(path.string()).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 3] ^= 0x40;
  WriteBytes(path, bytes);
  EXPECT_FALSE(core::FrozenScorer::LoadArtifact(path.string()).ok());
}

}  // namespace
}  // namespace nn
}  // namespace targad
