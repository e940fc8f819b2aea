#include "nn/artifact.h"

#include <cctype>
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

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// `bytes` with the header's format version (the u32 after the 8-byte magic)
// set to `version` and the footer recomputed with `checksum` over every
// byte before it: a file whose footer is valid for that checksum.
std::string Resealed(std::string bytes, uint32_t version,
                     uint64_t (*checksum)(const void*, size_t)) {
  std::memcpy(&bytes[8], &version, sizeof(version));
  const uint64_t sum = checksum(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof(sum));
  return bytes;
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

TEST(ArtifactTest, WriteLoadRoundTripPreservesEverything) {
  TempDir dir;
  const fs::path path = dir.path() / "toy.tgz1";
  const std::vector<float> a = {1.0f, -2.5f, 3.25f, 0.0f, 7.5f, -0.125f};
  const std::vector<float> b = {9.0f, 8.0f, 7.0f, 6.0f};
  ASSERT_TRUE(SmallWriter(a, b).WriteFile(path.string()).ok());

  auto loaded = LoadedArtifact::Load(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedArtifact& artifact = **loaded;
  EXPECT_EQ(artifact.version(), 2u);
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
  auto loaded = LoadedArtifact::Load(path.string());
  ASSERT_TRUE(loaded.ok());
  // Wrong element type for the stored dtype tag.
  EXPECT_FALSE((*loaded)->Tensor<double>(0, 2, 3).ok());
  // Wrong expected shape.
  EXPECT_FALSE((*loaded)->Tensor<float>(0, 3, 2).ok());
}

TEST(ArtifactTest, LoadRejectsCorruptFiles) {
  TempDir dir;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  const std::string good = SmallWriter(a, b).Serialize();
  const fs::path path = dir.path() / "bad.tgz1";

  {  // Bad magic.
    std::string bytes = good;
    bytes[0] ^= 0x5a;
    WriteBytes(path, bytes);
    EXPECT_FALSE(LoadedArtifact::Load(path.string()).ok());
  }
  {  // One flipped payload byte: the footer checksum must catch it.
    std::string bytes = good;
    bytes[bytes.size() / 2] ^= 0x01;
    WriteBytes(path, bytes);
    EXPECT_FALSE(LoadedArtifact::Load(path.string()).ok());
  }
  {  // Truncated mid-payload: header file_size disagrees with the file.
    WriteBytes(path, good.substr(0, good.size() - 10));
    EXPECT_FALSE(LoadedArtifact::Load(path.string()).ok());
  }
  {  // Shorter than one header.
    WriteBytes(path, good.substr(0, 20));
    EXPECT_FALSE(LoadedArtifact::Load(path.string()).ok());
  }
  {  // Missing file.
    EXPECT_FALSE(
        LoadedArtifact::Load((dir.path() / "absent.tgz1").string()).ok());
  }
  // The pristine bytes still load — the corruptions above, not the harness,
  // caused the rejections.
  WriteBytes(path, good);
  EXPECT_TRUE(LoadedArtifact::Load(path.string()).ok());
}

TEST(ArtifactTest, LoadRejectsOutOfBoundsSectionEvenWithValidChecksum) {
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

  const fs::path path = dir.path() / "oob.tgz1";
  WriteBytes(path, Resealed(bytes, 2, Xxh64));
  auto loaded = LoadedArtifact::Load(path.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("section 0 truncated"),
            std::string::npos)
      << loaded.status().ToString();
}

// Published XXH64 (seed 0) values. The last input is one 32-byte stripe
// plus a 4-byte word and three single bytes, so it reaches every step.
TEST(ArtifactTest, Xxh64MatchesKnownAnswers) {
  const auto xxh = [](const std::string& s) {
    return Xxh64(s.data(), s.size());
  };
  EXPECT_EQ(xxh(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xxh("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xxh("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
}

// Every byte of the file is covered: flipping any one bit — header, meta,
// table, padding, payloads, trailer magic or the stored checksum — fails
// the load. A checksum that skipped a payload byte (say, the last 8-byte
// word of its tail) would let one through.
TEST(ArtifactTest, EveryBitFlipFailsToLoad) {
  TempDir dir;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {1, 2, 3, 4};
  const std::string good = SmallWriter(a, b).Serialize();
  ASSERT_EQ(good.size(), 224u);
  const fs::path path = dir.path() / "flipped.tgz1";
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bytes = good;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    WriteBytes(path, bytes);
    EXPECT_FALSE(LoadedArtifact::Load(path.string()).ok())
        << "flipping bit " << bit % 8 << " of byte " << bit / 8;
  }
  WriteBytes(path, good);
  EXPECT_TRUE(LoadedArtifact::Load(path.string()).ok());
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

  EXPECT_TRUE(loaded->from_artifact());
  EXPECT_FALSE(frozen.from_artifact());
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

// Files written before format version 2 carry an FNV-1a footer under
// version 1; they keep loading, and score as the scorer that wrote them.
// The header's version alone picks the checksum: a footer of the other
// kind is a mismatch.
TEST_P(ArtifactRoundTripTest, Version1FileWithFnvFooterStillLoads) {
  TempDir dir;
  auto frozen = TrainPipeline(36).Freeze(GetParam()).ValueOrDie();
  const fs::path v2 = dir.path() / "v2.tgz1";
  ASSERT_TRUE(frozen.SaveArtifact(v2.string()).ok());
  const std::string bytes = ReadBytes(v2);
  // The writer seals version 2 with XXH64.
  ASSERT_EQ(Resealed(bytes, 2, Xxh64), bytes);

  const fs::path v1 = dir.path() / "v1.tgz1";
  WriteBytes(v1, Resealed(bytes, 1, Fnv1a64));
  EXPECT_EQ(LoadedArtifact::Load(v1.string()).ValueOrDie()->version(), 1u);
  auto loaded = core::FrozenScorer::LoadArtifact(v1.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const data::RawTable rows = MakeScoringRows(37, 64);
  EXPECT_EQ(loaded->Score(rows).ValueOrDie(), frozen.Score(rows).ValueOrDie());

  const fs::path mixed = dir.path() / "mixed.tgz1";
  for (const std::string& sealed :
       {Resealed(bytes, 2, Fnv1a64), Resealed(bytes, 1, Xxh64)}) {
    WriteBytes(mixed, sealed);
    auto rejected = LoadedArtifact::Load(mixed.string());
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.status().message().find("checksum mismatch"),
              std::string::npos)
        << rejected.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Dtypes, ArtifactRoundTripTest,
                         ::testing::Values(Dtype::kFloat64, Dtype::kFloat32),
                         [](const ::testing::TestParamInfo<Dtype>& info) {
                           return std::string(DtypeName(info.param));
                         });

TEST(ArtifactTest, LoadedScorerSurvivesFileUnlink) {
  TempDir dir;
  auto pipeline = TrainPipeline(23);
  auto frozen = pipeline.Freeze(Dtype::kFloat32).ValueOrDie();
  const fs::path path = dir.path() / "gone.tgz1";
  ASSERT_TRUE(frozen.SaveArtifact(path.string()).ok());
  auto loaded = core::FrozenScorer::LoadArtifact(path.string()).ValueOrDie();
  // The scorer serves its own copy of the bytes; scoring must not fault or
  // change once the file is gone.
  fs::remove(path);
  const data::RawTable rows = MakeScoringRows(24, 16);
  auto before = frozen.Score(rows).ValueOrDie();
  auto after = loaded.Score(rows).ValueOrDie();
  EXPECT_EQ(before, after);
}

// Republishing over a live artifact leaves a running scorer's weights
// alone, and a fresh load sees the new file whole.
TEST(ArtifactTest, RepublishOverLoadedArtifactKeepsOldScorerIntact) {
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

  std::string bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 3] ^= 0x40;
  WriteBytes(path, bytes);
  EXPECT_FALSE(core::FrozenScorer::LoadArtifact(path.string()).ok());
}

// ---------------------------------------------------------------------------
// Hostile files: in-place rewrites of a loaded artifact, and meta blobs with
// a valid checksum but a hostile schema.

// The bytes of the .tgz1 at `path` with its meta blob replaced by `meta`
// and every tensor kept: a well-formed file (valid checksum).
std::string WithMeta(const fs::path& path, const std::string& meta) {
  auto artifact = LoadedArtifact::Load(path.string()).ValueOrDie();
  ArtifactWriter writer(artifact->dtype());
  writer.set_meta(meta);
  for (size_t i = 0; i < artifact->num_sections(); ++i) {
    const LoadedArtifact::Section& section = artifact->section(i);
    writer.AddTensor(section.rows, section.cols, section.data);
  }
  return writer.Serialize();
}

// `meta` with the digits that open line `line` replaced by `digits`. The
// lines of a frozen scorer's meta blob are: 0 version, 1 the label and
// unlabeled-value tokens, 2 the feature columns, 3 the class names, 4 m and
// k, 5 the step count.
std::string WithLeadingNumber(const std::string& meta, size_t line,
                              const std::string& digits) {
  size_t begin = 0;
  for (size_t i = 0; i < line; ++i) begin = meta.find('\n', begin) + 1;
  size_t end = begin;
  while (end < meta.size() && meta[end] >= '0' && meta[end] <= '9') ++end;
  EXPECT_GT(end, begin) << "line " << line << " opens with no number";
  return meta.substr(0, begin) + digits + meta.substr(end);
}

// A live artifact rewritten in place — truncated, or overwritten with
// same-size zeros or garbage, as cp, rsync --inplace or an editor would —
// cannot reach the scorer already loaded from it, and a fresh load of the
// damaged file fails with an error, not a signal.
TEST(ArtifactTest, InPlaceRewriteCannotReachALoadedScorer) {
  TempDir dir;
  auto frozen = TrainPipeline(30).Freeze(Dtype::kFloat32).ValueOrDie();
  const data::RawTable rows = MakeScoringRows(31, 32);
  const std::vector<double> expected = frozen.Score(rows).ValueOrDie();
  const fs::path path = dir.path() / "live.tgz1";

  for (const char* damage : {"truncate", "zeros", "garbage"}) {
    SCOPED_TRACE(damage);
    ASSERT_TRUE(frozen.SaveArtifact(path.string()).ok());
    auto served = core::FrozenScorer::LoadArtifact(path.string());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->Score(rows).ValueOrDie(), expected);

    const size_t size = fs::file_size(path);
    const bool truncate = std::string(damage) == "truncate";
    if (truncate) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
    } else {
      // in|out opens the existing inode without truncating it.
      std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
      std::string bytes(size, '\0');
      if (std::string(damage) == "garbage") {
        Rng rng(32);
        for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
      }
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ASSERT_EQ(fs::file_size(path), truncate ? 0u : size);

    EXPECT_EQ(served->Score(rows).ValueOrDie(), expected);
    EXPECT_EQ(core::FrozenScorer::LoadArtifact(path.string()).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// A meta blob is untrusted even when its checksum is valid: anyone can
// recompute the footer. A huge count or token length must be an error,
// never an allocation sized from it (which aborts the process).
TEST(ArtifactTest, HugeMetaCountsAreInvalidArgument) {
  TempDir dir;
  const fs::path good = dir.path() / "good.tgz1";
  ASSERT_TRUE(TrainPipeline(33)
                  .Freeze(Dtype::kFloat32)
                  .ValueOrDie()
                  .SaveArtifact(good.string())
                  .ok());
  const std::string meta(LoadedArtifact::Load(good.string()).ValueOrDie()->meta());

  struct Case {
    const char* what;
    size_t line;
    const char* digits;
  };
  const Case cases[] = {
      {"feature-column count 2^62", 2, "4611686018427387904"},
      {"class-name count 2^62", 3, "4611686018427387904"},
      {"step count 2^61-1", 5, "2305843009213693951"},
      {"string token length", 1, "99999999999999999"},
  };
  const fs::path path = dir.path() / "hostile.tgz1";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WriteBytes(path, WithMeta(good, WithLeadingNumber(meta, c.line, c.digits)));
    ASSERT_TRUE(LoadedArtifact::Load(path.string()).ok());  // Checksum valid.
    auto loaded = core::FrozenScorer::LoadArtifact(path.string());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  // The rebuild itself is faithful: the unedited meta still loads.
  WriteBytes(path, WithMeta(good, meta));
  EXPECT_TRUE(core::FrozenScorer::LoadArtifact(path.string()).ok());
}

// Seeded mutations of a fixture's meta tokens, each written back with a
// valid checksum: every load returns ok() or an error status, and a scorer
// that loads also scores a record without crashing. Under ASan/UBSan (the
// serve label) this is the .tgz1 meta parser's fuzz pass.
TEST(ArtifactTest, MutatedMetaTokensLoadOrFailCleanly) {
  TempDir dir;
  const fs::path fixture = dir.path() / "fixture.tgz1";
  ASSERT_TRUE(TrainPipeline(34)
                  .Freeze(Dtype::kFloat64)
                  .ValueOrDie()
                  .SaveArtifact(fixture.string())
                  .ok());
  const std::string meta(
      LoadedArtifact::Load(fixture.string()).ValueOrDie()->meta());
  // The meta blob as alternating separator / token pieces, so a mutation
  // replaces whole tokens and keeps the layout around them.
  std::vector<std::string> tokens;
  for (size_t i = 0; i < meta.size();) {
    const bool space = std::isspace(static_cast<unsigned char>(meta[i])) != 0;
    size_t j = i;
    while (j < meta.size() &&
           (std::isspace(static_cast<unsigned char>(meta[j])) != 0) == space) {
      ++j;
    }
    tokens.push_back(meta.substr(i, j - i));
    i = j;
  }
  const std::vector<std::string> replacements = {
      "0", "1", "-1", "2", "2147483647", "2147483648", "4294967296",
      "18446744073709551615", "99999999999999999999", "1e308", "nan", "-0",
      "0:", "1:", "5:x", "3:abc 1:z", "", "onehot-v1",
      "targad-frozen-meta-v1"};

  Rng rng(35);
  const fs::path path = dir.path() / "mutant.tgz1";
  const std::vector<core::RowScorer::Record> record = {{"0.5,0.5,web", -1}};
  size_t loaded_ok = 0;
  constexpr int kBudget = 600;
  for (int round = 0; round < kBudget; ++round) {
    std::vector<std::string> mutant = tokens;
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits; ++e) {
      std::string& token = mutant[rng.UniformInt(mutant.size())];
      switch (rng.UniformInt(4)) {
        case 0:  // A boundary value or a token of the wrong kind.
          token = replacements[rng.UniformInt(replacements.size())];
          break;
        case 1:  // One byte flipped to printable noise.
          if (!token.empty()) {
            token[rng.UniformInt(token.size())] =
                static_cast<char>(33 + rng.UniformInt(94));
          }
          break;
        case 2:  // Dropped.
          token.clear();
          break;
        default:  // Duplicated.
          token += " " + token;
          break;
      }
    }
    std::string mutated;
    for (const std::string& token : mutant) mutated += token;
    if (rng.UniformInt(8) == 0) {  // Cut short.
      mutated.resize(rng.UniformInt(mutated.size() + 1));
    }
    WriteBytes(path, WithMeta(fixture, mutated));
    auto loaded = core::FrozenScorer::LoadArtifact(path.string());
    if (!loaded.ok()) continue;
    ++loaded_ok;
    EXPECT_EQ(loaded->ScoreRecords(record).size(), 1u);
  }
  // Some mutations are harmless (a renamed column, a changed slope): the
  // loop reached the builder, not only the first parse error.
  EXPECT_GT(loaded_ok, 0u);
  EXPECT_LT(loaded_ok, static_cast<size_t>(kBudget));
}

}  // namespace
}  // namespace nn
}  // namespace targad
