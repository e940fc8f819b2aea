#include "nn/serialize.h"

#include <sstream>

#include <gtest/gtest.h>

#include "core/targad.h"
#include "test_util.h"

namespace targad {
namespace {

TEST(MatrixSerializeTest, RoundTripPreservesValuesExactly) {
  Rng rng(1);
  nn::Matrix m(3, 4);
  for (double& v : m.data()) v = rng.Normal() * 1e-7;
  std::stringstream stream;
  ASSERT_TRUE(nn::WriteMatrix(stream, m).ok());
  auto loaded = nn::ReadMatrix(stream).ValueOrDie();
  ASSERT_TRUE(loaded.SameShape(m));
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.data()[i], m.data()[i]);
  }
}

TEST(MatrixSerializeTest, RejectsCorruptHeaders) {
  std::stringstream bad1("matrx 2 2\n1 2\n3 4\n");
  EXPECT_FALSE(nn::ReadMatrix(bad1).ok());
  std::stringstream bad2("matrix 2\n");
  EXPECT_FALSE(nn::ReadMatrix(bad2).ok());
  std::stringstream truncated("matrix 2 2\n1 2 3\n");
  EXPECT_FALSE(nn::ReadMatrix(truncated).ok());
  std::stringstream nonfinite("matrix 1 1\nnan\n");
  EXPECT_FALSE(nn::ReadMatrix(nonfinite).ok());
}

// The header's dimensions size nothing: a product that wraps to 0 and one
// above the 2^28-element cap are both InvalidArgument.
TEST(MatrixSerializeTest, RejectsHostileDimensions) {
  for (const char* text : {"matrix 4294967296 4294967296\n",
                           "matrix 9223372036854775808 2\n",
                           "matrix 16385 16384\n1 2\n"}) {
    std::stringstream in(text);
    const Result<nn::Matrix> m = nn::ReadMatrix(in);
    ASSERT_FALSE(m.ok()) << text;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParamsSerializeTest, RoundTripThroughIdenticalArchitecture) {
  Rng r1(2), r2(3);
  nn::Sequential a = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential b = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r2);
  std::stringstream stream;
  ASSERT_TRUE(nn::WriteParams(stream, a).ok());
  ASSERT_TRUE(nn::ReadParams(stream, &b).ok());

  nn::Matrix x(3, 4, 0.25);
  nn::Matrix ya = a.Forward(x);
  nn::Matrix yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(MatrixSerializeTest, RejectsNonNumericCell) {
  std::stringstream garbage("matrix 2 2\n1 2\nbogus 4\n");
  auto result = nn::ReadMatrix(garbage);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParamsSerializeTest, RejectsArchitectureMismatch) {
  Rng r1(4), r2(5);
  nn::Sequential a = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential narrower = nn::Sequential::MakeMlp(
      {4, 6, 2}, nn::Activation::kReLU, nn::Activation::kNone, &r2);
  std::stringstream stream;
  ASSERT_TRUE(nn::WriteParams(stream, a).ok());
  EXPECT_FALSE(nn::ReadParams(stream, &narrower).ok());
}

// Failure-atomicity: a ReadParams that fails partway must not leave the
// target network half-overwritten. Exercises the two-phase (read-validate,
// then commit) implementation.
TEST(ParamsSerializeTest, FailedReadLeavesNetworkUntouched) {
  Rng r1(6), r2(7);
  nn::Sequential a = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential b = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r2);
  nn::Matrix x(3, 4, 0.25);
  const nn::Matrix before = b.Forward(x);

  std::stringstream full;
  ASSERT_TRUE(nn::WriteParams(full, a).ok());
  const std::string serialized = full.str();

  // Truncated mid-stream: the header and first matrix parse fine, later
  // matrices are cut off.
  std::stringstream truncated(serialized.substr(0, serialized.size() / 2));
  EXPECT_FALSE(nn::ReadParams(truncated, &b).ok());

  // Corrupt payload cell in the LAST matrix: everything before it reads
  // cleanly, so a non-atomic implementation would have already overwritten
  // the earlier parameters. The token must start with the junk character —
  // trailing junk after a parsed double would not fail operator>>.
  std::string corrupted = serialized;
  const size_t last_digit = corrupted.find_last_of("0123456789");
  ASSERT_NE(last_digit, std::string::npos);
  const size_t sep = corrupted.find_last_of(" \n", last_digit);
  ASSERT_NE(sep, std::string::npos);
  corrupted[sep + 1] = 'x';
  std::stringstream bad_cell(corrupted);
  EXPECT_FALSE(nn::ReadParams(bad_cell, &b).ok());

  const nn::Matrix after = b.Forward(x);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.data()[i], before.data()[i]) << "param state corrupted";
  }
}

TEST(ParamsSerializeTest, RejectsParameterCountMismatch) {
  Rng r1(8), r2(9);
  nn::Sequential a = nn::Sequential::MakeMlp({4, 8, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential deeper = nn::Sequential::MakeMlp(
      {4, 8, 8, 2}, nn::Activation::kReLU, nn::Activation::kNone, &r2);
  std::stringstream stream;
  ASSERT_TRUE(nn::WriteParams(stream, a).ok());
  auto status = nn::ReadParams(stream, &deeper);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ParamsSerializeTest, HeaderCarriesF64DtypeTag) {
  Rng rng(10);
  nn::Sequential net = nn::Sequential::MakeMlp(
      {3, 4, 2}, nn::Activation::kReLU, nn::Activation::kNone, &rng);
  std::stringstream stream;
  ASSERT_TRUE(nn::WriteParams(stream, net).ok());
  std::string tag, dtype;
  size_t count = 0;
  stream >> tag >> count >> dtype;
  EXPECT_EQ(tag, "params");
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(dtype, "f64");
}

TEST(ParamsSerializeTest, AcceptsLegacyUntaggedHeader) {
  Rng r1(11), r2(12);
  nn::Sequential a = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential b = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r2);
  std::stringstream tagged;
  ASSERT_TRUE(nn::WriteParams(tagged, a).ok());
  // Rewrite the header the way pre-dtype-tag artifacts were written.
  std::string text = tagged.str();
  const std::string modern = "params 4 f64\n";
  ASSERT_EQ(text.compare(0, modern.size(), modern), 0);
  text.replace(0, modern.size(), "params 4\n");

  std::stringstream legacy(text);
  ASSERT_TRUE(nn::ReadParams(legacy, &b).ok());
  nn::Matrix x(2, 3, 0.5);
  nn::Matrix ya = a.Forward(x);
  nn::Matrix yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(ParamsSerializeTest, RejectsFloat32TaggedStream) {
  Rng r1(13), r2(14);
  nn::Sequential a = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential b = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r2);
  std::stringstream tagged;
  ASSERT_TRUE(nn::WriteParams(tagged, a).ok());
  std::string text = tagged.str();
  const size_t pos = text.find(" f64\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, " f32\n");

  std::stringstream narrow(text);
  auto status = nn::ReadParams(narrow, &b);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("dtype mismatch"), std::string::npos)
      << status.message();
}

TEST(ParamsSerializeTest, RejectsUnknownDtypeTag) {
  Rng r1(15), r2(16);
  nn::Sequential a = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r1);
  nn::Sequential b = nn::Sequential::MakeMlp({3, 4, 2}, nn::Activation::kReLU,
                                             nn::Activation::kNone, &r2);
  std::stringstream tagged;
  ASSERT_TRUE(nn::WriteParams(tagged, a).ok());
  std::string text = tagged.str();
  const size_t pos = text.find(" f64\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, " bf16\n");
  std::stringstream bogus(text);
  EXPECT_FALSE(nn::ReadParams(bogus, &b).ok());
}

TEST(TargAdSerializeTest, SaveLoadReproducesScoresExactly) {
  data::DatasetBundle bundle = targad::testing::TinyBundle(51);
  core::TargADConfig config;
  config.seed = 9;
  config.selection.k = 2;
  config.epochs = 10;
  config.selection.autoencoder.epochs = 10;
  auto model = core::TargAD::Make(config).ValueOrDie();
  TARGAD_CHECK_OK(model.Fit(bundle.train));

  std::stringstream stream;
  ASSERT_TRUE(model.Save(stream).ok());
  auto loaded = core::TargAD::Load(stream).ValueOrDie();
  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.m(), model.m());
  EXPECT_EQ(loaded.k(), model.k());

  const auto original = model.Score(bundle.test.x);
  const auto restored = loaded.Score(bundle.test.x);
  ASSERT_EQ(original.size(), restored.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original[i], restored[i]);
  }
}

TEST(TargAdSerializeTest, SaveBeforeFitFails) {
  core::TargADConfig config;
  auto model = core::TargAD::Make(config).ValueOrDie();
  std::stringstream stream;
  EXPECT_EQ(model.Save(stream).code(), StatusCode::kFailedPrecondition);
}

TEST(TargAdSerializeTest, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_FALSE(core::TargAD::Load(empty).ok());
  std::stringstream wrong_magic("not-a-model 1 2 3\n");
  EXPECT_FALSE(core::TargAD::Load(wrong_magic).ok());
  std::stringstream truncated("targad-v1\n2 2 10\nhidden 2 64 32\n");
  EXPECT_FALSE(core::TargAD::Load(truncated).ok());
}

// A 2-3-2 classifier (m = k = 1): the header line, the hidden widths, then
// the four parameter matrices behind them.
std::string TinyModelText(const std::string& input_dim,
                          const std::string& hidden) {
  return "targad-v1\n1 1 " + input_dim + "\nhidden " + hidden +
         "\nparams 4 f64\n"
         "matrix 2 3\n1 2 3\n4 5 6\n"
         "matrix 1 3\n0 0 0\n"
         "matrix 3 2\n1 2\n3 4\n5 6\n"
         "matrix 1 2\n0 0\n";
}

// The classifier is built only once the parameter matrices agree with the
// header's widths, so a width of 2^40 is InvalidArgument, not an
// allocation.
TEST(TargAdSerializeTest, LoadRejectsWidthsTheParametersDoNotHold) {
  std::stringstream good(TinyModelText("2", "1 3"));
  const Result<core::TargAD> loaded = core::TargAD::Load(good);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Score(nn::Matrix(1, 2, {1.0, 1.0})).size(), 1u);

  for (const std::string& text :
       {TinyModelText("1099511627776", "1 3"),
        TinyModelText("2", "1 1099511627776"),
        TinyModelText("2", "2 3 1099511627776"), TinyModelText("3", "1 3")}) {
    std::stringstream in(text);
    const Result<core::TargAD> model = core::TargAD::Load(in);
    ASSERT_FALSE(model.ok()) << text;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace targad
