#include "fixtures.h"

#include "common/rng.h"
#include "common/string_util.h"
#include "data/profiles.h"

namespace targad {
namespace harness {

namespace {

// Layout of the UNSW-like profile's feature vector: numeric ambient
// columns first, then one block of one-hot columns per categorical column.
constexpr size_t kUnswNumeric = 148;
constexpr size_t kUnswCategorical = 8;
constexpr size_t kUnswCategories = 6;

std::vector<std::string> UnswCells(const nn::Matrix& x, size_t r) {
  std::vector<std::string> cells;
  cells.reserve(kUnswNumeric + kUnswCategorical);
  for (size_t j = 0; j < kUnswNumeric; ++j) {
    cells.push_back(FormatDouble(x.At(r, j), 6));
  }
  for (size_t c = 0; c < kUnswCategorical; ++c) {
    size_t hot = 0;
    for (size_t s = 0; s < kUnswCategories; ++s) {
      if (x.At(r, kUnswNumeric + c * kUnswCategories + s) > 0.5) hot = s;
    }
    cells.push_back("v" + std::to_string(hot));
  }
  return cells;
}

std::vector<std::string> UnswColumns() {
  std::vector<std::string> columns;
  for (size_t j = 0; j < kUnswNumeric; ++j) {
    columns.push_back("n" + std::to_string(j));
  }
  for (size_t c = 0; c < kUnswCategorical; ++c) {
    columns.push_back("c" + std::to_string(c));
  }
  return columns;
}

}  // namespace

data::RawTable FraudTrainingTable(uint64_t seed, size_t normals,
                                  double shift) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  for (size_t i = 0; i < normals; ++i) {
    const bool web = rng.Bernoulli(0.5);
    table.rows.push_back(
        {FormatDouble(rng.Normal((web ? 20.0 : 60.0) + shift, 4.0), 6),
         FormatDouble(rng.Normal(0.3, 0.05), 6), web ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < normals / 16 + 8; ++i) {
    table.rows.push_back({FormatDouble(rng.Normal(150.0 + shift, 5.0), 6),
                          FormatDouble(rng.Normal(0.9, 0.03), 6), "web",
                          "fraud"});
  }
  return table;
}

LabeledRows FraudRequests(uint64_t seed, size_t n) {
  Rng rng(seed);
  LabeledRows out;
  out.columns = {"amount", "rate", "channel"};
  for (size_t i = 0; i < n; ++i) {
    // Row 0 is a target and row 1 a normal, so both classes are present.
    const double u = i == 0 ? 0.0 : (i == 1 ? 1.0 : rng.Uniform());
    if (u < 0.08) {
      out.rows.push_back({FormatDouble(rng.Normal(150.0, 8.0), 6),
                          FormatDouble(rng.Normal(0.9, 0.05), 6), "web"});
      out.target.push_back(1);
      out.kind.push_back("target");
    } else if (u < 0.15) {
      out.rows.push_back({FormatDouble(rng.Normal(95.0, 25.0), 6),
                          FormatDouble(rng.Normal(0.05, 0.03), 6), "app"});
      out.target.push_back(0);
      out.kind.push_back("non-target");
    } else {
      const bool web = rng.Bernoulli(0.5);
      out.rows.push_back(
          {FormatDouble(rng.Normal(web ? 20.0 : 60.0, 6.0), 6),
           FormatDouble(rng.Normal(0.3, 0.08), 6), web ? "web" : "pos"});
      out.target.push_back(0);
      out.kind.push_back("normal");
    }
  }
  return out;
}

core::PipelineConfig FixtureConfig(uint64_t seed, int epochs, int ae_epochs,
                                   int k) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = k;
  config.model.selection.autoencoder.epochs = ae_epochs;
  config.model.epochs = epochs;
  return config;
}

Result<UnswData> MakeUnswData(uint64_t seed, const UnswSizes& sizes) {
  data::DatasetProfile profile = data::UnswLikeProfile();
  profile.assembly.unlabeled_size = sizes.unlabeled;
  profile.assembly.val_normal = 16;
  profile.assembly.val_target = 16;
  profile.assembly.val_nontarget = 16;
  profile.assembly.test_normal = sizes.test_normal;
  profile.assembly.test_target = sizes.test_target;
  profile.assembly.test_nontarget = sizes.test_nontarget;
  TARGAD_ASSIGN_OR_RETURN(data::DatasetBundle bundle,
                          data::MakeBundle(profile, seed));

  UnswData out;
  out.train.column_names = UnswColumns();
  out.train.column_names.push_back("label");
  const data::TrainingSet& train = bundle.train;
  for (size_t i = 0; i < train.num_labeled(); ++i) {
    std::vector<std::string> cells = UnswCells(train.labeled_x, i);
    cells.push_back("target_" + std::to_string(train.labeled_class[i]));
    out.train.rows.push_back(std::move(cells));
  }
  for (size_t i = 0; i < train.num_unlabeled(); ++i) {
    std::vector<std::string> cells = UnswCells(train.unlabeled_x, i);
    cells.push_back("");
    out.train.rows.push_back(std::move(cells));
  }

  out.test.columns = UnswColumns();
  const data::EvalSet& test = bundle.test;
  for (size_t i = 0; i < test.size(); ++i) {
    out.test.rows.push_back(UnswCells(test.x, i));
    const data::InstanceKind kind = test.kind[i];
    out.test.target.push_back(kind == data::InstanceKind::kTarget ? 1 : 0);
    out.test.kind.push_back(data::InstanceKindName(kind));
  }
  return out;
}

}  // namespace harness
}  // namespace targad
