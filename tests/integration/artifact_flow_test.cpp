// Exercises the whole artifact pipeline in-process: run both engines
// across thread counts -> write the artifact-style JSON logs -> parse
// them back -> compute the best-vs-best speedup exactly the way
// tools/extract_results does. Guards the tooling contract end to end.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/imm.hpp"
#include "io/json_log.hpp"
#include "support/json_parse.hpp"
#include "workloads/registry.hpp"

namespace eimm {
namespace {

ExperimentRecord record_from(const ImmResult& result,
                             const std::string& dataset, Engine engine,
                             const ImmOptions& options) {
  ExperimentRecord record;
  record.dataset = dataset;
  record.algorithm = std::string(to_string(engine));
  record.diffusion = std::string(to_string(options.model));
  record.threads = result.threads_used;
  record.k = static_cast<int>(options.k);
  record.epsilon = options.epsilon;
  record.rng_seed = options.rng_seed;
  record.total_seconds = result.breakdown.total_seconds;
  record.sampling_seconds = result.breakdown.sampling_seconds;
  record.selection_seconds = result.breakdown.selection_seconds;
  record.num_rrr_sets = result.num_rrr_sets;
  record.rrr_memory_bytes = result.rrr_memory_bytes;
  record.seeds = result.seeds;
  return record;
}

TEST(ArtifactFlow, LogsRoundTripThroughParserWithBestTimeExtraction) {
  const std::string dir = ::testing::TempDir() + "/eimm_artifact_flow";
  std::filesystem::remove_all(dir);

  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.02, 3);
  ImmOptions options;
  options.k = 5;
  options.model = DiffusionModel::kIndependentCascade;
  options.rng_seed = 13;
  options.max_rrr_sets = 50'000;
  // Scalar sampling, so both engines build the same IC pool and every
  // log below reports one seed set.
  options.fused_sampling = FusedSampling::kOff;

  // Strong-scaling sweep for both engines, logged like the artifact.
  for (const Engine engine : {Engine::kEfficient, Engine::kRipples}) {
    for (const int threads : {1, 2, 4}) {
      options.threads = threads;
      const ImmResult result = run_imm(g, options, engine);
      write_experiment_json_file(
          dir, record_from(result, "com-Amazon", engine, options));
    }
  }

  // Re-read every log through the parser and find best-per-algorithm.
  double best_efficient = 1e300;
  double best_ripples = 1e300;
  std::size_t files = 0;
  std::vector<double> first_seeds;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream is(entry.path());
    std::stringstream buffer;
    buffer << is.rdbuf();
    const JsonValue doc = parse_json(buffer.str());
    ++files;
    EXPECT_EQ(doc.at("Input").as_string(), "com-Amazon");
    EXPECT_EQ(doc.at("K").as_number(), 5.0);
    EXPECT_EQ(doc.at("Seeds").as_array().size(), 5u);
    const double total = doc.at("Total").as_number();
    EXPECT_GT(total, 0.0);
    if (doc.at("Algorithm").as_string() == "EfficientIMM") {
      best_efficient = std::min(best_efficient, total);
    } else {
      best_ripples = std::min(best_ripples, total);
    }
    // Every run of every engine must report the identical seed set.
    std::vector<double> seeds;
    for (const JsonValue& s : doc.at("Seeds").as_array()) {
      seeds.push_back(s.as_number());
    }
    if (first_seeds.empty()) first_seeds = seeds;
    EXPECT_EQ(seeds, first_seeds);
  }
  EXPECT_EQ(files, 6u);
  EXPECT_LT(best_efficient, 1e300);
  EXPECT_LT(best_ripples, 1e300);
  const double speedup = best_ripples / best_efficient;
  EXPECT_GT(speedup, 0.0);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace eimm
