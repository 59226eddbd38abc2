#include "io/json_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/macros.hpp"

namespace eimm {
namespace {

ExperimentRecord sample_record() {
  ExperimentRecord r;
  r.dataset = "com-Amazon";
  r.algorithm = "EfficientIMM";
  r.diffusion = "IC";
  r.threads = 8;
  r.k = 50;
  r.epsilon = 0.5;
  r.rng_seed = 1234;
  r.total_seconds = 0.97;
  r.sampling_seconds = 0.6;
  r.selection_seconds = 0.3;
  r.num_rrr_sets = 4096;
  r.rrr_memory_bytes = 1 << 20;
  r.seeds = {5, 17, 99};
  return r;
}

TEST(JsonLog, ContainsArtifactFieldNames) {
  std::ostringstream os;
  write_experiment_json(os, sample_record());
  const std::string out = os.str();
  for (const char* field :
       {"\"Input\"", "\"Algorithm\"", "\"DiffusionModel\"", "\"NumThreads\"",
        "\"Total\"", "\"GenerateRRRSets\"", "\"FindMostInfluentialSet\"",
        "\"Seeds\"", "\"K\"", "\"Epsilon\""}) {
    EXPECT_NE(out.find(field), std::string::npos) << field;
  }
}

TEST(JsonLog, SeedValuesSerialized) {
  std::ostringstream os;
  write_experiment_json(os, sample_record());
  const std::string out = os.str();
  EXPECT_NE(out.find("17"), std::string::npos);
  EXPECT_NE(out.find("99"), std::string::npos);
}

TEST(JsonLog, WritesFileWithConventionalName) {
  const std::string dir = ::testing::TempDir() + "/eimm_logs";
  std::filesystem::remove_all(dir);
  const std::string path = write_experiment_json_file(dir, sample_record());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(path.find("com-Amazon_EfficientIMM_8.json"), std::string::npos);
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"Input\": \"com-Amazon\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(JsonLog, FailedWriteThrows) {
  // /dev/full accepts the open and buffered writes, then fails the flush
  // with ENOSPC: a writer that checks the stream before flushing would
  // report success and leave a truncated file behind.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(write_metrics_json_file("/dev/full", obs::MetricsSnapshot{}),
               CheckError);
}

}  // namespace
}  // namespace eimm
