// Compressed-pool determinism sweep: the gap-coded RRR pool backing
// (ImmOptions::pool_compress / EIMM_POOL_COMPRESS) must emit
// BIT-IDENTICAL seed sequences to the raw reference for every codec,
// model, and shard count — compression changes storage, never set
// contents or greedy outcomes. This is the PR's acceptance contract,
// enforced under the statcheck label CI runs explicitly (also with
// EIMM_POOL_COMPRESS=1 exported, which flips the kAuto default this
// suite exercises).
#include <gtest/gtest.h>

#include "core/imm.hpp"
#include "rrr/compressed_pool.hpp"
#include "statcheck.hpp"
#include "test_util.hpp"

namespace eimm {
namespace {

using statcheck::statcheck_imm_options;
using statcheck::statcheck_workload;

TEST(CompressedDeterminism, CompressedSeedsMatchRawAcrossModelsAndCodecs) {
  for (const DiffusionModel model :
       {DiffusionModel::kIndependentCascade,
        DiffusionModel::kLinearThreshold}) {
    const DiffusionGraph g = statcheck_workload(
        model == DiffusionModel::kIndependentCascade ? "com-Amazon"
                                                     : "com-DBLP",
        model, 0.03);
    auto opt = statcheck_imm_options(model, 6);
    opt.pool_compress = PoolCompression::kNone;
    const ImmResult raw = run_imm(g, opt, Engine::kEfficient);
    EXPECT_EQ(raw.pool_compression_used, PoolCompression::kNone);
    EXPECT_EQ(raw.compressed_payload_bytes, 0u);

    for (const PoolCompression mode :
         {PoolCompression::kVarint, PoolCompression::kHuffman}) {
      opt.pool_compress = mode;
      const ImmResult compressed = run_imm(g, opt, Engine::kEfficient);
      EXPECT_EQ(compressed.seeds, raw.seeds)
          << to_string(model) << " mode=" << to_string(mode);
      EXPECT_DOUBLE_EQ(compressed.coverage_fraction, raw.coverage_fraction);
      EXPECT_EQ(compressed.num_rrr_sets, raw.num_rrr_sets);
      EXPECT_EQ(compressed.pool_compression_used, mode);
      EXPECT_GT(compressed.compressed_payload_bytes, 0u);
      // No footprint assertion here: the statcheck workloads are tiny
      // and dense enough that the raw pool holds most sets as bitmaps,
      // which gap coding cannot undercut in this regime. CI's
      // "Compressed pool smoke" asserts the bytes reduction at a
      // sparse-set scale (com-LJ LT).
    }
  }
}

TEST(CompressedDeterminism, CompressedShardedGridMatchesRawFlatReference) {
  // Compression composes with the sharded zero-copy pipeline: every
  // (codec, shards) cell against the raw single-shard reference.
  const DiffusionGraph g = statcheck_workload(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.shards = 1;
  opt.pool_compress = PoolCompression::kNone;
  const ImmResult reference = run_imm(g, opt, Engine::kEfficient);

  for (const PoolCompression mode :
       {PoolCompression::kVarint, PoolCompression::kHuffman}) {
    for (const int shards : {1, 2, 5}) {
      opt.shards = shards;
      opt.pool_compress = mode;
      const ImmResult candidate = run_imm(g, opt, Engine::kEfficient);
      EXPECT_EQ(candidate.seeds, reference.seeds)
          << "mode=" << to_string(mode) << " shards=" << shards;
      EXPECT_EQ(candidate.shards_used, shards);
      EXPECT_EQ(candidate.pool_compression_used, mode);
    }
  }
}

TEST(CompressedDeterminism, EnvironmentAutoModeMatchesExplicitRequest) {
  // EIMM_POOL_COMPRESS=1 (the CI smoke configuration) must resolve to
  // the same build an explicit kVarint request produces.
  const DiffusionGraph g = statcheck_workload(
      "com-DBLP", DiffusionModel::kIndependentCascade, 0.03);
  auto opt = statcheck_imm_options(DiffusionModel::kIndependentCascade, 6);
  opt.pool_compress = PoolCompression::kVarint;
  const ImmResult explicit_run = run_imm(g, opt, Engine::kEfficient);

  testing::ScopedEnv env("EIMM_POOL_COMPRESS", "1");
  opt.pool_compress = PoolCompression::kAuto;
  const ImmResult auto_run = run_imm(g, opt, Engine::kEfficient);
  EXPECT_EQ(auto_run.seeds, explicit_run.seeds);
  EXPECT_EQ(auto_run.pool_compression_used, PoolCompression::kVarint);
  EXPECT_EQ(auto_run.compressed_payload_bytes,
            explicit_run.compressed_payload_bytes);
}

}  // namespace
}  // namespace eimm
