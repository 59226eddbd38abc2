// Guards the bench-harness contract: the defaults documented in
// bench/common.hpp must match BenchConfig, and the EIMM_* environment
// knobs must actually steer load_config.
#include "common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

namespace eimm::bench {
namespace {

/// Scoped setenv/unsetenv so tests cannot leak knobs into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(BenchConfig, DefaultScaleMatchesTheDocumentedValue) {
  // bench/common.hpp documents EIMM_SCALE's default as 0.3; the struct
  // default and the header comment must not drift apart again.
  EXPECT_DOUBLE_EQ(BenchConfig{}.scale, 0.3);

  const ScopedEnv unset("EIMM_SCALE", nullptr);
  EXPECT_DOUBLE_EQ(load_config().scale, 0.3);
}

TEST(BenchConfig, ScaleHonoursTheEnvironmentKnob) {
  const ScopedEnv scale("EIMM_SCALE", "0.125");
  EXPECT_DOUBLE_EQ(load_config().scale, 0.125);
}

TEST(BenchConfig, OtherDefaultsMatchTheDocumentedValues) {
  const BenchConfig defaults;
  EXPECT_EQ(defaults.reps, 1);
  EXPECT_EQ(defaults.k, 50u);
  EXPECT_DOUBLE_EQ(defaults.epsilon, 0.5);
  EXPECT_EQ(defaults.max_rrr_sets, std::uint64_t{1} << 20);
}

TEST(BenchConfig, JsonPathDefaultsToCurrentDirectory) {
  const ScopedEnv unset("EIMM_BENCH_JSON_DIR", nullptr);
  EXPECT_EQ(bench_json_path("BENCH_fused_sampling.json"),
            "./BENCH_fused_sampling.json");
}

TEST(BenchConfig, JsonPathHonoursTheEnvironmentKnob) {
  const ScopedEnv dir("EIMM_BENCH_JSON_DIR", "/tmp/eimm-bench");
  EXPECT_EQ(bench_json_path("BENCH_fused_sampling.json"),
            "/tmp/eimm-bench/BENCH_fused_sampling.json");
}

}  // namespace
}  // namespace eimm::bench
