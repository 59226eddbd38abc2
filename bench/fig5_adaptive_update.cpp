// Fig. 5 reproduction: runtime with vs without the adaptive vertex-
// occurrence counter update at full thread count (paper: 11.6x-60.9x
// relative speedup of the *selection* step on 4 skewed datasets).
//
// With adaptive updates, once a seed covers most surviving RRR sets the
// kernel rebuilds the counter from the (few) survivors instead of
// decrementing over the (many) covered sets.
//
// Without adaptive updates every round decrements. A decrement whose
// seed is in the kernel's hot-vertex index walks only the sets that seed
// covers; any other seed scans all θ sets. The index exists only when
// the top vertex covers at most θ/8 sets, which holds on sparse pools.
// There the non-adaptive run is far cheaper than a full scan per round,
// so the gap this figure shows shrinks. Dense, skewed IC pools build no
// index and keep the paper's gap.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "support/table.hpp"

int main() {
  using namespace eimm;
  using namespace eimm::bench;

  const BenchConfig config = load_config();
  print_banner("Fig. 5: adaptive counter update on/off (IC, max threads)",
               config);

  const char* datasets[] = {"com-Amazon", "com-YouTube", "soc-Pokec",
                            "com-LJ"};

  AsciiTable table({"Graph", "w/o adaptive (s)", "w/ adaptive (s)",
                    "Selection speedup", "Rebuild rounds"});
  for (const char* name : datasets) {
    const DiffusionGraph graph = load_workload(
        config, name, DiffusionModel::kIndependentCascade);

    ImmOptions with = imm_options(config, DiffusionModel::kIndependentCascade,
                                  config.max_threads);
    with.adaptive_update = true;
    ImmOptions without = with;
    without.adaptive_update = false;

    double with_selection = 0.0;
    std::uint32_t rebuilds = 0;
    const double with_total = best_seconds(config.reps, [&] {
      const ImmResult r = run_efficient_imm(graph, with);
      with_selection = r.breakdown.selection_seconds;
      rebuilds = r.rebuild_rounds;
      return r.breakdown.total_seconds;
    });
    double without_selection = 0.0;
    const double without_total = best_seconds(config.reps, [&] {
      const ImmResult r = run_efficient_imm(graph, without);
      without_selection = r.breakdown.selection_seconds;
      return r.breakdown.total_seconds;
    });
    EIMM_UNUSED(with_total);
    EIMM_UNUSED(without_total);

    table.new_row()
        .add(name)
        .add(without_selection, 4)
        .add(with_selection, 4)
        .add(format_speedup(without_selection /
                                std::max(with_selection, 1e-9),
                            1))
        .add(static_cast<std::uint64_t>(rebuilds));
  }
  table.set_title("Fig. 5 — Find_Most_Influential_Set time, w/ vs w/o "
                  "adaptive update");
  table.print(std::cout);
  std::printf(
      "\nShape check: adaptive update wins where seeds cover most of the\n"
      "pool (dense/skewed IC graphs); paper reports 11.6x-60.9x on these\n"
      "four datasets at 128 cores.\n");
  return 0;
}
