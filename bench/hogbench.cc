// hogbench: every experiment of the paper's evaluation and its extensions
// behind one binary (src/exp/experiment.h).
//
//   hogbench --list                   # every experiment, one per line
//   hogbench fig4 --fast              # one experiment, uniform flags
//   hogbench sched --fast --audit     # gated: exits 1 on a gate failure
#include "src/exp/bench_main.h"

int main(int argc, char** argv) {
  return hogsim::exp::HogbenchMain(argc, argv);
}
