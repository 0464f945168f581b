// reproduce <name> | all: runs one experiment of bench/, or every one
// in list order (exit 1 if any failed). Each is `int <name>()` in
// bench/<name>.cc, whose header states the claim it checks, and its
// stdout is pinned by bench/golden/<name>.txt. Anything but exactly one
// known name or `all` lists the names on stderr and exits 2.
#include <cstdio>
#include <cstring>

// PRR_EXPERIMENTS(X), generated from the list in bench/CMakeLists.txt.
#include "experiments.h"

#define PRR_DECLARE(name) int name();
PRR_EXPERIMENTS(PRR_DECLARE)

namespace {

struct Experiment {
  const char* name;
  int (*run)();
};

#define PRR_ENTRY(name) {#name, name},
constexpr Experiment kExperiments[] = {PRR_EXPERIMENTS(PRR_ENTRY)};

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "all") == 0) {
    int rc = 0;
    for (const Experiment& e : kExperiments) {
      if (e.run() != 0) rc = 1;
    }
    return rc;
  }
  for (const Experiment& e : kExperiments) {
    if (argc == 2 && std::strcmp(argv[1], e.name) == 0) return e.run();
  }
  std::fprintf(stderr, "usage: reproduce <name> | all\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %s\n", e.name);
  }
  return 2;
}
