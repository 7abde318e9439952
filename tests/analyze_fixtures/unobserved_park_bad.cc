// mcio-analyze-fixture: path=src/mpi/unobserved_park_bad.cc
// expect: unobserved-park@8 unobserved-park@11
#include "sim/engine.h"

namespace mcio::mpi {

// A blocking wait the verification observer never hears about.
void silent_wait(mcio::sim::Actor& a) { a.park(); }

// Its continuation form (a collective schedule's Wait step), likewise.
bool silent_try(mcio::sim::Actor& a) { return a.try_park(); }

}  // namespace mcio::mpi
