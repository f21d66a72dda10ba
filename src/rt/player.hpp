// The old name of the runtime's in-process engine, kept as an alias of
// the AsyncPlayer only because the benchmark's traced cold-path replay
// (perfbench/workloads.cpp) still constructs it. Nothing else may use the
// alias (CI gates it); include rt/async_player.hpp instead.
#pragma once

#include "rt/async_player.hpp"

namespace hcube::rt {

using Player = AsyncPlayer;

} // namespace hcube::rt
