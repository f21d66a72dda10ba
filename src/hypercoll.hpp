// Umbrella header: everything a downstream user needs.
//
//   #include "hypercoll.hpp"
//
// pulls in the cube arithmetic (hcube::hc), the spanning structures
// (hcube::trees), both simulators (hcube::sim), the routing algorithms
// (hcube::routing), the threaded collective runtime (hcube::rt), which
// moves real bytes through verified schedule runs, and the analytic models
// (hcube::model). Individual headers remain includable on their own.
#pragma once

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"

#include "hc/bits.hpp"
#include "hc/cube.hpp"
#include "hc/embed.hpp"
#include "hc/gray.hpp"
#include "hc/necklace.hpp"
#include "hc/paths.hpp"
#include "hc/rotate.hpp"
#include "hc/types.hpp"

#include "trees/bst.hpp"
#include "trees/fault.hpp"
#include "trees/hp.hpp"
#include "trees/msbt.hpp"
#include "trees/sbt.hpp"
#include "trees/spanning_tree.hpp"
#include "trees/tcbt.hpp"

#include "sim/cycle.hpp"
#include "sim/event.hpp"
#include "sim/port_model.hpp"
#include "sim/trace.hpp"

#include "routing/alltoall.hpp"
#include "routing/broadcast.hpp"
#include "routing/multipath.hpp"
#include "routing/protocols.hpp"
#include "routing/scatter.hpp"
#include "routing/schedule_export.hpp"

#include "rt/async_player.hpp"
#include "rt/channel.hpp"
#include "rt/checksum.hpp"
#include "rt/expected.hpp"
#include "rt/plan.hpp"

#include "model/broadcast_model.hpp"
#include "model/personalized_model.hpp"
