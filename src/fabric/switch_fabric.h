// The crossbar switch is HierFabric with every GPU on one node
// (FabricKind::kSwitch builds it that way). The alias below exists only
// because benchmark/layers.cc still builds the crossbar under this name
// with default Params; the default gpus_per_node of 4 keeps that 4-GPU
// replay on one node. It goes with the next change to the benchmark, like
// SystemConfig::shards.
#pragma once

#include "fabric/hier_fabric.h"

namespace mgcomp {

using SwitchFabric = HierFabric;

}  // namespace mgcomp
