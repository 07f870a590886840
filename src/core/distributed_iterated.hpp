#pragma once

// The simulator stack's older name for the iterated wrapper, kept for code
// written against it (perfbench's `dist-faulty` workload).  New code uses
// IteratedController from core/iterated.hpp.

#include "core/iterated.hpp"

namespace dyncon::core {

using DistributedIterated = IteratedController;

}  // namespace dyncon::core
