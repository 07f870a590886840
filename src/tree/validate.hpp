#pragma once

// Structural validation of a DynamicTree.
//
// Property tests call `validate()` after every topological change to catch
// any corruption of the parent/child/port bookkeeping.

#include <string>

#include "tree/dynamic_tree.hpp"

namespace dyncon::tree {

/// Result of a validation pass; `ok()` or a description of the first defect.
struct ValidationResult {
  bool valid = true;
  std::string detail;

  [[nodiscard]] bool ok() const { return valid; }
};

/// Full structural check: parent/child symmetry, acyclicity, connectivity,
/// alive-count consistency, and ports: one per tree edge at each end, each
/// leading back to its neighbor, unique per node.
[[nodiscard]] ValidationResult validate(const DynamicTree& t);

}  // namespace dyncon::tree
