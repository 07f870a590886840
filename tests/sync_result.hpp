#pragma once

// Test helper: the result of one request to a §5 app over the centralized
// controller stack, where the completion callback fires before submit
// returns.
//
//   const Result r =
//       sync_result([&](auto done) { app.submit_remove(v, done); });

#include <gtest/gtest.h>

#include <optional>

#include "core/controller_iface.hpp"

namespace dyncon {

template <typename Submit>
core::Result sync_result(Submit&& submit) {
  std::optional<core::Result> out;
  submit([&out](const core::Result& r) { out = r; });
  EXPECT_TRUE(out.has_value()) << "request still pending after submit";
  return out.value_or(core::Result{});
}

}  // namespace dyncon
