// Factory for the paper's seven-benchmark suite (Table IV).
#pragma once

#include <memory>
#include <vector>

#include "core/workload.h"

namespace mgcomp {

/// Creates one workload by its Table IV abbreviation (AES, BS, FIR, GD,
/// KM, MT, SC). `scale` < 1 shrinks problem sizes proportionally and > 1
/// grows them (scale = 1 is the default benchmarking size). Aborts naming
/// the rule unless `scale` is finite and > 0 and every scaled size stays
/// below 2^31. Returns nullptr for an unknown abbreviation.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view abbrev,
                                                      double scale = 1.0);

/// All seven, in the paper's table order.
[[nodiscard]] std::vector<std::unique_ptr<Workload>> make_all_workloads(double scale = 1.0);

/// The seven abbreviations, in the paper's table order.
[[nodiscard]] const std::vector<std::string_view>& workload_abbrevs();

}  // namespace mgcomp
