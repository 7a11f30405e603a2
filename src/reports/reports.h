// The report registry: every paper figure/table harness as a named,
// scenario-driven entry point.
//
// A Report couples a name ("fig02_flood_duplicates") to a run function that
// consumes a workload::Scenario, the default scenario for that figure (the
// same description that is checked in under scenarios/<name>.scn), and the
// scenario keys the run function reads. `brisa_run <file.scn>` is the one
// entry point, and [sweep] grids run a report once per cell. See DESIGN.md
// §10.
#pragma once

#include <string>
#include <vector>

#include "workload/scenario.h"

namespace brisa::reports {

struct Report {
  std::string name;
  /// One-line summary for `brisa_run --list` and the README matrix.
  std::string title;
  /// Dotted scenario paths the run function reads beyond its pinned
  /// defaults, e.g. "scenario.nodes" or "params.views".
  std::vector<std::string> consumed;
  workload::Scenario (*defaults)();
  int (*run)(const workload::Scenario&);
};

/// All registered reports, figure order.
[[nodiscard]] const std::vector<Report>& all();

/// nullptr when no report has that name.
[[nodiscard]] const Report* find(const std::string& name);

/// Rejects scenario keys a figure report does not consume. Returns a
/// diagnostic (empty = fine) naming the first typed key or param that is
/// neither in the report's consumed list nor part of its default scenario
/// with an unchanged value — a figure would silently ignore such a key,
/// which is exactly the fall-back-to-defaults failure this layer exists to
/// prevent. The generic "run" report accepts everything.
[[nodiscard]] std::string scenario_key_error(
    const workload::Scenario& scenario, const Report& report);

}  // namespace brisa::reports
