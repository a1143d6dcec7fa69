#pragma once
/// \file checks.hpp
/// Output checks that do not rely on the program under test: a small
/// LUT/flip-flop evaluator separate from sim/, the paper's Table 1 CLB
/// counts written in by hand, byte comparison of reports, and the tiled-ECO
/// locality rule. Each check has a self-test that corrupts its input and
/// expects the check to fail.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/tiled_design.hpp"
#include "netlist/netlist.hpp"

namespace e2e {

/// Table 1 "# CLBs" of the paper, by design name; nullopt for names the
/// table does not list.
[[nodiscard]] std::optional<int> table1_clbs(const std::string& design);

/// True when `packed_clbs` is within 2% of the Table 1 count.
[[nodiscard]] bool clbs_match_table1(const std::string& design,
                                     std::size_t packed_clbs);

/// Two-valued cycle evaluator over a netlist: flip-flops start at 0, each
/// step drives the primary inputs, evaluates the LUTs in topological order,
/// samples the primary outputs, then clocks every flip-flop.
class NetlistEvaluator {
 public:
  explicit NetlistEvaluator(const emutile::Netlist& nl);
  std::vector<std::uint8_t> step(const std::vector<std::uint8_t>& inputs);
  /// Input minterm a LUT saw in the most recent step.
  [[nodiscard]] unsigned last_minterm(emutile::CellId lut) const;

 private:
  const emutile::Netlist& nl_;
  std::vector<emutile::CellId> order_;  // LUTs, topological
  std::vector<emutile::CellId> dffs_;
  std::vector<std::uint8_t> net_;       // by NetId
  std::vector<std::uint8_t> state_;     // by CellId (flip-flops)
  std::vector<unsigned> minterm_;       // by CellId (LUTs)
};

/// `count` random input vectors of `width` bits, from the benchmark's own
/// generator (never the program's pattern source).
[[nodiscard]] std::vector<std::vector<std::uint8_t>> held_out_patterns(
    std::size_t width, std::size_t count, std::uint64_t seed);

/// True when `dut` and `golden` produce the same primary outputs, compared
/// by position, on every cycle of `patterns`.
[[nodiscard]] bool outputs_match(
    const emutile::Netlist& dut, const emutile::Netlist& golden,
    const std::vector<std::vector<std::uint8_t>>& patterns);

/// Site of every placed CLB instance, by instance id (kInvalidSite when the
/// id is not a placed CLB).
[[nodiscard]] std::vector<emutile::SiteIndex> clb_sites(
    const emutile::TiledDesign& design);

/// The tiled-ECO locality rule: every CLB whose site before the change lay
/// outside the affected tiles is on the same site after it.
[[nodiscard]] bool eco_kept_outside_sites(
    const emutile::TiledDesign& design,
    const std::vector<emutile::SiteIndex>& before,
    const std::vector<emutile::SiteIndex>& after,
    const std::vector<emutile::TileId>& affected);

/// Timings and work of one standard-change comparison.
struct EcoProbe {
  double build_ms = 0.0;   ///< cold TilingEngine::build
  double apply_ms = 0.0;   ///< TilingEngine::apply_change
  double full_ms = 0.0;    ///< full_eco
  double tiled_work = 0.0; ///< work units of the tiled ECO
  double full_work = 0.0;  ///< work units of the full re-P&R
};

/// Run a standard tiled ECO and a full re-P&R of the same change on
/// `golden` and check locality and effort (tiled places no more instances
/// than full). With `self_test`, also moves one CLB outside the affected
/// tiles in a copy of the result and expects the locality check to fail.
EcoProbe check_eco_locality(const emutile::Netlist& golden,
                            std::uint64_t build_seed, RunResult& result,
                            bool self_test);

/// Self-tests of the evaluator and report checks: a flipped truth-table
/// bit must break outputs_match, a changed report byte must break the
/// report comparison.
void self_test_checks(const emutile::Netlist& golden, std::uint64_t seed,
                      const std::string& report_bytes, RunResult& result);

}  // namespace e2e
