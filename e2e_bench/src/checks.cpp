#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>

#include "core/tiling_engine.hpp"
#include "eco/eco_strategies.hpp"

namespace e2e {

using namespace emutile;

// ---- Table 1 -----------------------------------------------------------------

std::optional<int> table1_clbs(const std::string& design) {
  // "# CLBs" column of Table 1 (Lach, Mangione-Smith, Potkonjak, DAC 2000).
  static const std::map<std::string, int> kTable1 = {
      {"9sym", 56},     {"styr", 98},  {"sand", 100},
      {"c499", 115},    {"planet1", 115}, {"c880", 135},
      {"s9234", 235},   {"MIPS R2000", 900}, {"DES", 1050},
  };
  const auto it = kTable1.find(design);
  if (it == kTable1.end()) return std::nullopt;
  return it->second;
}

bool clbs_match_table1(const std::string& design, std::size_t packed_clbs) {
  const std::optional<int> want = table1_clbs(design);
  if (!want) return false;
  return std::abs(static_cast<double>(packed_clbs) - *want) <= 0.02 * *want;
}

// ---- evaluator ---------------------------------------------------------------

NetlistEvaluator::NetlistEvaluator(const Netlist& nl)
    : nl_(nl),
      net_(nl.net_bound(), 0),
      state_(nl.cell_bound(), 0),
      minterm_(nl.cell_bound(), 0) {
  std::vector<int> pending(nl.cell_bound(), 0);
  std::deque<CellId> ready;
  const auto lut_driven = [&](NetId net) {
    return nl.cell(nl.net(net).driver).kind == CellKind::kLut;
  };
  for (const CellId c : nl.live_cells()) {
    const Cell& cell = nl.cell(c);
    if (cell.kind == CellKind::kDff) dffs_.push_back(c);
    if (cell.kind != CellKind::kLut) continue;
    for (const NetId in : cell.inputs)
      if (lut_driven(in)) ++pending[c.value()];
    if (pending[c.value()] == 0) ready.push_back(c);
  }
  while (!ready.empty()) {
    const CellId c = ready.front();
    ready.pop_front();
    order_.push_back(c);
    for (const PinRef& sink : nl.net(nl.cell(c).output).sinks) {
      if (nl.cell(sink.cell).kind != CellKind::kLut) continue;
      if (--pending[sink.cell.value()] == 0) ready.push_back(sink.cell);
    }
  }
  if (order_.size() != nl.num_luts()) {
    std::cerr << "evaluator: combinational cycle in '" << nl.name() << "'\n";
    std::abort();
  }
}

std::vector<std::uint8_t> NetlistEvaluator::step(
    const std::vector<std::uint8_t>& inputs) {
  const auto& pis = nl_.primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i)
    net_[nl_.cell(pis[i]).output.value()] = i < inputs.size() ? inputs[i] : 0;
  for (const CellId c : nl_.live_cells()) {
    const Cell& cell = nl_.cell(c);
    if (cell.kind == CellKind::kConst0) net_[cell.output.value()] = 0;
    if (cell.kind == CellKind::kConst1) net_[cell.output.value()] = 1;
  }
  for (const CellId d : dffs_)
    net_[nl_.cell(d).output.value()] = state_[d.value()];
  for (const CellId c : order_) {
    const Cell& cell = nl_.cell(c);
    unsigned m = 0;
    for (std::size_t i = 0; i < cell.inputs.size(); ++i)
      if (net_[cell.inputs[i].value()]) m |= 1u << i;
    minterm_[c.value()] = m;
    net_[cell.output.value()] = cell.function.bit(m) ? 1 : 0;
  }
  std::vector<std::uint8_t> outs;
  for (const CellId o : nl_.primary_outputs())
    outs.push_back(net_[nl_.cell(o).inputs[0].value()]);
  std::vector<std::uint8_t> next(dffs_.size());
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    next[i] = net_[nl_.cell(dffs_[i]).inputs[0].value()];
  for (std::size_t i = 0; i < dffs_.size(); ++i)
    state_[dffs_[i].value()] = next[i];
  return outs;
}

unsigned NetlistEvaluator::last_minterm(CellId lut) const {
  return minterm_[lut.value()];
}

std::vector<std::vector<std::uint8_t>> held_out_patterns(std::size_t width,
                                                         std::size_t count,
                                                         std::uint64_t seed) {
  // xorshift64*, independent of the library's pattern generator.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0x1234567ull;
  if (x == 0) x = 1;
  std::vector<std::vector<std::uint8_t>> out(count,
                                             std::vector<std::uint8_t>(width));
  for (auto& p : out)
    for (auto& bit : p) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      bit = static_cast<std::uint8_t>(((x * 0x2545F4914F6CDD1Dull) >> 63) & 1u);
    }
  return out;
}

bool outputs_match(const Netlist& dut, const Netlist& golden,
                   const std::vector<std::vector<std::uint8_t>>& patterns) {
  if (dut.primary_outputs().size() != golden.primary_outputs().size())
    return false;
  NetlistEvaluator a(dut);
  NetlistEvaluator b(golden);
  for (const auto& p : patterns)
    if (a.step(p) != b.step(p)) return false;
  return true;
}

// ---- ECO locality ------------------------------------------------------------

std::vector<SiteIndex> clb_sites(const TiledDesign& design) {
  std::vector<SiteIndex> sites(design.packed.inst_bound(), kInvalidSite);
  for (const InstId id : design.packed.live_insts())
    if (design.packed.inst(id).is_clb() && design.placement->is_placed(id))
      sites[id.value()] = design.placement->site_of(id);
  return sites;
}

bool eco_kept_outside_sites(const TiledDesign& design,
                            const std::vector<SiteIndex>& before,
                            const std::vector<SiteIndex>& after,
                            const std::vector<TileId>& affected) {
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] == kInvalidSite) continue;
    const auto [x, y] = design.device->clb_xy(before[i]);
    const TileId tile = design.tiles->tile_at(x, y);
    bool inside = false;
    for (const TileId t : affected) inside |= (t == tile);
    if (inside) continue;
    if (i >= after.size() || after[i] != before[i]) return false;
  }
  return true;
}

EcoProbe check_eco_locality(const Netlist& golden, std::uint64_t build_seed,
                            RunResult& result, bool self_test) {
  EcoProbe probe;
  TilingParams params;
  params.seed = build_seed;
  auto t0 = Clock::now();
  TiledDesign tiled = TilingEngine::build(Netlist(golden), params);
  probe.build_ms = ms_since(t0);
  TiledDesign full = tiled.clone();

  const std::vector<SiteIndex> before = clb_sites(tiled);
  const EcoChange change = scripted_standard_change(tiled);
  t0 = Clock::now();
  const EcoOutcome outcome =
      TilingEngine::apply_change(tiled, change, EcoOptions{});
  probe.apply_ms = ms_since(t0);
  const std::vector<SiteIndex> after = clb_sites(tiled);

  t0 = Clock::now();
  const EcoStrategyResult rf =
      full_eco(full, scripted_standard_change(full), build_seed);
  probe.full_ms = ms_since(t0);
  probe.tiled_work = work_units(outcome.effort);
  probe.full_work = work_units(rf.effort);

  const std::string what = "standard tiled ECO on '" + golden.name() + "'";
  result.check(outcome.success && rf.success, what + " succeeds");
  result.check(eco_kept_outside_sites(tiled, before, after, outcome.affected),
               what + " leaves every CLB outside its affected tiles in place");
  result.check(outcome.effort.instances_placed <= rf.effort.instances_placed,
               what + " places no more instances than full_eco");
  if (!self_test) return probe;

  // Corrupt a copy: move one CLB that sits outside the affected tiles.
  std::vector<SiteIndex> moved = after;
  bool corrupted = false;
  for (std::size_t i = 0; i < before.size() && !corrupted; ++i) {
    if (before[i] == kInvalidSite) continue;
    const auto [x, y] = tiled.device->clb_xy(before[i]);
    const TileId tile = tiled.tiles->tile_at(x, y);
    bool inside = false;
    for (const TileId t : outcome.affected) inside |= (t == tile);
    if (inside) continue;
    const int sites = tiled.device->num_clb_sites();
    moved[i] = tiled.device->clb_site((x + 1) % tiled.device->width(), y);
    corrupted = sites > 1 && moved[i] != before[i];
  }
  result.check(corrupted && !eco_kept_outside_sites(tiled, before, moved,
                                                    outcome.affected),
               "self-test: the locality check rejects a CLB moved outside "
               "the affected tiles");
  return probe;
}

// ---- evaluator and report self-tests ------------------------------------------

void self_test_checks(const Netlist& golden, std::uint64_t seed,
                      const std::string& report_bytes, RunResult& result) {
  const auto patterns =
      held_out_patterns(golden.primary_inputs().size(), 64, seed);
  result.check(outputs_match(golden, golden, patterns),
               "self-test: the evaluator accepts an unchanged netlist");

  // Flip the truth-table bit a primary-output LUT reads on the first cycle
  // (other LUTs follow if no output is LUT-driven).
  NetlistEvaluator probe(golden);
  probe.step(patterns.front());
  std::vector<CellId> candidates;
  for (const CellId o : golden.primary_outputs()) {
    const CellId d = golden.net(golden.cell(o).inputs[0]).driver;
    if (golden.cell(d).kind == CellKind::kLut) candidates.push_back(d);
  }
  for (const CellId c : golden.live_cells())
    if (golden.cell(c).kind == CellKind::kLut) candidates.push_back(c);
  bool caught = false;
  for (std::size_t i = 0; i < candidates.size() && i < 64 && !caught; ++i) {
    Netlist corrupted = golden;
    TruthTable tt = golden.cell(candidates[i]).function;
    const unsigned m = probe.last_minterm(candidates[i]);
    tt.set_bit(m, !tt.bit(m));
    corrupted.set_lut_function(candidates[i], tt);
    caught = !outputs_match(corrupted, golden, patterns);
  }
  result.check(caught,
               "self-test: the evaluator rejects one flipped truth-table bit");

  std::string changed = report_bytes;
  if (!changed.empty()) changed[changed.size() / 2] ^= 0x01;
  result.check(!report_bytes.empty() && changed != report_bytes,
               "self-test: the report comparison rejects one changed byte");
}

}  // namespace e2e
