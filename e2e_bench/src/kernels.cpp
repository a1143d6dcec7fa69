// Kernel pass of the traced run: times each CAD kernel on each design of a
// workload through its public entry point.

#include <cmath>

#include "arch/rr_graph.hpp"
#include "checks.hpp"
#include "designs/catalog.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/simulator.hpp"
#include "synth/packer.hpp"

namespace e2e {

using namespace emutile;

void kernel_pass(const std::vector<DesignRef>& designs, Recorder& rec,
                 MetricSet& m, RunResult& result) {
  std::vector<double> golden_ms, pack_ms, rr_ms, rr_nodes, place_ms, route_ms,
      route_nodes, apply_ms, full_ms, speedup;
  double sim_cycles = 0.0, sim_ms = 0.0;
  for (const DesignRef& d : designs) {
    const std::uint64_t group = rec.new_group();
    const Scope kernel(rec, "kernels", group);
    const auto timed = [&](const char* name, auto&& fn) {
      const Scope s(rec, name, group, kernel.id());
      const auto t0 = Clock::now();
      fn();
      return ms_since(t0);
    };
    Netlist golden;
    golden_ms.push_back(timed("synth.golden", [&] {
      golden = build_paper_design(d.name, d.design_seed);
    }));
    PackedDesign packed;
    pack_ms.push_back(timed("synth.pack", [&] { packed = pack(golden); }));

    // A flat implementation with 20% slack, sized the way flow::build_flat
    // sizes its device.
    const int clbs = static_cast<int>(packed.num_clbs());
    const int iobs = static_cast<int>(packed.num_iobs());
    const Device device(Device::size_for(static_cast<int>(std::ceil(clbs * 1.2)),
                                         static_cast<int>(std::ceil(iobs * 1.25)),
                                         12));
    std::unique_ptr<RrGraph> rr;
    rr_ms.push_back(timed("arch.rr_build", [&] {
      rr = std::make_unique<RrGraph>(device);
    }));
    rr_nodes.push_back(static_cast<double>(rr->num_nodes()));
    const std::vector<PhysNet> nets = packed.physical_nets(golden);
    Placement placement(device, packed);
    Placer placer(device, packed, nets);
    PlacerParams pp;
    pp.seed = d.design_seed;
    place_ms.push_back(timed("place.full", [&] {
      static_cast<void>(placer.place(placement, pp));
    }));
    Routing routing(*rr);
    Router router(*rr);
    RouteResult routed;
    route_ms.push_back(timed("route.full", [&] {
      routed = router.route(make_route_tasks(*rr, packed, placement, nets),
                            routing, RouterParams{});
    }));
    route_nodes.push_back(static_cast<double>(routed.nodes_expanded));
    rec.count("route.full_nodes_expanded", group,
              static_cast<double>(routed.nodes_expanded));

    Simulator sim(golden);
    const auto patterns =
        held_out_patterns(golden.primary_inputs().size(), 2000, d.design_seed);
    sim_ms += timed("sim.step", [&] {
      for (const auto& p : patterns) static_cast<void>(sim.step(p));
    });
    sim_cycles += static_cast<double>(patterns.size());

    EcoProbe eco;
    timed("eco.compare", [&] {
      eco = check_eco_locality(golden, d.design_seed, result, false);
    });
    apply_ms.push_back(eco.apply_ms);
    full_ms.push_back(eco.full_ms);
    if (eco.tiled_work > 0.0) speedup.push_back(eco.full_work / eco.tiled_work);
  }
  m.set("synth.golden_ms", mean_of(golden_ms), "ms");
  m.set("synth.pack_ms", mean_of(pack_ms), "ms");
  m.set("arch.rr_build_ms", mean_of(rr_ms), "ms");
  m.set("arch.rr_nodes", mean_of(rr_nodes), "count");
  m.set("place.full_ms", mean_of(place_ms), "ms");
  m.set("route.full_ms", mean_of(route_ms), "ms");
  m.set("route.full_nodes_expanded", mean_of(route_nodes), "count");
  m.set("sim.cycles_per_s", sim_ms > 0.0 ? sim_cycles * 1e3 / sim_ms : 0.0,
        "1/s");
  m.set("core.apply_change_ms", mean_of(apply_ms), "ms");
  m.set("eco.full_ms", mean_of(full_ms), "ms");
  m.set("eco.tiled_speedup", mean_of(speedup), "ratio");
}

}  // namespace e2e
