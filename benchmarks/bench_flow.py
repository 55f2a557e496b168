"""BENCH-FLOW — cost of whole-system taint analysis over the fleet.

The flow analyzer is static: it must stay fast enough to run on every
lint invocation and inside CI gates.  This bench pins that property:

1. **Per-scenario analysis cost.** Build-graph + taint + witnesses +
   min-cut timed per scenario; the whole five-scenario fleet must
   analyze in well under a second.
2. **Scaling with topology size.** Synthetic zonal architectures of
   growing width show the analysis scaling near-linearly in edges (BFS
   + one max-flow per reached sink).

The measured numbers live in the tables the bench shows, which
``python -m repro run BENCH-FLOW --json`` records as artifacts.
"""

from __future__ import annotations

from repro.experiments import best_of
from repro.flow import analyze, build_flow_graph
from repro.lint.scenarios import SCENARIOS, build_scenario

#: The fleet must analyze end to end within this budget (seconds) —
#: generous on CI hardware, tight enough to catch accidental
#: quadratic blowups in the graph builder.
FLEET_BUDGET_S = 2.0


def _synthetic_target(n_zones: int, ecus_per_zone: int = 4):
    """A zonal IVN scaled wide: one exposed telematics unit, n zones."""
    from repro.ivn.topology import Endpoint, Zone, ZonalArchitecture
    from repro.lint.target import AnalysisTarget

    arch = ZonalArchitecture()
    for z in range(n_zones):
        arch.add_zone(Zone(f"zc-{z}", [
            Endpoint(f"ecu-{z}-{e}", "can",
                     criticality=5 if e == 0 else 2)
            for e in range(ecus_per_zone)
        ]))
    model = arch.system_model(secured_links=False)
    return AnalysisTarget(name=f"synthetic-{n_zones}", model=model, zonal=arch)


def test_fleet_analysis_cost(show, benchmark):
    rows = []
    total_s = 0.0
    for name in SCENARIOS:
        target = build_scenario(name)
        seconds = best_of(lambda t=target: analyze(t))
        total_s += seconds
        result = analyze(target)
        graph = result.graph
        rows.append((name, len(graph.nodes()), len(graph.edges()),
                     len(result.witnesses), f"{seconds * 1e3:7.2f}"))
    rows.append(("fleet total", "-", "-", "-", f"{total_s * 1e3:7.2f}"))

    show("BENCH-FLOW — taint analysis per scenario",
         rows, header=("scenario", "nodes", "edges", "paths", "ms"))
    benchmark(lambda: analyze(build_scenario("onboard-insecure")))
    assert total_s < FLEET_BUDGET_S, f"fleet took {total_s:.2f}s"


def test_scaling_with_topology_width(show):
    rows = []
    previous = None
    for n_zones in (2, 4, 8, 16):
        target = _synthetic_target(n_zones)
        graph = build_flow_graph(target)
        seconds = best_of(lambda t=target: analyze(t), repeats=3)
        ratio = "" if previous is None else f"{seconds / previous:4.1f}x"
        rows.append((n_zones, len(graph.nodes()), len(graph.edges()),
                     f"{seconds * 1e3:7.2f}", ratio))
        previous = seconds
    show("BENCH-FLOW — scaling with zone count (2x zones per step)",
         rows, header=("zones", "nodes", "edges", "ms", "step"))
    # doubling the zone count must not blow up super-quadratically
    assert previous < 5.0, f"16-zone analysis took {previous:.2f}s"


def test_graph_build_alone_is_cheap(benchmark):
    target = build_scenario("onboard-insecure")
    graph = benchmark(lambda: build_flow_graph(target))
    assert len(graph.nodes()) >= 10
