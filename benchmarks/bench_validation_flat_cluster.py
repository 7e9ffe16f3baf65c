"""Experiment V1 — validating the hierarchical fault-grading decomposition.

The paper's flow (and this reproduction's) grades every component in
isolation against its traced boundary stimulus.  A standard objection is
that component-level grading might mis-count faults at the boundaries
(a CTRL fault masked by the downstream mux, or detected only through a
path the sensitivity model ignores).

This bench composes CTRL+BMUX+ALU+BSH into one *flat* execute-stage
netlist (`repro.plasma.cluster`), replays the same traced per-instruction
stimulus through it with the same architectural observability, and compares
flat coverage against the fault-weighted aggregate of the four components'
hierarchical results.

Anchor: the two figures agree closely (within a few percent) — the
decomposition is sound.
"""

from conftest import cached_campaign, run_once, write_result

from repro.core.campaign import execute_self_test
from repro.core.methodology import SelfTestMethodology
from repro.faultsim import GradeOptions, grade
from repro.isa.encoding import decode
from repro.plasma.cluster import EXPOSED_CONTROLS, build_execute_cluster
from repro.plasma.controls import decode_controls
from repro.plasma.tracer import ctrl_sensitive_ports

HIER_COMPONENTS = ("CTRL", "BMUX", "ALU", "BSH")


def flat_cluster_campaign():
    """Grade the composed execute stage with the Phase A trace."""
    self_test = SelfTestMethodology().build_program("A")
    _, tracer, _ = execute_self_test(self_test)
    specs = tracer.finalize()
    bmux_patterns, bmux_observe = specs["BMUX"]
    ctrl_patterns, ctrl_observe = specs["CTRL"]
    assert len(bmux_patterns) == len(ctrl_patterns)

    patterns = []
    observe = []
    for bmux_pat, ctrl_pat, bmux_ports, ctrl_ports in zip(
        bmux_patterns, ctrl_patterns, bmux_observe, ctrl_observe,
        strict=True,
    ):
        word = ctrl_pat["instr"]
        patterns.append(
            {
                "instr": word,
                "rs_data": bmux_pat["rs_data"],
                "rt_data": bmux_pat["rt_data"],
                "pc_plus4": bmux_pat["pc_plus4"],
                "mem_data": bmux_pat["mem_data"],
                "lo": bmux_pat["lo"],
                "hi": bmux_pat["hi"],
            }
        )
        ports: list[str] = []
        observed = bool(bmux_ports) or bool(ctrl_ports)
        if observed:
            bundle = decode_controls(decode(word))
            if "wb_data" in bmux_ports:
                ports.append("wb_data")
            if "a_bus" in bmux_ports or "b_bus" in bmux_ports:
                # The ALU result is the architectural consumer of a/b.
                ports.append("alu_result")
            ports += [
                p for p in ctrl_sensitive_ports(bundle)
                if p in EXPOSED_CONTROLS
            ]
        observe.append(tuple(dict.fromkeys(ports)))

    return grade(build_execute_cluster(), patterns, options=GradeOptions(
        observe=observe, name="EXEC-flat",
    ))


def test_flat_cluster_validates_hierarchy(benchmark):
    flat = run_once(benchmark, flat_cluster_campaign)
    hier = cached_campaign("A", HIER_COMPONENTS)

    hier_faults = sum(hier.results[n].n_faults for n in HIER_COMPONENTS)
    hier_detected = sum(hier.results[n].n_detected for n in HIER_COMPONENTS)
    hier_fc = 100.0 * hier_detected / hier_faults

    lines = [
        f"{'grading':>14s} {'faults':>8s} {'detected':>9s} {'FC %':>7s}",
        f"{'hierarchical':>14s} {hier_faults:>8,} {hier_detected:>9,} "
        f"{hier_fc:>7.2f}",
        f"{'flat cluster':>14s} {flat.n_faults:>8,} {flat.n_detected:>9,} "
        f"{flat.fault_coverage:>7.2f}",
    ]
    text = "\n".join(lines)
    write_result("validation_v1_flat_cluster.txt", text)
    print("\n" + text)

    # The flat universe merges boundary stem/branch pairs, so counts are
    # close but not identical.
    assert 0.8 * hier_faults < flat.n_faults < 1.1 * hier_faults
    # Coverage agreement: the decomposition neither loses nor invents
    # detections beyond boundary bookkeeping.
    assert abs(flat.fault_coverage - hier_fc) < 4.0
