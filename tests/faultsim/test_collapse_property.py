"""Property tests: collapsing never changes what a campaign reports.

The collapse map lets a campaign simulate super-class representatives
only and infer dominated verdicts — the load-bearing claim is that the
*reported* result is bit-identical to simulating everything.  These
tests drive that claim with random netlists (combinational and
sequential), every engine, random shard partitions, and the SAT
spot-check over real Plasma components.

Comparison contract: detected sets and per-class excitation flags must
match exactly.  Detection *cycles* are compared only where the engines
define them identically — an inferred dominator verdict reuses its
child's detection record (an upper bound on the dominator's own first
detection), and the batch engine reports the detecting pattern index for
combinational stimulus, so cycle equality across modes is not part of
the contract (see the engine module docstring).
"""

import random

import pytest

from repro.analysis.collapse import compute_collapse, sat_spot_check
from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType

ENGINES = ("differential", "packed")


def random_comb(seed: int, n_gates: int = 25) -> "Netlist":
    """Random combinational DAG over all gate types."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"collapse_comb{seed}")
    nets = list(b.input("x", 5))
    for _ in range(n_gates):
        gt = rng.choice(list(GateType))
        if gt in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        elif gt in (GateType.MUX2, GateType.AOI21):
            ins = [rng.choice(nets) for _ in range(3)]
        else:
            ins = [rng.choice(nets) for _ in range(rng.choice((2, 3)))]
        nets.append(b.gate(gt, *ins))
    b.output("y", nets[-6:])
    return b.build()


def random_seq(seed: int, n_gates: int = 20) -> "Netlist":
    """Random feed-forward sequential circuit with registered taps."""
    rng = random.Random(seed)
    b = NetlistBuilder(f"collapse_seq{seed}")
    nets = list(b.input("x", 4))
    for i in range(n_gates):
        gt = rng.choice(
            (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
             GateType.XOR, GateType.NOT, GateType.MUX2)
        )
        if gt is GateType.NOT:
            ins = [rng.choice(nets)]
        elif gt is GateType.MUX2:
            ins = [rng.choice(nets) for _ in range(3)]
        else:
            ins = [rng.choice(nets) for _ in range(2)]
        out = b.gate(gt, *ins)
        if i % 4 == 3:  # register roughly a quarter of the taps
            out = b.dff(out, init=rng.randrange(2))
        nets.append(out)
    b.output("y", nets[-4:])
    return b.build()


def _patterns(rng, n):
    return [{"x": rng.getrandbits(5)} for _ in range(n)]


def _cycles(rng, n):
    return [{"x": rng.getrandbits(4)} for _ in range(n)]


def _excitation(result):
    return {
        rep: det.excited for rep, det in sorted(result.detections.items())
    }


def _assert_identical(baseline, collapsed):
    assert collapsed.detected == baseline.detected
    assert collapsed.n_faults == baseline.n_faults
    assert collapsed.fault_coverage == baseline.fault_coverage
    assert _excitation(collapsed) == _excitation(baseline)
    assert collapsed.n_simulated <= baseline.n_simulated
    assert collapsed.collapse_hash


class TestCollapseOnEqualsOff:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_combinational(self, engine, seed):
        netlist = random_comb(seed)
        stimulus = _patterns(random.Random(seed + 100), 12)
        baseline = grade(netlist, stimulus,
                         options=GradeOptions(engine=engine))
        collapsed = grade(netlist, stimulus,
                          options=GradeOptions(engine=engine, collapse=True))
        _assert_identical(baseline, collapsed)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_sequential(self, engine, seed):
        netlist = random_seq(seed)
        stimulus = _cycles(random.Random(seed + 200), 20)
        baseline = grade(netlist, stimulus,
                         options=GradeOptions(engine=engine))
        collapsed = grade(netlist, stimulus,
                          options=GradeOptions(engine=engine, collapse=True))
        _assert_identical(baseline, collapsed)
        # Sequential detection cycles are engine-invariant and inferred
        # verdicts only ever reuse a *detecting* cycle, so a detected
        # class's inferred cycle can never precede the baseline's.
        for rep in collapsed.detected:
            got = collapsed.detections[rep]
            want = baseline.detections[rep]
            assert got.cycle >= want.cycle

    @pytest.mark.parametrize("seed", [21, 22])
    def test_with_pruning(self, seed):
        netlist = random_comb(seed, n_gates=30)
        stimulus = _patterns(random.Random(seed), 10)
        baseline = grade(netlist, stimulus,
                         options=GradeOptions(prune_untestable=True))
        collapsed = grade(
            netlist, stimulus,
            options=GradeOptions(prune_untestable=True, collapse=True),
        )
        assert collapsed.detected == baseline.detected
        assert collapsed.pruned == baseline.pruned
        assert collapsed.fault_coverage == baseline.fault_coverage


class TestShardPartitions:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_partition_merges_to_full(self, seed):
        netlist = random_comb(seed)
        fault_list = build_fault_list(netlist)
        cmap = compute_collapse(netlist, fault_list)
        stimulus = _patterns(random.Random(seed), 12)
        full = grade(netlist, stimulus, fault_list, GradeOptions(collapse=cmap))

        rng = random.Random(seed + 77)
        reps = fault_list.class_representatives()
        n_parts = rng.randrange(2, 5)
        assignment = [rng.randrange(n_parts) for _ in reps]
        merged = set()
        n_simulated = 0
        for part in range(n_parts):
            subset = [
                r for r, p in zip(reps, assignment, strict=True)
                if p == part
            ]
            if not subset:
                continue
            shard = grade(
                netlist, stimulus, fault_list,
                GradeOptions(collapse=cmap, subset=subset),
            )
            assert shard.detected <= set(subset)
            merged |= shard.detected
            n_simulated += shard.n_simulated
        assert merged == full.detected
        # A partition can only lose inference opportunities (cross-shard
        # dominators fall back to direct simulation), never gain them.
        assert n_simulated >= full.n_simulated

    def test_contiguous_super_slices_merge_to_full(self):
        netlist = random_seq(41)
        fault_list = build_fault_list(netlist)
        cmap = compute_collapse(netlist, fault_list)
        stimulus = _cycles(random.Random(41), 16)
        full = grade(netlist, stimulus, fault_list, GradeOptions(collapse=cmap))

        order = cmap.simulation_order()
        cut = len(order) // 2
        merged = set()
        for supers in (order[:cut], order[cut:]):
            subset = [r for s in supers for r in cmap.members(s)]
            shard = grade(
                netlist, stimulus, fault_list,
                GradeOptions(collapse=cmap, subset=subset),
            )
            merged |= shard.detected
        assert merged == full.detected


class TestGradeValidation:
    def test_foreign_fault_list_rejected(self):
        netlist = random_comb(51)
        cmap = compute_collapse(netlist)
        other = build_fault_list(netlist)  # equal but not identical
        stimulus = _patterns(random.Random(51), 4)
        with pytest.raises(FaultSimError, match="different fault list"):
            grade(netlist, stimulus, other, GradeOptions(collapse=cmap))

    def test_map_without_faults_argument_is_accepted(self):
        netlist = random_comb(51)
        cmap = compute_collapse(netlist)
        stimulus = _patterns(random.Random(51), 4)
        result = grade(netlist, stimulus,
                       options=GradeOptions(collapse=cmap))
        assert result.collapse_hash == cmap.collapse_hash


class TestRealComponents:
    @pytest.mark.parametrize("name", ["GL", "PCL"])
    def test_sat_spot_check_confirms_static_claims(self, name):
        from repro.plasma.components import component

        netlist = component(name).builder()
        cmap = compute_collapse(netlist)
        check = sat_spot_check(netlist, cmap, samples=6)
        assert check.ok, (
            check.refuted_equivalence + check.refuted_dominance
        )

    def test_collapse_shrinks_a_real_component(self):
        from repro.plasma.components import component

        cmap = compute_collapse(component("GL").builder())
        assert cmap.ratio > 1.0
        assert cmap.n_dominators > 0
