"""Property: sharding a fault universe never changes the merged verdicts.

The parallel campaign's correctness rests on one invariant — a stuck-at
fault's verdict does not depend on which other faults are graded in the
same call.  These tests drive ``grade(subset=...)`` with *random*
partitions of the collapsed universe (contiguous and non-contiguous,
every engine) and require the union of the shard results to equal the
sequential result exactly: detected sets, per-fault verdicts and
detecting cycles, coverage percentages, and the degradation semantics
when shards go missing.
"""

import random

import pytest

from repro.faultsim import GradeOptions, build_fault_list, grade
from repro.library import build_alu, build_register_file
from repro.netlist.builder import NetlistBuilder

ENGINES = ("differential", "packed")


def _adder4():
    b = NetlistBuilder("adder4")
    a = b.input("a", 4)
    x = b.input("x", 4)
    cin = b.input("cin", 1)[0]
    from repro.library.adders import ripple_carry_adder

    total, cout = ripple_carry_adder(b, a, x, cin)
    b.output("sum", total)
    b.output("cout", cout)
    return b.build()


def _adder_patterns(n=30, seed=7):
    rng = random.Random(seed)
    return [
        dict(a=rng.getrandbits(4), x=rng.getrandbits(4), cin=rng.randrange(2))
        for _ in range(n)
    ]


def _alu_patterns(n=25, seed=3):
    rng = random.Random(seed)
    return [
        dict(
            a=rng.getrandbits(4), b=rng.getrandbits(4),
            func=rng.getrandbits(4),
        )
        for _ in range(n)
    ]


def _regfile_cycles(n=40, seed=22):
    rng = random.Random(seed)
    return [
        dict(
            wr_addr=rng.randrange(4), wr_data=rng.getrandbits(4),
            wr_en=rng.randrange(2), rd_addr_a=rng.randrange(4),
            rd_addr_b=rng.randrange(4),
        )
        for _ in range(n)
    ]


def _random_partition(items, rng, max_parts=5):
    """Split ``items`` into 1..max_parts disjoint, exhaustive shards."""
    n_parts = rng.randrange(1, max_parts + 1)
    assignment = [rng.randrange(n_parts) for _ in items]
    parts = [
        [item for item, part in zip(items, assignment, strict=True) if part == p]
        for p in range(n_parts)
    ]
    return [p for p in parts if p]


def _assert_merges_to(full, netlist, stimulus, fault_list, engine, shards):
    merged_detected = set()
    merged_verdicts = {}
    for shard in shards:
        part = grade(
            netlist, stimulus, fault_list,
            GradeOptions(engine=engine, subset=shard),
        )
        # A shard only reports verdicts for its own representatives.
        assert set(part.detections) == set(shard)
        merged_detected |= part.detected
        merged_verdicts.update(part.detections)
    assert merged_detected == full.detected
    assert set(merged_verdicts) == set(full.detections)
    for rep, d in full.detections.items():
        e = merged_verdicts[rep]
        assert (d.detected, d.cycle) == (e.detected, e.cycle)


class TestShardMergeProperty:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(3))
    def test_combinational_random_partition(self, engine, seed):
        netlist = _adder4()
        stimulus = _adder_patterns()
        fault_list = build_fault_list(netlist)
        full = grade(netlist, stimulus, fault_list, GradeOptions(engine=engine))
        rng = random.Random(seed)
        reps = list(fault_list.class_representatives())
        rng.shuffle(reps)  # shards need not be contiguous ranges
        shards = _random_partition(reps, rng)
        _assert_merges_to(
            full, netlist, stimulus, fault_list, engine, shards
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_random_partition(self, engine):
        netlist = build_register_file(n_registers=4, width=4)
        cycles = _regfile_cycles()
        fault_list = build_fault_list(netlist)
        full = grade(netlist, cycles, fault_list, GradeOptions(engine=engine))
        rng = random.Random(5)
        reps = list(fault_list.class_representatives())
        shards = _random_partition(reps, rng)
        _assert_merges_to(
            full, netlist, cycles, fault_list, engine, shards
        )

    def test_contiguous_ranges_like_the_scheduler(self):
        from repro.runtime.sharding import plan_shards

        netlist = build_alu(width=4)
        stimulus = _alu_patterns(n=25, seed=3)
        fault_list = build_fault_list(netlist)
        full = grade(netlist, stimulus, fault_list)
        reps = fault_list.class_representatives()
        ranges = plan_shards(
            len(reps), jobs=3, min_shard_size=16
        )
        assert len(ranges) > 1
        shards = [list(reps[lo:hi]) for lo, hi in ranges]
        _assert_merges_to(full, netlist, stimulus, fault_list, "auto", shards)

    def test_missing_shard_is_a_lower_bound(self):
        netlist = _adder4()
        stimulus = _adder_patterns()
        fault_list = build_fault_list(netlist)
        full = grade(netlist, stimulus, fault_list)
        reps = list(fault_list.class_representatives())
        rng = random.Random(11)
        shards = _random_partition(reps, rng, max_parts=4)
        lost = shards.pop()  # a crashed/timed-out shard contributes nothing
        merged = set()
        for shard in shards:
            merged |= grade(
                netlist, stimulus, fault_list, GradeOptions(subset=shard)
            ).detected
        assert merged == full.detected - set(lost)
        assert merged <= full.detected

    def test_empty_subset_grades_nothing(self):
        netlist = _adder4()
        fault_list = build_fault_list(netlist)
        result = grade(
            netlist, _adder_patterns(n=5), fault_list,
            GradeOptions(subset=[]),
        )
        assert result.detected == set()
        assert result.detections == {}

    def test_subset_composes_with_pruning(self):
        netlist = _adder4()
        stimulus = _adder_patterns()
        fault_list = build_fault_list(netlist)
        full = grade(
            netlist, stimulus, fault_list,
            GradeOptions(prune_untestable=True),
        )
        reps = list(fault_list.class_representatives())
        half = len(reps) // 2
        merged = set()
        pruned = set()
        for shard in (reps[:half], reps[half:]):
            part = grade(
                netlist, stimulus, fault_list,
                GradeOptions(subset=shard, prune_untestable=True),
            )
            merged |= part.detected
            pruned |= part.pruned
        assert merged == full.detected
        assert pruned == full.pruned
