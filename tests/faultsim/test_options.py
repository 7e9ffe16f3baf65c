"""GradeOptions: validation, folding and fingerprints.

The API-consolidation contract: every grading entry point builds exactly
one validated :class:`~repro.faultsim.options.GradeOptions`, and
:func:`~repro.faultsim.grade` takes nothing else.
"""

import pytest

from repro.errors import FaultSimError
from repro.faultsim import (
    DEFAULT_LANES,
    GradeOptions,
    TraceStore,
    grade,
)
from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType


def tiny_netlist():
    b = NetlistBuilder("tiny")
    x = b.input("x", 2)
    b.output("y", [b.gate(GateType.AND, x[0], x[1])])
    return b.build()


PATTERNS = [dict(x=0), dict(x=1), dict(x=2), dict(x=3)]


class TestValidation:
    def test_defaults_are_valid(self):
        opts = GradeOptions()
        assert opts.engine == "auto"
        assert opts.lanes == DEFAULT_LANES
        assert opts.store is None
        assert opts.collapse_map is None
        assert not opts.collapse_requested

    def test_unknown_engine_rejected_at_construction(self):
        with pytest.raises(FaultSimError, match="unknown engine"):
            GradeOptions(engine="flextest")

    @pytest.mark.parametrize(
        "bad", ("maybe", "PROVEN", 2, None, True, "structural")
    )
    def test_bad_prune_mode_rejected(self, bad):
        # True and "structural" named the removed skip mode; neither is
        # reinterpreted as "proven", which would move the denominators.
        with pytest.raises(FaultSimError, match="prune_untestable"):
            GradeOptions(prune_untestable=bad)

    @pytest.mark.parametrize("bad", (0, 1, 1025, -64, True, "64", 3.0))
    def test_bad_lane_counts_rejected(self, bad):
        with pytest.raises(FaultSimError, match="lanes"):
            GradeOptions(lanes=bad)

    def test_subset_normalised_to_tuple(self):
        opts = GradeOptions(subset=[3, 1, 2])
        assert opts.subset == (3, 1, 2)

    def test_cache_path_normalised_to_store(self, tmp_path):
        opts = GradeOptions(cache=str(tmp_path / "cache"))
        assert isinstance(opts.cache, TraceStore)
        assert opts.store is opts.cache

    def test_replace_revalidates(self):
        opts = GradeOptions(engine="differential")
        assert opts.replace(engine="packed").engine == "packed"
        with pytest.raises(FaultSimError, match="unknown engine"):
            opts.replace(engine="flextest")


class TestFingerprint:
    def test_verdict_invariant_knobs_do_not_change_it(self, tmp_path):
        base = GradeOptions().fingerprint()
        assert GradeOptions(engine="packed").fingerprint() == base
        assert GradeOptions(lanes=128).fingerprint() == base
        assert GradeOptions(collapse=True).fingerprint() == base
        assert GradeOptions(cache=tmp_path).fingerprint() == base

    def test_prune_modes_partition_the_journal(self):
        # Pinned digests: journals written before the structural skip
        # mode was removed must still resume under both modes.
        assert GradeOptions().fingerprint() == "f3bd74a1ea284a1b"
        assert (
            GradeOptions(prune_untestable="proven").fingerprint()
            == "cd6147165fd8e922"
        )


class TestGradeConventions:
    def test_options_object_does_not_warn(self, recwarn):
        result = grade(
            tiny_netlist(), PATTERNS,
            options=GradeOptions(engine="differential"),
        )
        assert result.n_faults > 0
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
