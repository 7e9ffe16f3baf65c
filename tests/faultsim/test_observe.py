"""Unit tests for the normalized ObservePlan shared by every engine."""

import pickle

import pytest

from repro.errors import FaultSimError
from repro.faultsim.observe import ObservePlan
from repro.netlist.builder import NetlistBuilder


def two_output_netlist():
    b = NetlistBuilder("pair")
    a = b.input("a", 2)
    b.output("y", [a[0]])
    b.output("z", [a[1]])
    return b.build()


class TestConstruction:
    def test_none_observes_everything(self):
        plan = ObservePlan.from_spec(None, 3)
        assert plan.observes_everything
        assert plan.n_entries == 3
        assert plan.entries is None
        assert plan.packed_net_masks(two_output_netlist()) is None

    def test_port_name_entries(self):
        plan = ObservePlan.from_spec([("y",), ("y", "z"), ()], 3)
        assert not plan.observes_everything
        assert plan.entries == (
            (("y", None),), (("y", None), ("z", None)), (),
        )

    def test_mapping_entries_keep_lane_masks(self):
        plan = ObservePlan.from_spec([{"y": 0b101}], 1)
        assert plan.entries == ((("y", 0b101),),)

    def test_existing_plan_passes_through(self):
        plan = ObservePlan.from_spec([("y",)], 1)
        assert ObservePlan.from_spec(plan, 1) is plan

    def test_plan_length_mismatch(self):
        plan = ObservePlan.from_spec([("y",)], 1)
        with pytest.raises(FaultSimError, match="covers 1 entries for 2"):
            ObservePlan.from_spec(plan, 2)

    def test_list_length_mismatch(self):
        with pytest.raises(FaultSimError, match="has 1 entries for 2"):
            ObservePlan.from_spec([("y",)], 2)

    def test_negative_lane_mask_rejected(self):
        with pytest.raises(FaultSimError, match="negative lane mask"):
            ObservePlan.from_spec([{"y": -1}], 1)

    def test_non_output_port_rejected(self):
        with pytest.raises(FaultSimError, match="not an output port"):
            ObservePlan.from_spec([("a",)], 1, two_output_netlist())

    def test_unknown_port_rejected(self):
        with pytest.raises(FaultSimError, match="not an output port"):
            ObservePlan.from_spec([("nope",)], 1, two_output_netlist())


class TestPlanReuse:
    """A plan passes through ``from_spec`` and is still validated: its
    entry count always, its ports once per netlist."""

    def test_plan_port_missing_from_netlist_rejected(self):
        plan = ObservePlan.from_spec([("y",), ("w",)], 2)
        with pytest.raises(FaultSimError, match="'w' is not an output"):
            ObservePlan.from_spec(plan, 2, two_output_netlist())

    def test_plan_input_port_rejected(self):
        plan = ObservePlan.from_spec([("a",)], 1)
        with pytest.raises(FaultSimError, match="not an output port"):
            ObservePlan.from_spec(plan, 1, two_output_netlist())

    def test_plan_entry_count_checked_with_netlist(self):
        plan = ObservePlan.from_spec([("y",)], 1)
        with pytest.raises(FaultSimError, match="covers 1 entries for 3"):
            ObservePlan.from_spec(plan, 3, two_output_netlist())

    def test_port_check_runs_once_per_netlist(self, monkeypatch):
        plan = ObservePlan.from_spec([("y",), ("z",)], 2)
        checked = []
        real_check = ObservePlan._check_ports

        def counting_check(self, netlist):
            checked.append(netlist)
            return real_check(self, netlist)

        monkeypatch.setattr(ObservePlan, "_check_ports", counting_check)
        netlist, other = two_output_netlist(), two_output_netlist()
        for _ in range(3):
            assert ObservePlan.from_spec(plan, 2, netlist) is plan
        assert ObservePlan.from_spec(plan, 2, other) is plan
        assert checked == [netlist, other]

    def test_checked_plan_still_checks_a_transformed_netlist(self):
        plan = ObservePlan.from_spec([("y",), ("z",)], 2)
        ObservePlan.from_spec(plan, 2, two_output_netlist())
        b = NetlistBuilder("renamed")
        a = b.input("a", 2)
        b.output("y", [a[0]])
        b.output("q", [a[1]])
        with pytest.raises(FaultSimError, match="'z' is not an output"):
            ObservePlan.from_spec(plan, 2, b.build())

    def test_pickle_drops_the_netlist_memo(self):
        netlist = two_output_netlist()
        plan = ObservePlan.from_spec([("y",), ("y", "z")], 2, netlist)
        plan.net_masks(netlist, 0b1)
        plan.packed_net_masks(netlist)
        signature = plan.signature()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert "_projection_memo" not in clone.__dict__
        assert "_projection_memo" in plan.__dict__
        assert clone.signature() == signature
        assert clone.net_masks(netlist, 0b1) == plan.net_masks(netlist, 0b1)

    def test_memo_pins_a_bounded_number_of_netlists(self):
        plan = ObservePlan.from_spec([("y",)], 1)
        netlists = [two_output_netlist() for _ in range(10)]
        for netlist in netlists:
            plan.packed_net_masks(netlist)
        memo = plan.__dict__["_projection_memo"]
        pinned = [id(pin) for pin, _ in memo.values()]
        assert pinned == [id(n) for n in netlists[-len(memo):]]
        assert len(memo) < len(netlists)


class TestEngineRepresentations:
    def test_zero_mask_ports_dropped_from_net_masks(self):
        netlist = two_output_netlist()
        plan = ObservePlan.from_spec([{"y": 0, "z": 1}], 1, netlist)
        (masks,) = plan.net_masks(netlist, full_mask=1)
        assert masks == {netlist.port("z").nets[0]: 1}

    def test_net_masks_clip_to_full_mask(self):
        netlist = two_output_netlist()
        plan = ObservePlan.from_spec([{"y": 0b110}], 1, netlist)
        (masks,) = plan.net_masks(netlist, full_mask=0b011)
        y_net = netlist.port("y").nets[0]
        assert masks == {y_net: 0b010}

    def test_packed_masks_assign_pattern_bits(self):
        netlist = two_output_netlist()
        plan = ObservePlan.from_spec([("y",), ("z",), ("y", "z")], 3, netlist)
        masks = plan.packed_net_masks(netlist)
        y_net = netlist.port("y").nets[0]
        z_net = netlist.port("z").nets[0]
        assert masks[y_net] == 0b101  # patterns 0 and 2
        assert masks[z_net] == 0b110  # patterns 1 and 2

    def test_packed_masks_skip_explicit_zero(self):
        netlist = two_output_netlist()
        plan = ObservePlan.from_spec([{"y": 0}], 1, netlist)
        assert plan.packed_net_masks(netlist) == {}


def _reference_entries(observe):
    """The per-item normalization every entry used to go through."""
    entries = []
    for raw in observe:
        if isinstance(raw, dict):
            items = [(str(k), int(v)) for k, v in raw.items()]
        else:
            items = [(str(name), None) for name in raw]
        entries.append(tuple(sorted(items)))
    return tuple(entries)


def _reference_signature(plan):
    """The per-item digest loop :meth:`ObservePlan.signature` must match."""
    import hashlib

    digest = hashlib.blake2b(digest_size=12)
    digest.update(str(plan.n_entries).encode())
    for entry in plan.entries:
        digest.update(b"|")
        for name, lane_mask in entry:
            mask = "*" if lane_mask is None else format(lane_mask, "x")
            digest.update(f"{name}={mask};".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def phase_a_specs():
    from repro.core.campaign import execute_self_test
    from repro.core.methodology import SelfTestMethodology

    _, tracer, _ = execute_self_test(
        SelfTestMethodology().build_program("A")
    )
    return tracer.finalize()


class TestDistinctEntries:
    @pytest.mark.parametrize("name", ["RegF", "PCL"])
    def test_phase_a_plan_matches_per_item_normalization(
        self, phase_a_specs, name
    ):
        from repro.plasma.components import component

        stimulus, observe = phase_a_specs[name]
        plan = ObservePlan.from_spec(
            observe, len(stimulus), component(name).builder()
        )
        assert plan.entries == _reference_entries(observe)
        assert plan.signature() == _reference_signature(plan)
        # Equal entries share one tuple object.
        assert len({id(e) for e in plan.entries}) == len(set(plan.entries))

    def test_mixed_forms_match_per_item_normalization(self):
        observe = [("z", "y"), {"y": 3}, ["y", "z"], ("z", "y"), {"y": 3},
                   (), {"z": 0, "y": 1}, ("y",)]
        plan = ObservePlan.from_spec(observe, len(observe))
        assert plan.entries == _reference_entries(observe)
        assert plan.signature() == _reference_signature(plan)
        assert plan.entries[0] is plan.entries[2] is plan.entries[3]
        assert plan.entries[1] is plan.entries[4]

    def test_equal_names_with_different_text_stay_apart(self):
        plan = ObservePlan.from_spec([(1,), (True,), (1,)], 3)
        assert plan.entries == (
            (("1", None),), (("True", None),), (("1", None),),
        )

    def test_bad_port_in_repeated_entry_still_raises(self):
        netlist = two_output_netlist()
        with pytest.raises(FaultSimError, match="'nope' is not an output"):
            ObservePlan.from_spec(
                [("y",), ("y",), ("y", "nope"), ("y", "nope")], 4, netlist
            )
        with pytest.raises(FaultSimError, match="negative lane mask"):
            ObservePlan.from_spec([{"y": 1}, {"y": 1}, {"y": -1}], 3)
