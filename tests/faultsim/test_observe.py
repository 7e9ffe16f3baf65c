"""Unit tests for the normalized ObservePlan shared by every engine."""

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
