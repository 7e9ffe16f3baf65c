"""Unit tests for stable structural and stimulus hashing."""

from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType
from repro.netlist.hashing import stimulus_hash, structural_hash


def and_netlist(name="n", out_port="y"):
    b = NetlistBuilder(name)
    a = b.input("a", 1)
    c = b.input("c", 1)
    b.output(out_port, [b.gate(GateType.AND, a[0], c[0])])
    return b.build()


class TestStructuralHash:
    def test_deterministic_across_builds(self):
        assert structural_hash(and_netlist()) == structural_hash(and_netlist())

    def test_display_name_excluded(self):
        assert structural_hash(and_netlist("alpha")) \
            == structural_hash(and_netlist("beta"))

    def test_gate_type_changes_hash(self):
        b = NetlistBuilder("n")
        a = b.input("a", 1)
        c = b.input("c", 1)
        b.output("y", [b.gate(GateType.OR, a[0], c[0])])
        assert structural_hash(b.build()) != structural_hash(and_netlist())

    def test_port_name_changes_hash(self):
        # Port names are simulation-relevant (stimulus binds by name).
        assert structural_hash(and_netlist(out_port="y")) \
            != structural_hash(and_netlist(out_port="z"))

    def test_dangling_net_changes_hash(self):
        b = NetlistBuilder("n")
        a = b.input("a", 1)
        c = b.input("c", 1)
        b.output("y", [b.gate(GateType.AND, a[0], c[0])])
        netlist = b.build()
        plain = and_netlist()
        assert structural_hash(netlist) == structural_hash(plain)
        b2 = NetlistBuilder("n")
        a2 = b2.input("a", 1)
        c2 = b2.input("c", 1)
        b2.output("y", [b2.gate(GateType.AND, a2[0], c2[0])])
        b2.netlist.new_net()  # extra dangling net
        assert structural_hash(b2.build()) != structural_hash(plain)


class TestStimulusHash:
    def test_insertion_order_within_entry_irrelevant(self):
        assert stimulus_hash([dict(a=1, b=2)]) \
            == stimulus_hash([dict(b=2, a=1)])

    def test_entry_order_sensitive(self):
        assert stimulus_hash([dict(a=1), dict(a=2)]) \
            != stimulus_hash([dict(a=2), dict(a=1)])

    def test_values_sensitive(self):
        assert stimulus_hash([dict(a=1)]) != stimulus_hash([dict(a=2)])

    def test_entry_boundaries_disambiguated(self):
        # Two one-port entries must not collide with one two-port entry.
        assert stimulus_hash([dict(a=1), dict(b=2)]) \
            != stimulus_hash([dict(a=1, b=2)])

    def test_port_insertion_order_irrelevant_across_entries(self):
        forward = [dict(a=1, b=2, c=3), dict(a=4, b=5, c=6)]
        mixed = [dict(c=3, a=1, b=2), dict(b=5, c=6, a=4)]
        assert stimulus_hash(forward) == stimulus_hash(mixed)

    def test_one_entry_port_set_disambiguated(self):
        # Same values, same ports overall: only one entry's port set
        # differs.
        base = [dict(a=1, b=2), dict(a=3, b=4), dict(a=5)]
        moved = [dict(a=1, b=2), dict(a=3, b=4), dict(b=5)]
        grown = [dict(a=1, b=2), dict(a=3, b=4), dict(a=5, b=0)]
        hashes = {stimulus_hash(s) for s in (base, moved, grown)}
        assert len(hashes) == 3

    def test_uniform_and_ragged_layouts_never_collide(self):
        assert stimulus_hash([dict(a=1), dict(b=1)]) \
            != stimulus_hash([dict(b=1), dict(a=1)])
        assert stimulus_hash([{}]) != stimulus_hash([{}, {}])
        assert stimulus_hash([]) != stimulus_hash([{}])
