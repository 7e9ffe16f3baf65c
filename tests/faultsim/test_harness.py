"""Component grading through the facade: coverage, observability and
the :class:`~repro.faultsim.harness.CampaignResult` accounting."""

import pytest

from repro.errors import FaultSimError
from repro.faultsim import GradeOptions, grade
from repro.netlist.builder import NetlistBuilder


def adder4():
    b = NetlistBuilder("adder4")
    a = b.input("a", 4)
    x = b.input("x", 4)
    cin = b.input("cin", 1)[0]
    from repro.library.adders import ripple_carry_adder

    total, cout = ripple_carry_adder(b, a, x, cin)
    b.output("sum", total)
    b.output("cout", cout)
    return b.build()


def exhaustive_patterns():
    return [dict(a=a, x=x, cin=c)
            for a in range(16) for x in range(16) for c in (0, 1)]


class TestCombinational:
    def test_exhaustive_reaches_full_coverage(self):
        result = grade(adder4(), exhaustive_patterns())
        assert result.fault_coverage == 100.0
        assert result.undetected_faults() == []

    def test_single_pattern_partial_coverage(self):
        result = grade(adder4(), [dict(a=0, x=0, cin=0)])
        assert 0 < result.fault_coverage < 100.0

    def test_constant_tied_logic_reported_untestable(self):
        # An AND fed by constant 0 can never differ: its stuck-at-0 faults
        # are structurally untestable and must survive an exhaustive test.
        # (The builder's helpers fold such gates away, so emit it raw.)
        from repro.netlist.gates import GateType
        from repro.netlist.netlist import CONST0

        b = NetlistBuilder("tied")
        a = b.input("a", 1)
        dead = b.netlist.add_gate(GateType.AND, [a[0], CONST0])
        b.output("y", b.gate(GateType.OR, a[0], dead))
        patterns = [dict(a=v) for v in (0, 1)]
        result = grade(b.build(), patterns)
        assert result.fault_coverage < 100.0
        undetected = result.undetected_faults()
        nl = result.fault_list.netlist
        assert any("s-a-0" in f.describe(nl) for f in undetected)

    def test_unobserved_patterns_detect_nothing(self):
        observe = [() for _ in exhaustive_patterns()]
        result = grade(adder4(), exhaustive_patterns(),
                       options=GradeOptions(observe=observe))
        assert result.n_detected == 0

    def test_partial_observation(self):
        # Observing only cout: sum-only faults survive.
        observe = [("cout",) for _ in exhaustive_patterns()]
        result = grade(adder4(), exhaustive_patterns(),
                       options=GradeOptions(observe=observe))
        assert 0 < result.fault_coverage < 100.0

    def test_empty_patterns_rejected(self):
        with pytest.raises(FaultSimError):
            grade(adder4(), [])

    def test_observe_length_mismatch(self):
        with pytest.raises(FaultSimError):
            grade(adder4(), [dict(a=0, x=0)],
                  options=GradeOptions(observe=[(), ()]))

    def test_sequential_netlist_graded_as_cycle_sequence(self):
        # The facade dispatches on the netlist: with flip-flops, the
        # stimulus is an in-order cycle sequence, never a pattern set.
        b = NetlistBuilder("seq")
        x = b.input("x", 1)
        b.output("q", b.dff(x[0]))
        netlist = b.build()
        with pytest.raises(FaultSimError, match="no cycles to apply"):
            grade(netlist, [])
        # q resets to 0, so its s-a-1 shows at cycle 0; x=1 is latched at
        # cycle 0, so x-path s-a-0 faults only show on q at cycle 1.
        result = grade(netlist, [dict(x=1), dict(x=0)])
        assert result.n_patterns == 2
        assert {d.cycle for d in result.detections.values()
                if d.detected} == {0, 1}

    def test_result_accounting(self):
        result = grade(adder4(), exhaustive_patterns(),
                       options=GradeOptions(name="A4"))
        assert result.name == "A4"
        assert result.n_patterns == 512
        assert result.n_faults == result.fault_list.n_collapsed
        cov = result.to_component_coverage(nand2=38)
        assert cov.nand2 == 38
        assert cov.fault_coverage == result.fault_coverage


class TestSequential:
    def _regfile(self):
        from repro.library import build_register_file

        return build_register_file(n_registers=4, width=4)

    def test_march_reaches_high_coverage(self):
        cycles = []
        for value in (0b0101, 0b1010):
            for reg in range(1, 4):
                cycles.append(dict(wr_addr=reg, wr_data=value, wr_en=1,
                                   rd_addr_a=0, rd_addr_b=0))
            for reg in range(1, 4):
                cycles.append(dict(wr_addr=0, wr_data=0, wr_en=0,
                                   rd_addr_a=reg, rd_addr_b=reg))
        # Parity + unique backgrounds for the address logic.
        for reg in range(1, 4):
            parity = 0xF if bin(reg).count("1") & 1 else 0
            cycles.append(dict(wr_addr=reg, wr_data=parity, wr_en=1,
                               rd_addr_a=0, rd_addr_b=0))
        for reg in range(1, 4):
            cycles.append(dict(wr_addr=0, wr_data=0, wr_en=0,
                               rd_addr_a=reg, rd_addr_b=3 - reg))
        result = grade(self._regfile(), cycles)
        assert result.fault_coverage > 85.0

    def test_no_observation_no_detection(self):
        cycles = [dict(wr_addr=1, wr_data=0xF, wr_en=1,
                       rd_addr_a=1, rd_addr_b=1)] * 4
        observe = [() for _ in cycles]
        result = grade(self._regfile(), cycles,
                       options=GradeOptions(observe=observe))
        assert result.n_detected == 0

    def test_empty_cycles_rejected(self):
        with pytest.raises(FaultSimError):
            grade(self._regfile(), [])

    def test_observe_length_mismatch(self):
        with pytest.raises(FaultSimError):
            grade(
                self._regfile(),
                [dict(wr_addr=0, wr_data=0, wr_en=0,
                      rd_addr_a=0, rd_addr_b=0)],
                options=GradeOptions(observe=[(), ()]),
            )
