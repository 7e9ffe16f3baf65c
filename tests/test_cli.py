"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    EXIT_ANALYZE_COLLAPSE,
    EXIT_ANALYZE_FORMAL,
    EXIT_ANALYZE_NETLIST,
    EXIT_ANALYZE_PROGRAM,
    EXIT_ANALYZE_REACH,
    EXIT_DEGRADED,
    EXIT_WATCHDOG,
    main,
)
from repro.faultsim.engine import prune_set
from repro.faultsim.faults import build_fault_list
from repro.plasma.components import component

SAMPLE = """
.text
    li $t0, 7
    la $t1, out
    sw $t0, 0($t1)
halt: j halt
    nop
.data
out: .word 0
"""

RUNAWAY = """
.text
loop:
    addiu $t0, $t0, 1
    j loop
    nop
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.s"
    path.write_text(SAMPLE)
    return str(path)


class TestAsm:
    def test_stats(self, sample_file, capsys):
        assert main(["asm", sample_file]) == 0
        out = capsys.readouterr().out
        assert "code words" in out

    def test_listing(self, sample_file, capsys):
        assert main(["asm", sample_file, "--listing"]) == 0
        out = capsys.readouterr().out
        assert "addiu $t0, $zero, 7" in out

    def test_image(self, sample_file, capsys):
        assert main(["asm", sample_file, "--image"]) == 0
        out = capsys.readouterr().out
        assert "00000000" in out

    def test_assembly_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("bogus $1, $2\n")
        assert main(["asm", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_runs_and_reports(self, sample_file, capsys):
        assert main(["run", sample_file]) == 0
        out = capsys.readouterr().out
        assert "halted at pc=" in out

    def test_dump(self, sample_file, capsys):
        assert main(["run", sample_file, "--dump", "0x2000:1"]) == 0
        out = capsys.readouterr().out
        assert "00002000 00000007" in out

    def test_bad_dump_spec(self, sample_file):
        with pytest.raises(SystemExit):
            main(["run", sample_file, "--dump", "whatever"])

    def test_watchdog_max_cycles(self, tmp_path, capsys):
        runaway = tmp_path / "runaway.s"
        runaway.write_text(RUNAWAY)
        code = main(["run", str(runaway), "--max-cycles", "50"])
        assert code == EXIT_WATCHDOG
        err = capsys.readouterr().err
        assert "watchdog" in err
        assert "Traceback" not in err

    def test_watchdog_not_tripped_by_halting_program(self, sample_file):
        assert main(["run", sample_file, "--max-cycles", "10000"]) == 0


class TestSelftest:
    def test_prints_source(self, capsys):
        assert main(["selftest", "--phases", "A"]) == 0
        captured = capsys.readouterr()
        assert "selftest_start:" in captured.out
        assert "code words" in captured.err

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "st.s"
        assert main(["selftest", "--phases", "A", "-o", str(target)]) == 0
        assert "selftest_halt" in target.read_text()


def _exploding_shard(name, lo, hi):
    # Module-level: pool workers receive shard functions by reference.
    raise ValueError("synthetic grading failure")


class TestCampaign:
    def test_subset_campaign(self, capsys):
        assert main(["campaign", "--phases", "A",
                     "--components", "ALU,BSH"]) == 0
        out = capsys.readouterr().out
        assert "ALU" in out and "Plasma" in out
        assert "Clock Cycles" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        args = ["campaign", "--phases", "A", "--components", "CTRL",
                "--checkpoint", ckpt]
        assert main(args) == 0
        assert (tmp_path / "ckpt" / "checkpoint.jsonl").exists()
        assert (tmp_path / "ckpt" / "events.jsonl").exists()
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "CTRL" in capsys.readouterr().out

    def test_multiphase_checkpoint_keeps_all_phases(self, tmp_path, capsys):
        from repro.runtime.checkpoint import CheckpointStore

        ckpt = str(tmp_path / "ckpt")
        assert main(["campaign", "--phases", "A,AB",
                     "--components", "CTRL", "--checkpoint", ckpt]) == 0
        # The second phase must not wipe the first phase's journal.
        assert set(CheckpointStore(ckpt).load()) == {
            "A:CTRL#01/01", "AB:CTRL#01/01",
        }

    def test_degraded_campaign_distinct_exit_code(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.core.sharded as sharded_mod

        monkeypatch.setattr(sharded_mod, "grade_shard", _exploding_shard)
        code = main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--checkpoint", str(tmp_path / "ckpt"),
                     "--retries", "1"])
        assert code == EXIT_DEGRADED
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "Traceback" not in captured.err
        assert "lower bound" in captured.out

    def test_prune_untestable_only_improves_table5_coverage(self, capsys):
        # --prune-untestable grades in "proven" mode: SAT-certified
        # redundant classes leave the FC denominator, so coverage may
        # only improve — and only through the denominator, never
        # through the detected set (tests/faultsim/test_proven.py pins
        # the set equality; here we check the CLI surface).
        def ctrl_fc(text):
            row = next(line for line in text.splitlines()
                       if line.startswith("CTRL"))
            return float(row.split("|")[1])

        assert main(["campaign", "--phases", "A",
                     "--components", "CTRL"]) == 0
        base = capsys.readouterr().out
        assert main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--prune-untestable"]) == 0
        pruned = capsys.readouterr().out
        netlist = component("CTRL").builder()
        n_proven = len(prune_set(netlist, build_fault_list(netlist), "proven"))
        assert n_proven > 0
        assert f", {n_proven} proven-redundant" in pruned
        assert "proven-redundant" not in base
        assert ctrl_fc(pruned) >= ctrl_fc(base)

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--resume"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_makes_repeat_campaign_incremental(
        self, tmp_path, capsys
    ):
        import re

        cache = str(tmp_path / "cache")
        args = ["campaign", "--phases", "A", "--components", "CTRL,BSH",
                "--cache-dir", cache]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "persistent cache: 0/2 components reused" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "persistent cache: 2/2 components reused" in warm
        assert warm.count("store hit") == 2

        def table5(text):
            # Strip the timing-bearing progress lines and the hit-count
            # line itself; the tables must be bit-identical between the
            # cold and warm runs.
            text = re.sub(r"\d+\.\d+s[^)]*\)", ")", text)
            return re.sub(r"persistent cache: \d+", "persistent cache:",
                          text)

        assert table5(cold) == table5(warm)

    def test_cache_dir_composes_with_parallel_grading(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        args = ["campaign", "--phases", "A", "--components", "CTRL",
                "--cache-dir", cache, "--jobs", "2"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "persistent cache: 1/1 components reused" in warm

    def test_packed_engine_with_lanes_flag(self, capsys):
        assert main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--engine", "packed", "--lanes", "16"]) == 0
        assert "CTRL" in capsys.readouterr().out

    def test_invalid_lanes_rejected(self, capsys):
        code = main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--lanes", "1"])
        assert code == 1
        assert "lanes" in capsys.readouterr().err


class TestInventory:
    def test_tables(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "Register File" in out
        assert "17,459" in out


BAD_DELAY_SLOT = """
.text
start:
    beq $0, $0, done
    j start
done:
    j done
    nop
"""


class TestAnalyze:
    def test_named_netlist_ok(self, capsys):
        assert main(["analyze", "netlist", "CTRL"]) == 0
        out = capsys.readouterr().out
        assert "1 target(s) analyzed, 0 with errors" in out

    def test_all_shipped_artifacts_are_clean(self, capsys):
        assert main(["analyze", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 with errors" in out

    def test_seeded_delay_slot_hazard_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(BAD_DELAY_SLOT)
        assert main(["analyze", "program", str(bad)]) == EXIT_ANALYZE_PROGRAM
        out = capsys.readouterr().out
        assert "PR002" in out
        assert "delay slot" in out

    def test_broken_netlist_fails_with_rule_id(self, capsys, monkeypatch):
        import dataclasses

        from repro.netlist.builder import NetlistBuilder
        from repro.netlist.gates import GateType
        from repro.plasma import components as components_mod

        def undriven_component():
            nb = NetlistBuilder("broken")
            a = nb.input("a", 1)[0]
            floating = nb.netlist.new_net("floating")
            nb.output("y", nb.gate(GateType.AND, a, floating))
            return nb.netlist

        info = dataclasses.replace(
            components_mod.component("CTRL"), builder=undriven_component
        )
        monkeypatch.setattr(components_mod, "component", lambda name: info)
        code = main(["analyze", "netlist", "CTRL"])
        assert code == EXIT_ANALYZE_NETLIST
        out = capsys.readouterr().out
        assert "NL002" in out
        assert "undriven" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(BAD_DELAY_SLOT)
        assert main(["analyze", "program", str(bad), "--json"]) \
            == EXIT_ANALYZE_PROGRAM
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        rules = [d["rule"] for r in doc["reports"]
                 for d in r["diagnostics"]]
        assert "PR002" in rules

    def test_all_with_targets_rejected(self, capsys):
        assert main(["analyze", "netlist", "CTRL", "--all"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyzeFormal:
    def test_exit_code_constant(self):
        assert EXIT_ANALYZE_FORMAL == 8

    def test_clean_component_passes_with_table(self, capsys):
        assert main(["analyze", "formal", "GL"]) == 0
        out = capsys.readouterr().out
        assert "FV203" in out
        assert "proven" in out  # the structural-vs-proven table

    def test_component_flag_merges_targets(self, capsys):
        assert main(["analyze", "formal", "--component", "GL",
                     "--component", "PLN"]) == 0
        out = capsys.readouterr().out
        assert "2 target(s) analyzed, 0 with errors" in out

    def test_json_output_carries_formal_report(self, capsys):
        assert main(["analyze", "formal", "GL", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        kinds = {r["kind"] for r in doc["reports"]}
        assert kinds == {"formal"}

    def test_mutant_netlist_exits_8(self, capsys, monkeypatch):
        import dataclasses

        from repro.netlist.gates import GateType
        from repro.plasma import components as components_mod

        build = components_mod.component("GL").builder

        def mutant_builder():
            netlist = build()
            swaps = {GateType.AND: GateType.OR, GateType.OR: GateType.AND}
            for i, gate in enumerate(netlist.gates):
                if gate.gtype in swaps:
                    netlist.gates[i] = dataclasses.replace(
                        gate, gtype=swaps[gate.gtype]
                    )
                    return netlist
            raise AssertionError("no swappable gate")

        info = dataclasses.replace(
            components_mod.component("GL"), builder=mutant_builder
        )
        monkeypatch.setattr(components_mod, "component", lambda name: info)
        assert main(["analyze", "formal", "GL"]) == EXIT_ANALYZE_FORMAL
        out = capsys.readouterr().out
        assert "FV201" in out


class TestEngineSelection:
    def test_campaign_engine_flag(self, capsys):
        assert main(["campaign", "--phases", "A", "--components",
                     "CTRL,BMUX", "--engine", "packed"]) == 0
        out = capsys.readouterr().out
        assert "CTRL" in out and "BMUX" in out

    def test_campaign_tables_engine_invariant(self, capsys):
        import re

        def normalized(text):
            # The per-component progress line carries a wall-clock
            # duration and names the engine; everything else must be
            # engine-invariant.
            text = re.sub(r", engine \w+", "", text)
            return re.sub(r"\d+\.\d+s", "_s", text)

        assert main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--engine", "differential"]) == 0
        differential = capsys.readouterr().out
        assert main(["campaign", "--phases", "A", "--components", "CTRL",
                     "--engine", "packed"]) == 0
        packed = capsys.readouterr().out
        assert ", engine differential," in differential
        assert ", engine packed," in packed
        # Table 5 must be bit-identical whichever engine graded it.
        assert normalized(differential) == normalized(packed)

    def test_unknown_engine_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--phases", "A", "--components", "CTRL",
                  "--engine", "flextest"])
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["batch", "compiled"])
    def test_removed_engines_rejected_by_parser(self, removed, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--phases", "A", "--components", "CTRL",
                  "--engine", removed])
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "'auto', 'differential', 'packed'" in err

    def test_selftest_coverage_report(self, capsys):
        assert main(["selftest", "--phases", "A", "--coverage",
                     "--engine", "auto"]) == 0
        out = capsys.readouterr().out
        assert "engine: auto" in out
        assert "overall FC" in out


class TestAnalyzeCollapse:
    def test_named_component_ok_with_summary_table(self, capsys):
        assert main(["analyze", "collapse", "GL"]) == 0
        out = capsys.readouterr().out
        assert "NL201" in out
        assert "supers" in out      # the collapse summary table header
        assert "refuted" in out
        assert "0 with errors" in out

    def test_component_flag_and_json(self, capsys):
        assert main(["analyze", "collapse", "--component", "GL",
                     "--json", "--sat-samples", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        report, = doc["reports"]
        assert report["kind"] == "collapse"
        assert [d["rule"] for d in report["diagnostics"]] == ["NL201"]

    def test_refuted_claim_exits_with_collapse_code(
        self, capsys, monkeypatch
    ):
        from repro.analysis import collapse as collapse_mod

        def refute(netlist, cmap, samples=8):
            return collapse_mod.CollapseCheck(
                n_equivalence=1, n_dominance=0,
                refuted_equivalence=("forged claim",),
            )

        monkeypatch.setattr(collapse_mod, "sat_spot_check", refute)
        code = main(["analyze", "collapse", "GL"])
        assert code == EXIT_ANALYZE_COLLAPSE
        out = capsys.readouterr().out
        assert "NL202" in out
        assert "forged claim" in out


class TestAnalyzeReach:
    def test_exit_code_constant(self):
        assert EXIT_ANALYZE_REACH == 11

    def test_phase_a_over_components_with_table(self, capsys):
        assert main(["analyze", "reach", "--component", "GL",
                     "--component", "CTRL", "--sat-samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "RC301" in out
        assert "proven%" in out  # the reach summary table header
        assert "refuted" in out
        assert "0 with errors" in out

    def test_assembly_file_target(self, sample_file, capsys):
        assert main(["analyze", "reach", sample_file,
                     "--component", "GL", "--sat-samples", "2"]) == 0
        out = capsys.readouterr().out
        assert sample_file in out

    def test_json_output(self, capsys):
        assert main(["analyze", "reach", "--component", "GL",
                     "--sat-samples", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        report, = doc["reports"]
        assert report["kind"] == "reach"
        row, = doc["reach"]
        assert row["component"] == "GL"
        assert row["proven_unexercised"] > 0
        assert row["sat_refuted"] == 0

    def test_refuted_claim_exits_with_reach_code(self, capsys, monkeypatch):
        from repro.analysis import reach as reach_mod

        def refute(netlist, report, samples=8):
            return reach_mod.ReachCheck(
                n_checked=1, refuted=("forged reach claim",)
            )

        monkeypatch.setattr(reach_mod, "reach_spot_check", refute)
        code = main(["analyze", "reach", "--component", "GL"])
        assert code == EXIT_ANALYZE_REACH
        out = capsys.readouterr().out
        assert "RC302" in out
        assert "forged reach claim" in out


class TestAnalyzeJsonEnvelope:
    """Every analyze subcommand emits the same versioned JSON envelope."""

    @pytest.mark.parametrize(
        "args, section",
        [
            (["program"], None),
            (["netlist", "GL"], None),
            (["formal", "GL"], "formal"),
            (["collapse", "GL", "--sat-samples", "2"], "collapse"),
            (["reach", "--component", "GL", "--sat-samples", "2"],
             "reach"),
        ],
    )
    def test_envelope_shape(self, args, section, capsys):
        assert main(["analyze", *args, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert isinstance(doc["ok"], bool)
        assert isinstance(doc["reports"], list)
        for report in doc["reports"]:
            assert set(report) == {
                "target", "kind", "ok", "errors", "warnings",
                "diagnostics",
            }
        if section is not None:
            # The analyzer's summary table rides along in JSON mode too
            # (text mode prints it after the reports).
            rows = doc[section]
            assert rows and all("component" in row for row in rows)


class TestCampaignReach:
    def test_reach_flag_rejected_by_parser(self, capsys):
        # The reach analysis is `repro analyze reach` only; grading
        # never consults it, so campaign has no --reach flag.
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--phases", "A", "--components", "GL",
                  "--reach"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --reach" in capsys.readouterr().err


class TestCampaignCollapse:
    def test_collapse_flag_matches_no_collapse_tables(self, capsys):
        import re

        def normalized(text):
            # Wall-clock durations and the collapse accounting (the
            # "N inferred" note) may differ; the tables must not.
            text = re.sub(r"\d+\.\d+s", "_s", text)
            return re.sub(r", \d+ inferred", "", text)

        assert main(["campaign", "--phases", "A",
                     "--components", "GL", "--collapse"]) == 0
        collapsed = capsys.readouterr().out
        assert main(["campaign", "--phases", "A",
                     "--components", "GL", "--no-collapse"]) == 0
        plain = capsys.readouterr().out
        assert normalized(collapsed) == normalized(plain)
