"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``asm FILE``       — assemble a MIPS source file, print statistics and
  (optionally) a listing or a memory image.
* ``run FILE``       — assemble and execute on the Plasma model.
* ``selftest``       — generate a Phase A/AB/ABC self-test program.
* ``campaign``       — run the fault-grading campaign and print the tables.
* ``inventory``      — print the component classification and gate counts
  (Tables 2 and 3).
* ``analyze``        — static analysis: program CFG/dataflow checks,
  netlist testability (SCOAP) screening, the SAT-based formal layer
  (``analyze formal``: golden-model equivalence + redundancy proofs),
  the structural fault-collapse pass (``analyze collapse``: equivalence /
  dominance classes with a SAT spot-check) and the program-aware reach
  screen (``analyze reach``: abstract interpretation proving fault
  classes unexercised by a self-test program, SAT spot-checked).
* ``serve``          — run the campaign service: an async HTTP API that
  queues campaign jobs and streams per-shard progress over SSE (see
  ``docs/SERVICE.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.campaign import run_campaign
from repro.core.methodology import SelfTestMethodology
from repro.errors import ReproError, WatchdogTimeout
from repro.faultsim.engine import engine_names
from repro.faultsim.options import DEFAULT_LANES, GradeOptions
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble_program
from repro.plasma.cpu import PlasmaCPU
from repro.reporting.tables import (
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)
from repro.runtime import RetryPolicy, RuntimeConfig

#: Distinct exit codes so scripts/CI can tell failure modes apart.
EXIT_ERROR = 1       # generic library error
EXIT_DEGRADED = 3    # campaign completed but with ungraded components
EXIT_WATCHDOG = 4    # CPU watchdog tripped (runaway program)
EXIT_ANALYZE_PROGRAM = 5   # program analyzer found errors
EXIT_ANALYZE_NETLIST = 6   # netlist analyzer found errors
EXIT_ANALYZE_BOTH = 7      # both analyzers found errors
EXIT_ANALYZE_FORMAL = 8    # formal layer found errors (CEC / soundness)
EXIT_ANALYZE_COLLAPSE = 9  # SAT refuted a static collapse claim
EXIT_SERVICE = 10          # campaign service failed to start or crashed
EXIT_ANALYZE_REACH = 11    # SAT refuted a reach (unexercised) claim


def _cmd_asm(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        program = assemble(handle.read())
    print(
        f"{args.file}: {program.code_words} code words, "
        f"{program.data_words} data words"
    )
    if args.listing:
        for line in disassemble_program(program):
            print(line)
    if args.image:
        for addr, word in sorted(program.to_image().items()):
            print(f"{addr:08x} {word:08x}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        program = assemble(handle.read())
    cpu = PlasmaCPU()
    cpu.load_program(program)
    try:
        result = cpu.run(
            max_instructions=args.max_instructions,
            max_cycles=args.max_cycles,
        )
    except WatchdogTimeout as exc:
        print(f"watchdog: {exc}", file=sys.stderr)
        return EXIT_WATCHDOG
    print(
        f"halted at pc={result.pc:#010x} after {result.instructions} "
        f"instructions / {result.cycles} cycles"
    )
    if args.dump:
        base, count = args.dump
        for i, word in enumerate(cpu.memory.dump_words(base, count)):
            print(f"{base + 4 * i:08x} {word:08x}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    self_test = SelfTestMethodology().build_program(args.phases)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(self_test.source)
        print(f"wrote {args.output}")
    elif not args.coverage:
        print(self_test.source)
    print(
        f"# phases={args.phases}: {self_test.code_words} code words, "
        f"{self_test.data_words} data words, "
        f"{self_test.response_words} response words",
        file=sys.stderr,
    )
    if args.coverage:
        from repro.core.campaign import grade_program

        print(f"== grading phases {args.phases} (engine: {args.engine}) ==")
        outcome = grade_program(
            self_test, verbose=True, options=_grade_options(args)
        )
        summary = outcome.summary
        print(
            f"overall FC {summary.overall_coverage:.2f}% "
            f"({summary.total_detected}/{summary.total_faults} faults)"
        )
    return 0


def _grade_options(args: argparse.Namespace) -> GradeOptions:
    """The grading options of ``campaign`` and ``selftest --coverage``.

    ``selftest`` has no flags for the knobs past ``--engine``; its parser
    defaults them to the campaign's defaults (collapse on).
    """
    return GradeOptions(
        engine=args.engine,
        prune_untestable="proven" if args.prune_untestable else False,
        collapse=args.collapse,
        cache=args.cache_dir,
        lanes=args.lanes if args.lanes is not None else DEFAULT_LANES,
    )


def _campaign_runtime(args: argparse.Namespace) -> RuntimeConfig | None:
    """Build the shard-scheduler config from CLI flags (None = in process)."""
    wants_runtime = (
        args.checkpoint is not None
        or args.resume
        or args.timeout is not None
        or args.isolate
        or args.jobs > 1
    )
    if not wants_runtime:
        return None
    if args.jobs > 1 and args.no_isolate:
        # Same exit code as argparse usage errors: the flags conflict.
        print(
            "error: --jobs requires worker isolation; "
            "drop --no-isolate to grade in parallel",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return RuntimeConfig(
        timeout_seconds=args.timeout,
        retry=RetryPolicy(max_attempts=args.retries),
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
        isolate=not args.no_isolate,
        jobs=args.jobs,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    components = args.components.split(",") if args.components else None
    runtime = _campaign_runtime(args)
    options = _grade_options(args)
    outcomes = {}
    degraded: list[str] = []
    for phases in args.phases.split(","):
        print(f"== campaign: phases {phases} ==")
        outcomes[phases] = run_campaign(
            phases, components=components, verbose=True, runtime=runtime,
            options=options,
        )
        if args.cache_dir is not None:
            outcome = outcomes[phases]
            print(
                f"persistent cache: {len(outcome.cached_components)}"
                f"/{len(outcome.results)} components reused"
            )
        if runtime is not None and runtime.checkpoint_dir is not None:
            # Later phases (and the journal entries the first phase just
            # wrote) must survive: only the first phase may start a fresh
            # journal.
            runtime = dataclasses.replace(runtime, resume=True)
        degraded += [
            f"{phases}:{name}"
            for name in outcomes[phases].degraded_components
        ]
    print()
    print(render_table4(outcomes))
    print()
    print(render_table5(outcomes))
    if degraded:
        print(
            "warning: campaign degraded; ungraded components: "
            + ", ".join(degraded),
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig
    from repro.service.app import run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        max_jobs=args.max_jobs,
        cache_dir=args.cache_dir,
        checkpoint_root=args.checkpoint_root,
        timeout_seconds=args.timeout,
        retries=args.retries,
    )
    try:
        return run_service(config)
    except OSError as exc:
        # Bind failures (port in use, bad host) land here.
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except ReproError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_SERVICE


def _cmd_inventory(_args: argparse.Namespace) -> int:
    print(render_table2())
    print()
    print(render_table3())
    return 0


def _analyze_programs(files: list[str]) -> list:
    """Program reports: given files, or every shipped routine + the full
    phased self-test program when no files are named."""
    from repro.analysis import AnalysisOptions, analyze_program
    from repro.core.routines import ROUTINES, standalone_program

    reports = []
    if files:
        for path in files:
            with open(path) as handle:
                program = assemble(handle.read())
            reports.append(analyze_program(program, path, AnalysisOptions()))
        return reports
    for name in ROUTINES:
        source, routine = standalone_program(name)
        options = AnalysisOptions(
            signature_registers=routine.signature_registers
        )
        reports.append(
            analyze_program(assemble(source), f"routine:{name}", options)
        )
    methodology = SelfTestMethodology()
    self_test = methodology.build_program("ABC")
    signatures = tuple(
        {
            reg
            for _phase, routine in methodology.routine_plan("ABC")
            for reg in routine.signature_registers
        }
    )
    reports.append(
        analyze_program(
            self_test.program,
            "selftest:ABC",
            AnalysisOptions(signature_registers=signatures),
        )
    )
    return reports


def _analyze_netlists(names: list[str]) -> list:
    """Netlist reports for the named components (default: all)."""
    from repro.analysis.netlist import analyze_netlist
    from repro.plasma.components import COMPONENTS, component

    infos = [component(n) for n in names] if names else list(COMPONENTS)
    return [analyze_netlist(info.builder()) for info in infos]


def _analyze_formal(names: list[str]) -> tuple[list, list]:
    """Formal reports + redundancy screens for the named components.

    Default: all ten.  The screen is computed once per component and
    shared between the FV report and the provenance table.
    """
    from repro.analysis.formal import analyze_formal
    from repro.formal.redundancy import prove_untestable
    from repro.plasma.components import COMPONENTS, component

    infos = [component(n) for n in names] if names else list(COMPONENTS)
    reports, screens = [], []
    for info in infos:
        netlist = info.builder()
        screen = prove_untestable(netlist, component=info.name)
        reports.append(
            analyze_formal(netlist, component=info.name, screen=screen)
        )
        screens.append(screen)
    return reports, screens


def _analyze_collapse(names: list[str], sat_samples: int) -> tuple[list, list]:
    """Collapse reports + ``(map, check)`` pairs for the named components.

    Default: all ten.  Each component's collapse map is computed once and
    shared between the report and the summary table.
    """
    from repro.analysis.collapse import analyze_collapse
    from repro.plasma.components import COMPONENTS, component

    infos = [component(n) for n in names] if names else list(COMPONENTS)
    reports, entries = [], []
    for info in infos:
        report, cmap, check = analyze_collapse(
            info.builder(), sat_samples=sat_samples
        )
        reports.append(report)
        entries.append((cmap, check))
    return reports, entries


def _analyze_reach(
    specs: list[str], components: list[str], sat_samples: int
) -> tuple[list, list]:
    """Reach reports + ``(report, check)`` pairs per analyzed program.

    Each spec is a phase configuration (``A``/``AB``/``ABC`` — the
    generated self-test program) or an assembly file path; with no
    specs the phase A program is analyzed.  ``components`` restricts
    the analysis (default: all ten).
    """
    from repro.analysis.reach import analyze_reach

    reports, entries = [], []
    for spec in specs or ["A"]:
        if spec in ("A", "AB", "ABC"):
            program = SelfTestMethodology().build_program(spec).program
            label = f"phase:{spec}"
        else:
            with open(spec) as handle:
                program = assemble(handle.read())
            label = spec
        report, by_component, checks = analyze_reach(
            program,
            components=components or None,
            sat_samples=sat_samples,
            target=label,
        )
        reports.append(report)
        entries += [
            (by_component[name], checks[name]) for name in by_component
        ]
    return reports, entries


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import reports_to_json
    from repro.reporting.analysis import (
        collapse_table_json,
        formal_table_json,
        reach_table_json,
        render_analysis_reports,
        render_collapse_table,
        render_formal_table,
        render_reach_table,
    )

    do_programs = args.all or args.what == "program"
    do_netlists = args.all or args.what == "netlist"
    do_formal = args.what == "formal"
    do_collapse = args.what == "collapse"
    do_reach = args.what == "reach"
    if not (do_programs or do_netlists or do_formal or do_collapse
            or do_reach):
        print("error: analyze needs 'program', 'netlist', 'formal', "
              "'collapse', 'reach' or --all",
              file=sys.stderr)
        return EXIT_ERROR
    if args.all and args.targets:
        print("error: --all analyzes everything; drop the extra targets",
              file=sys.stderr)
        return EXIT_ERROR
    targets = list(args.targets)
    if args.component and not do_reach:
        # For reach, positional targets name *programs* and --component
        # names netlists — the two stay separate.  Everywhere else
        # --component is sugar for a positional target.
        targets += args.component

    program_reports = _analyze_programs(targets) if do_programs else []
    netlist_reports = _analyze_netlists(targets) if do_netlists else []
    formal_reports: list = []
    formal_screens: list = []
    if do_formal:
        formal_reports, formal_screens = _analyze_formal(targets)
    collapse_reports: list = []
    collapse_entries: list = []
    if do_collapse:
        collapse_reports, collapse_entries = _analyze_collapse(
            targets, args.sat_samples
        )
    reach_diagnostics: list = []
    reach_entries: list = []
    if do_reach:
        reach_diagnostics, reach_entries = _analyze_reach(
            targets, args.component or [], args.sat_samples
        )
    reports = (
        program_reports + netlist_reports + formal_reports
        + collapse_reports + reach_diagnostics
    )

    if args.json:
        extra: dict = {}
        if formal_screens:
            extra["formal"] = formal_table_json(formal_screens)
        if collapse_entries:
            extra["collapse"] = collapse_table_json(collapse_entries)
        if reach_entries:
            extra["reach"] = reach_table_json(reach_entries)
        print(reports_to_json(reports, extra=extra))
    else:
        print(render_analysis_reports(
            reports, max_diagnostics=args.max_diagnostics
        ))
        if formal_screens:
            print()
            print(render_formal_table(formal_screens))
        if collapse_entries:
            print()
            print(render_collapse_table(collapse_entries))
        if reach_entries:
            print()
            print(render_reach_table(reach_entries))

    program_failed = any(not r.ok for r in program_reports)
    netlist_failed = any(not r.ok for r in netlist_reports)
    formal_failed = any(not r.ok for r in formal_reports)
    collapse_failed = any(not r.ok for r in collapse_reports)
    reach_failed = any(not r.ok for r in reach_diagnostics)
    if reach_failed:
        return EXIT_ANALYZE_REACH
    if collapse_failed:
        return EXIT_ANALYZE_COLLAPSE
    if formal_failed:
        return EXIT_ANALYZE_FORMAL
    if program_failed and netlist_failed:
        return EXIT_ANALYZE_BOTH
    if program_failed:
        return EXIT_ANALYZE_PROGRAM
    if netlist_failed:
        return EXIT_ANALYZE_NETLIST
    return 0


def _parse_dump(text: str) -> tuple[int, int]:
    try:
        base, count = text.split(":")
        return int(base, 0), int(count, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BASE:COUNT (e.g. 0x4000:16), got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a MIPS source file")
    p_asm.add_argument("file")
    p_asm.add_argument("--listing", action="store_true",
                       help="print a disassembly listing")
    p_asm.add_argument("--image", action="store_true",
                       help="print the memory image (addr word per line)")
    p_asm.set_defaults(func=_cmd_asm)

    p_run = sub.add_parser("run", help="assemble and execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--max-instructions", type=int, default=2_000_000)
    p_run.add_argument("--max-cycles", type=int, default=None,
                       help="CPU watchdog: abort after this many cycles "
                            f"(exit code {EXIT_WATCHDOG})")
    p_run.add_argument("--dump", type=_parse_dump, metavar="BASE:COUNT",
                       help="dump memory words after the run")
    p_run.set_defaults(func=_cmd_run)

    engine_choices = ("auto", *engine_names())

    p_st = sub.add_parser("selftest", help="generate a self-test program")
    p_st.add_argument("--phases", default="AB")
    p_st.add_argument("-o", "--output")
    p_st.add_argument("--coverage", action="store_true",
                      help="also fault-grade the generated program and "
                           "print per-component coverage")
    p_st.add_argument("--engine", choices=engine_choices, default="auto",
                      help="fault-sim engine for --coverage (default auto)")
    # --coverage grades with the campaign's default options.
    p_st.set_defaults(func=_cmd_selftest, prune_untestable=False,
                      collapse=True, cache_dir=None, lanes=None)

    p_c = sub.add_parser("campaign", help="run the fault-grading campaign")
    p_c.add_argument("--phases", default="A",
                     help="comma-separated phase configs (e.g. A,AB)")
    p_c.add_argument("--components",
                     help="comma-separated subset (e.g. ALU,BSH)")
    p_c.add_argument("--checkpoint", metavar="DIR",
                     help="journal completed shards to DIR "
                          "(crash-safe JSONL + event log)")
    p_c.add_argument("--resume", action="store_true",
                     help="reuse journaled results from --checkpoint DIR")
    p_c.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="wall-clock budget per shard attempt (one shard "
                          "per component at --jobs 1)")
    p_c.add_argument("--retries", type=int, default=3, metavar="N",
                     help="attempts per shard (one shard per component at "
                          "--jobs 1) before degrading (default 3)")
    p_c.add_argument("--isolate", action="store_true",
                     help="force the shard scheduler's worker pool "
                          "(process isolation) even without "
                          "--checkpoint/--timeout")
    p_c.add_argument("--no-isolate", action="store_true",
                     help="run grading jobs in-process (no timeouts)")
    p_c.add_argument("--prune-untestable", action="store_true",
                     help="SAT-certify the structurally untestable fault "
                          "classes (SCOAP screening, repro.formal) and "
                          "exclude the proven-redundant ones from the FC "
                          "denominator; every class is still simulated, "
                          "so coverage can only stay equal or improve")
    p_c.add_argument("--engine", choices=engine_choices, default="auto",
                     help="fault-sim engine (default: auto — packed for "
                          "deep combinational components and for "
                          "sequential ones whose stimulus is at least "
                          "90%% held cycles, such as MulD; differential "
                          "otherwise)")
    p_c.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="parallel grading workers; each component's "
                          "fault universe is sharded over a persistent "
                          "pool and the merged tables are bit-identical "
                          "to --jobs 1 (default: 1 = serial)")
    p_c.add_argument("--collapse", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="grade through the structural collapse map: "
                          "simulate only super-class representatives and "
                          "infer dominated verdicts; Tables 4/5 are "
                          "bit-identical either way (default: on; "
                          "--no-collapse simulates every class)")
    p_c.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="persistent content-addressed store for good "
                          "traces and verdict records; an unchanged "
                          "repeat campaign replays verdicts from DIR "
                          "and re-simulates nothing")
    p_c.add_argument("--lanes", type=int, default=None, metavar="N",
                     help="lane groups per packed-engine word, 2-1024 "
                          "(default 64 = good machine + 63 fault "
                          "classes); only meaningful where the packed "
                          "engine grades (--engine packed, or auto on "
                          "deep combinational components and mostly "
                          "held sequential ones)")
    p_c.set_defaults(func=_cmd_campaign)

    p_inv = sub.add_parser("inventory", help="print Tables 2 and 3")
    p_inv.set_defaults(func=_cmd_inventory)

    p_srv = sub.add_parser(
        "serve",
        help="run the campaign service (async HTTP API + SSE)",
        description=(
            "Run the long-lived campaign service.  Campaigns are "
            "submitted as JSON jobs over HTTP (POST /v1/campaigns), run "
            "on a priority queue with per-tenant quotas and idempotent "
            "deduplication, and stream per-shard progress over "
            "Server-Sent Events.  See docs/SERVICE.md for the endpoint "
            f"reference.  Exit code {EXIT_SERVICE} = the service could "
            "not start (e.g. the port is taken) or crashed."
        ),
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port and "
                            "prints it on startup (default 8765)")
    p_srv.add_argument("--workers", type=int, default=1, metavar="N",
                       help="concurrent campaign executors (default 1; "
                            "parallelism within a campaign comes from "
                            "the job's own 'jobs' field)")
    p_srv.add_argument("--queue-limit", type=int, default=16, metavar="N",
                       help="max queued jobs before submissions get "
                            "429 + Retry-After (default 16)")
    p_srv.add_argument("--tenant-quota", type=int, default=4, metavar="N",
                       help="max active jobs per tenant (default 4)")
    p_srv.add_argument("--max-jobs", type=int, default=8, metavar="N",
                       help="cap on a job's requested shard workers "
                            "(default 8)")
    p_srv.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent TraceStore shared by all jobs; "
                            "unchanged resubmissions replay verdicts "
                            "from DIR (cache_hit=true, zero re-simulated "
                            "fault classes)")
    p_srv.add_argument("--checkpoint-root", metavar="DIR", default=None,
                       help="per-job shard journals under DIR/<job key>; "
                            "a cancelled campaign's resubmission resumes "
                            "from its journal")
    p_srv.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per grading attempt "
                            "(isolated jobs only)")
    p_srv.add_argument("--retries", type=int, default=2, metavar="N",
                       help="attempts per job/shard before degrading "
                            "(default 2)")
    p_srv.set_defaults(func=_cmd_serve)

    p_an = sub.add_parser(
        "analyze",
        help="static analysis of self-test programs and netlists",
        description=(
            "Run the static analyzers.  'program' checks assembled "
            "programs (delay slots, def-use, signature clobbers, memory "
            "map); 'netlist' checks component circuits (structural lint "
            "+ SCOAP testability); 'formal' runs the SAT layer (netlist "
            "vs golden-model equivalence + redundancy-proof soundness "
            "gate); 'collapse' computes the structural fault-collapse "
            "map (equivalence + dominance) and SAT spot-checks sampled "
            "claims; 'reach' abstract-interprets a self-test program "
            "(phase spec A/AB/ABC or an assembly file; default A) and "
            "proves fault classes unexercised by it, SAT spot-checking "
            "sampled proofs.  With no targets, every shipped "
            "routine/netlist is analyzed.  Exit codes: "
            f"{EXIT_ANALYZE_PROGRAM} = program errors, "
            f"{EXIT_ANALYZE_NETLIST} = netlist errors, "
            f"{EXIT_ANALYZE_BOTH} = both, "
            f"{EXIT_ANALYZE_FORMAL} = formal errors, "
            f"{EXIT_ANALYZE_COLLAPSE} = refuted collapse claims, "
            f"{EXIT_ANALYZE_REACH} = refuted/unsound reach claims."
        ),
    )
    p_an.add_argument("what", nargs="?",
                      choices=("program", "netlist", "formal", "collapse",
                               "reach"),
                      help="which analyzer to run (or use --all)")
    p_an.add_argument("targets", nargs="*",
                      help="assembly files (program), component names "
                           "(netlist/formal/collapse) or phase "
                           "specs/assembly files (reach); default: all "
                           "shipped artifacts (reach: the phase A "
                           "program)")
    p_an.add_argument("--component", action="append", metavar="NAME",
                      help="component short name to analyze (repeatable; "
                           "same as a positional target, except for "
                           "'reach' where it restricts the analyzed "
                           "components)")
    p_an.add_argument("--all", action="store_true",
                      help="run the program and netlist analyzers over "
                           "every shipped routine, self-test program and "
                           "netlist")
    p_an.add_argument("--json", action="store_true",
                      help="emit a JSON document instead of text")
    p_an.add_argument("--max-diagnostics", type=int, default=20,
                      metavar="N",
                      help="cap printed findings per target (default 20)")
    p_an.add_argument("--sat-samples", type=int, default=8, metavar="N",
                      help="collapse analyzer: SAT spot-check samples per "
                           "claim family per component (default 8; large "
                           "values approach an exhaustive check)")
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that exited early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
