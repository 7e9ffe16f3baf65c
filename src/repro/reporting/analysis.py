"""Renderers for static-analysis reports (``repro analyze``).

Turns :class:`~repro.analysis.diagnostics.Report` lists into the
summary/testability tables printed by the CLI, next to the Table 2-5
renderers in :mod:`repro.reporting.tables`.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Report, render_text


def render_analysis_summary(reports: list[Report]) -> str:
    """One row per analyzed target: kind, target, status, counts."""
    lines = [
        f"{'kind':8s} {'target':16s} {'status':6s} {'errors':>6s} "
        f"{'warnings':>8s}",
        "-" * 48,
    ]
    for report in reports:
        lines.append(
            f"{report.kind:8s} {report.target:16s} "
            f"{'OK' if report.ok else 'FAIL':6s} "
            f"{len(report.errors):6d} {len(report.warnings):8d}"
        )
    n_fail = sum(1 for r in reports if not r.ok)
    lines.append("-" * 48)
    lines.append(
        f"{len(reports)} target(s) analyzed, {n_fail} with errors"
    )
    return "\n".join(lines)


def render_analysis_reports(
    reports: list[Report], max_diagnostics: int | None = 20
) -> str:
    """Full text rendering: per-target findings, then the summary table."""
    parts = [
        render_text(r, max_diagnostics=max_diagnostics)
        for r in reports
        if r.diagnostics
    ]
    parts.append(render_analysis_summary(reports))
    return "\n\n".join(parts)


def render_formal_table(screens) -> str:
    """Structural-screen vs SAT-proven counts per component.

    Args:
        screens: iterable of
            :class:`~repro.formal.redundancy.UntestabilityScreen`, one
            per component (any order; rendered as given).

    The ``proven`` column is the only set a coverage denominator may
    drop; ``unconfirmed`` must be 0 everywhere or the structural screen
    has lost soundness (rule FV202).
    """
    lines = [
        f"{'name':6s} {'classes':>8s} {'structural':>11s} {'proven':>7s} "
        f"{'witnessed':>10s} {'unconfirmed':>12s} {'conflicts':>10s}",
        "-" * 68,
    ]
    totals = [0, 0, 0, 0, 0, 0]
    for screen in screens:
        row = (
            screen.n_classes,
            len(screen.structural),
            len(screen.proven),
            len(screen.witnessed),
            len(screen.unconfirmed),
            screen.conflicts,
        )
        totals = [t + v for t, v in zip(totals, row, strict=True)]
        lines.append(
            f"{screen.component:6s} {row[0]:8d} {row[1]:11d} {row[2]:7d} "
            f"{row[3]:10d} {row[4]:12d} {row[5]:10d}"
        )
    lines.append("-" * 68)
    lines.append(
        f"{'total':6s} {totals[0]:8d} {totals[1]:11d} {totals[2]:7d} "
        f"{totals[3]:10d} {totals[4]:12d} {totals[5]:10d}"
    )
    return "\n".join(lines)


def render_collapse_table(entries) -> str:
    """Structural-collapse summary per component.

    Args:
        entries: iterable of ``(CollapseMap, CollapseCheck)`` pairs (see
            :mod:`repro.analysis.collapse`), one per component, rendered
            in the given order.

    ``ratio`` is classes per simulation unit — the steady-state shrink
    factor every campaign gets from ``--collapse``.  The SAT column
    counts spot-checked claims; ``refuted`` must be 0 everywhere or the
    static analysis is unsound (rules NL202/NL203).
    """
    lines = [
        f"{'name':6s} {'classes':>8s} {'supers':>7s} {'ratio':>6s} "
        f"{'merges':>7s} {'dom edges':>10s} {'SAT ok':>7s} "
        f"{'refuted':>8s}",
        "-" * 64,
    ]
    totals = [0, 0, 0, 0, 0, 0]
    for cmap, check in entries:
        refuted = len(check.refuted_equivalence) + len(
            check.refuted_dominance
        )
        checked = check.n_equivalence + check.n_dominance
        row = (
            cmap.n_classes, cmap.n_supers, len(cmap.merges),
            len(cmap.edges), checked - refuted, refuted,
        )
        totals = [t + v for t, v in zip(totals, row, strict=True)]
        lines.append(
            f"{cmap.netlist.name:6s} {row[0]:8d} {row[1]:7d} "
            f"{cmap.ratio:6.2f} {row[2]:7d} {row[3]:10d} {row[4]:7d} "
            f"{row[5]:8d}"
        )
    lines.append("-" * 64)
    ratio = totals[0] / totals[1] if totals[1] else 0.0
    lines.append(
        f"{'total':6s} {totals[0]:8d} {totals[1]:7d} {ratio:6.2f} "
        f"{totals[2]:7d} {totals[3]:10d} {totals[4]:7d} {totals[5]:8d}"
    )
    return "\n".join(lines)


def render_reach_table(entries) -> str:
    """Program-aware reach-analysis summary per component.

    Args:
        entries: iterable of ``(ReachReport, ReachCheck)`` pairs (see
            :mod:`repro.analysis.reach`), one per component, rendered in
            the given order.

    ``proven`` is the share of the class universe the analysis certifies
    as unexercised by the analyzed program — faults no grade of that
    program can detect, whatever the observability.  The SAT column
    counts spot-checked constant-net claims; ``refuted`` must be 0
    everywhere or the abstract interpretation is unsound (rule RC302).
    Degraded components (abstraction gave up) decide nothing.
    """
    lines = [
        f"{'name':6s} {'classes':>8s} {'exercised':>10s} {'proven':>7s} "
        f"{'unknown':>8s} {'proven%':>8s} {'patterns':>9s} "
        f"{'SAT ok':>7s} {'refuted':>8s}",
        "-" * 68,
    ]
    totals = [0, 0, 0, 0, 0, 0]
    for report, check in entries:
        if report.degraded:
            lines.append(
                f"{report.component:6s} {report.n_classes:8d} "
                f"{'- degraded: ' + report.degrade_reason}"
            )
            totals[0] += report.n_classes
            continue
        pct = (
            100.0 * report.n_proven / report.n_classes
            if report.n_classes else 0.0
        )
        row = (
            report.n_classes, report.n_exercised, report.n_proven,
            report.n_unknown, check.n_checked, len(check.refuted),
        )
        totals = [t + v for t, v in zip(totals, row, strict=True)]
        lines.append(
            f"{report.component:6s} {row[0]:8d} {row[1]:10d} {row[2]:7d} "
            f"{row[3]:8d} {pct:7.1f}% {report.n_patterns:9d} "
            f"{row[4] - row[5]:7d} {row[5]:8d}"
        )
    lines.append("-" * 68)
    pct = 100.0 * totals[2] / totals[0] if totals[0] else 0.0
    lines.append(
        f"{'total':6s} {totals[0]:8d} {totals[1]:10d} {totals[2]:7d} "
        f"{totals[3]:8d} {pct:7.1f}% {'':9s} "
        f"{totals[4] - totals[5]:7d} {totals[5]:8d}"
    )
    return "\n".join(lines)


def formal_table_json(screens) -> list[dict]:
    """:func:`render_formal_table` rows as JSON-safe dicts (``--json``)."""
    return [
        {
            "component": screen.component,
            "classes": screen.n_classes,
            "structural": len(screen.structural),
            "proven": len(screen.proven),
            "witnessed": len(screen.witnessed),
            "unconfirmed": len(screen.unconfirmed),
            "conflicts": screen.conflicts,
        }
        for screen in screens
    ]


def collapse_table_json(entries) -> list[dict]:
    """:func:`render_collapse_table` rows as JSON-safe dicts."""
    rows = []
    for cmap, check in entries:
        refuted = len(check.refuted_equivalence) + len(
            check.refuted_dominance
        )
        rows.append(
            {
                "component": cmap.netlist.name,
                "classes": cmap.n_classes,
                "supers": cmap.n_supers,
                "ratio": round(cmap.ratio, 4),
                "merges": len(cmap.merges),
                "dominance_edges": len(cmap.edges),
                "sat_checked": check.n_equivalence + check.n_dominance,
                "sat_refuted": refuted,
            }
        )
    return rows


def reach_table_json(entries) -> list[dict]:
    """:func:`render_reach_table` rows as JSON-safe dicts."""
    rows = []
    for report, check in entries:
        rows.append(
            {
                "component": report.component,
                "program_digest": report.program_digest,
                "classes": report.n_classes,
                "exercised": report.n_exercised,
                "proven_unexercised": report.n_proven,
                "unknown": report.n_unknown,
                "patterns": report.n_patterns,
                "degraded": report.degraded,
                "degrade_reason": report.degrade_reason,
                "reach_hash": report.reach_hash,
                "sat_checked": check.n_checked,
                "sat_refuted": len(check.refuted),
            }
        )
    return rows


def render_testability_table() -> str:
    """Per-component testability: Section 2.2 scores made quantitative.

    Columns: the hand-derived instruction-sequence costs from
    ``core.priority.ACCESSIBILITY``, the measured SCOAP averages, and the
    structurally untestable share of the collapsed fault universe.
    """
    from repro.analysis.scoap import compute_scoap, untestable_fault_classes
    from repro.core.priority import quantitative_accessibility
    from repro.faultsim.faults import build_fault_list
    from repro.plasma.components import COMPONENTS

    lines = [
        f"{'name':6s} {'grade':6s} {'instr C/O':>9s} {'SCOAP CC':>9s} "
        f"{'SCOAP CO':>9s} {'untestable':>12s}",
        "-" * 56,
    ]
    for info in COMPONENTS:
        scores = quantitative_accessibility(info.name)
        netlist = info.builder()
        fault_list = build_fault_list(netlist)
        untestable = untestable_fault_classes(
            fault_list, compute_scoap(netlist)
        )
        cc = f"{scores.scoap_cc:9.1f}" if scores.scoap_cc is not None \
            else f"{'-':>9s}"
        co = f"{scores.scoap_co:9.1f}" if scores.scoap_co is not None \
            else f"{'-':>9s}"
        lines.append(
            f"{info.name:6s} {scores.grade:6s} "
            f"{scores.control_cost}/{scores.observe_cost:>7d} {cc} {co} "
            f"{len(untestable):5d}/{fault_list.n_collapsed:<6d}"
        )
    return "\n".join(lines)
