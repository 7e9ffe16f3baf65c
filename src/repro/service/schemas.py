"""Request validation for the campaign service.

One JSON body in, one validated :class:`CampaignRequest` out — or a
:class:`SchemaError` carrying *every* problem found, as structured
``{"field", "message"}`` diagnostics the HTTP layer returns verbatim in
a 400 response.  Validation is exhaustive rather than fail-fast so a
client fixes a bad submission in one round trip.

The request is deliberately a small, flat surface: everything
verdict-relevant lowers onto :class:`~repro.faultsim.options.GradeOptions`
(which re-validates engine names, lane counts and prune modes — the
service never duplicates those rules), and everything else (tenant,
priority) stays service-local.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import FaultSimError, ReproError
from repro.faultsim.options import DEFAULT_LANES, GradeOptions

if TYPE_CHECKING:
    from repro.faultsim.store import TraceStore

#: Phase configurations the methodology accepts (Section 3 of the
#: paper: phases are cumulative).
VALID_PHASES = ("A", "AB", "ABC")

#: Fields a submission may carry.  Anything else is rejected — silently
#: ignoring unknown fields would let a typo (``"componets"``) grade the
#: wrong campaign.
KNOWN_FIELDS = (
    "phases",
    "components",
    "engine",
    "lanes",
    "collapse",
    "prune_untestable",
    "jobs",
    "tenant",
    "priority",
    "cache",
)

#: Bounds on service-local knobs.
MAX_PRIORITY = 100
MAX_JOBS = 64
MAX_TENANT_LENGTH = 64


class SchemaError(ReproError):
    """A submission failed validation; carries every diagnostic."""

    def __init__(self, issues: list["ValidationIssue"]):
        self.issues = issues
        super().__init__(
            "; ".join(f"{i.field}: {i.message}" for i in issues)
            or "invalid request"
        )


@dataclass(frozen=True)
class ValidationIssue:
    """One structured request diagnostic (serialized into 400 bodies)."""

    field: str
    message: str

    def to_json(self) -> dict[str, str]:
        return {"field": self.field, "message": self.message}


@dataclass(frozen=True)
class CampaignRequest:
    """A validated campaign submission.

    Attributes:
        phases: cumulative phase configuration (``"A"`` / ``"AB"`` /
            ``"ABC"``).
        components: component short names to grade (``None`` = all ten).
        engine: fault-sim engine name or ``"auto"``.
        lanes: packed-engine lane groups per word.
        collapse: grade through the structural collapse map.
        prune_untestable: ``False`` or ``"proven"``.
        jobs: per-campaign shard workers (1 = in-process grading).
        tenant: quota accounting identity.
        priority: queue priority; *lower runs earlier*, default 0.
        cache: consult the service's persistent store (when configured).
    """

    phases: str = "A"
    components: tuple[str, ...] | None = None
    engine: str = "auto"
    lanes: int = DEFAULT_LANES
    collapse: bool = True
    prune_untestable: bool | str = False
    jobs: int = 1
    tenant: str = "default"
    priority: int = 0
    cache: bool = True

    def to_options(self, cache: TraceStore | None = None) -> GradeOptions:
        """Lower to the grading configuration (``cache`` = the service's
        :class:`~repro.faultsim.store.TraceStore`, honoured only when
        the request asked for caching)."""
        return GradeOptions(
            engine=self.engine,
            prune_untestable=self.prune_untestable,
            collapse=self.collapse,
            cache=cache if self.cache else None,
            lanes=self.lanes,
        )

    def to_json(self) -> dict[str, object]:
        """The request as echoed back in status payloads."""
        return {
            "phases": self.phases,
            "components": (
                None if self.components is None else list(self.components)
            ),
            "engine": self.engine,
            "lanes": self.lanes,
            "collapse": self.collapse,
            "prune_untestable": self.prune_untestable,
            "jobs": self.jobs,
            "tenant": self.tenant,
            "priority": self.priority,
            "cache": self.cache,
        }


@dataclass
class _Checker:
    """Accumulates diagnostics while pulling typed fields from a dict."""

    body: dict[str, Any]
    issues: list[ValidationIssue] = field(default_factory=list)

    def problem(self, fieldname: str, message: str) -> None:
        self.issues.append(ValidationIssue(fieldname, message))

    def get(
        self, name: str, kind: type[object], default: Any, *,
        kinds_label: str,
    ) -> Any:
        value = self.body.get(name, default)
        if value is None and default is None:
            return None
        # bool is an int subclass; an explicit check keeps `true` out of
        # integer fields and 0/1 out of boolean ones.
        if kind is int and isinstance(value, bool):
            self.problem(name, f"expected {kinds_label}, got a boolean")
            return default
        if kind is bool and not isinstance(value, bool):
            self.problem(name, f"expected {kinds_label}, got {value!r}")
            return default
        if not isinstance(value, kind):
            self.problem(name, f"expected {kinds_label}, got {value!r}")
            return default
        return value


def parse_campaign_request(
    raw: bytes | str | dict[str, Any]
) -> CampaignRequest:
    """Validate one submission body into a :class:`CampaignRequest`.

    Accepts raw JSON bytes/text (the HTTP layer passes the body through
    unparsed) or an already-decoded dict (tests, the Python client).

    Raises:
        SchemaError: carrying one :class:`ValidationIssue` per problem —
            undecodable JSON, a non-object body, unknown fields, type
            mismatches, out-of-range values, unknown components/engines.
    """
    if isinstance(raw, (bytes, str)):
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise SchemaError(
                [ValidationIssue("$body", f"invalid JSON: {exc}")]
            ) from None
    else:
        body = raw
    if not isinstance(body, dict):
        raise SchemaError(
            [ValidationIssue(
                "$body", f"expected a JSON object, got {type(body).__name__}"
            )]
        )

    check = _Checker(body)
    for name in body:
        if name not in KNOWN_FIELDS:
            check.problem(name, "unknown field")

    phases = check.get("phases", str, "A", kinds_label="a string")
    if isinstance(phases, str) and phases not in VALID_PHASES:
        check.problem(
            "phases",
            f"unknown phase configuration {phases!r} "
            f"(choose from {', '.join(VALID_PHASES)})",
        )

    components = _check_components(check)
    engine = check.get("engine", str, "auto", kinds_label="a string")
    lanes = check.get("lanes", int, DEFAULT_LANES, kinds_label="an integer")
    collapse = check.get("collapse", bool, True, kinds_label="a boolean")
    prune = body.get("prune_untestable", False)
    if prune is not False and prune != "proven":
        check.problem(
            "prune_untestable", f"expected false or 'proven', got {prune!r}"
        )
        prune = False

    jobs = check.get("jobs", int, 1, kinds_label="an integer")
    if isinstance(jobs, int) and not 1 <= jobs <= MAX_JOBS:
        check.problem("jobs", f"must be within [1, {MAX_JOBS}], got {jobs}")
    priority = check.get("priority", int, 0, kinds_label="an integer")
    if isinstance(priority, int) and abs(priority) > MAX_PRIORITY:
        check.problem(
            "priority",
            f"must be within [-{MAX_PRIORITY}, {MAX_PRIORITY}], "
            f"got {priority}",
        )
    tenant = check.get("tenant", str, "default", kinds_label="a string")
    if isinstance(tenant, str) and not (
        0 < len(tenant) <= MAX_TENANT_LENGTH
    ):
        check.problem(
            "tenant",
            f"must be 1-{MAX_TENANT_LENGTH} characters, got {len(tenant)}",
        )
    cache = check.get("cache", bool, True, kinds_label="a boolean")

    request = None
    if not check.issues:
        request = CampaignRequest(
            phases=phases,
            components=components,
            engine=engine,
            lanes=lanes,
            collapse=collapse,
            prune_untestable=prune,
            jobs=jobs,
            tenant=tenant,
            priority=priority,
            cache=cache,
        )
        # GradeOptions owns engine/lane/prune validation — construct one
        # now so a bad knob fails the submission, not the worker thread.
        try:
            request.to_options()
        except FaultSimError as exc:
            check.problem("$options", str(exc))
            request = None
    if check.issues or request is None:
        raise SchemaError(check.issues)
    return request


def _check_components(check: _Checker) -> tuple[str, ...] | None:
    """Validate the component subset against the shipped inventory."""
    from repro.plasma.components import COMPONENTS

    value = check.body.get("components")
    if value is None:
        return None
    if isinstance(value, str):
        # "GL,PLN" convenience form, mirroring the CLI's --components.
        value = [part for part in value.split(",") if part]
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        check.problem(
            "components", f"expected a list of strings, got {value!r}"
        )
        return None
    known = {info.name for info in COMPONENTS}
    unknown = [name for name in value if name not in known]
    if unknown:
        check.problem(
            "components",
            f"unknown components {unknown!r} "
            f"(choose from {', '.join(sorted(known))})",
        )
        return None
    if not value:
        check.problem("components", "must name at least one component")
        return None
    return tuple(dict.fromkeys(value))  # dedupe, keep order
