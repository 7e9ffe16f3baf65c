"""Persistent content-addressed store for traces and verdict records.

The in-process :class:`~repro.faultsim.trace_cache.GoodTraceCache` keeps
a handful of good traces resident for one interpreter; this module
promotes the same content-addressed idea to disk so *campaigns* become
incremental: an unchanged component — same structural netlist hash, same
stimulus hash, same observability, prune mode and collapse mode — is
never re-simulated across runs, processes or machines sharing a cache
directory.

Three record kinds live under the cache root:

* **good traces** (``traces/``) — the fault-free trajectory for one
  ``(netlist, stimulus)`` pair, keyed by the PR 3 structural/stimulus
  hashes plus the lane mode and the store epoch;
* **verdict records** (``verdicts/``) — the full per-class outcome of
  one component grade (per-class detections as fixed-width columns and
  the proven set), additionally keyed by the observability
  signature, the prune mode and the collapse and fault-universe epoch
  tags;
* **traced programs** (``programs/``) — one self-test program's traced
  CPU run: the CPU summary and, per component, the stimulus and observe
  plan (:func:`stimulus_doc`, :func:`plan_doc`), keyed by the loaded
  memory image and a digest of the package source
  (:func:`repro.core.campaign.trace_program`).

Robustness properties, each exercised by the failure-mode tests:

* **atomic writes** — records are written to a same-directory temp file
  and published with ``os.replace``, so concurrent pool workers never
  observe a half-written record (last writer wins; both wrote identical
  content, as the key is content-derived);
* **corruption detection** — every record carries a BLAKE2b checksum of
  its payload in a one-line header; a truncated, bit-flipped or
  unparseable record is *quarantined* (moved under ``quarantine/``) and
  reported as a miss, so the caller transparently rebuilds it;
* **LRU size cap** — after every save the store evicts
  least-recently-used records (access time is refreshed on every hit)
  until the total record size fits ``max_bytes``; oversized single
  records are simply not persisted (``max_record_bytes``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from array import array
from base64 import b64decode, b64encode
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from repro.faultsim.differential import Detection
from repro.faultsim.faults import FAULT_EPOCH, FaultList
from repro.faultsim.observe import ObservePlan
from repro.faultsim.simulator import GoodTrace, SimState
from repro.utils.bits import MASK32
from repro.utils.lanes import LaneSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faultsim.harness import CampaignResult
    from repro.netlist.netlist import Netlist

#: Store format epoch — part of every record key.  Bump on any change to
#: the record layout or to verdict semantics, so stale caches invalidate
#: themselves instead of replaying wrong records.
STORE_EPOCH = "store-v3"

#: Default LRU cap on the summed size of resident records.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Records larger than this are rebuilt rather than persisted — a single
#: enormous sequential trace must not evict an entire campaign's worth
#: of verdict records.
DEFAULT_MAX_RECORD_BYTES = 64 * 1024 * 1024

_T = TypeVar("_T")

_TRACES, _VERDICTS, _PROGRAMS = "traces", "verdicts", "programs"
_KINDS = (_TRACES, _VERDICTS, _PROGRAMS)


@dataclass
class StoreStats:
    """Counters for one :class:`TraceStore` instance (process-local)."""

    trace_hits: int = 0
    trace_misses: int = 0
    verdict_hits: int = 0
    verdict_misses: int = 0
    program_hits: int = 0
    program_misses: int = 0
    saves: int = 0
    evictions: int = 0
    corrupt: int = 0

    def summary(self) -> str:
        return (
            f"traces {self.trace_hits}/{self.trace_hits + self.trace_misses}"
            f" hit, verdicts {self.verdict_hits}/"
            f"{self.verdict_hits + self.verdict_misses} hit, programs "
            f"{self.program_hits}/{self.program_hits + self.program_misses}"
            f" hit, "
            f"{self.saves} saved, {self.evictions} evicted, "
            f"{self.corrupt} quarantined"
        )


def _digest(*parts: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class TraceStore:
    """Content-addressed on-disk record store under one cache directory.

    Instances are cheap value objects (a root path plus caps) — they are
    pickled into pool workers as-is, and every worker sharing the root
    shares the records.  All methods tolerate concurrent use from
    multiple processes.
    """

    root: str | Path
    max_bytes: int = DEFAULT_MAX_BYTES
    max_record_bytes: int = DEFAULT_MAX_RECORD_BYTES
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------- keys

    def trace_key(
        self,
        structural: str,
        stimulus: str,
        n_entries: int,
        mode: str,
    ) -> str:
        """Content address of one good trace."""
        return _digest(
            "trace", STORE_EPOCH, structural, stimulus,
            str(n_entries), mode,
        )

    def verdict_key(
        self,
        structural: str,
        stimulus: str,
        n_entries: int,
        *,
        observe_sig: str,
        prune_mode: str,
        collapse_epoch: str,
        fault_epoch: str,
    ) -> str:
        """Content address of one full-universe component verdict record.

        Every field that could change a verdict (or what the record
        means) participates: netlist structure, stimulus, observability
        signature, prune mode (``"proven"`` changes the denominator),
        the collapse epoch tag —
        :data:`repro.analysis.collapse.COLLAPSE_EPOCH` for a collapsed
        grade, ``""`` for a plain one — and the fault-universe epoch tag
        (:data:`repro.faultsim.faults.FAULT_EPOCH`).  Inferred dominator
        detections carry collapse-dependent cycle/lane witnesses, so
        records never cross the collapse boundary.  The tags stand in
        for the collapse hash and the universe: both are functions of
        the structure (already keyed) and of the code the tags version,
        so a lookup needs neither a map nor a fault list.
        """
        return _digest(
            "verdicts", STORE_EPOCH, structural, stimulus, str(n_entries),
            observe_sig, prune_mode, collapse_epoch, fault_epoch,
        )

    def program_key(self, program: str, source: str) -> str:
        """Content address of one traced program run.

        ``program`` digests what the CPU loads (memory image and entry
        point) and ``source`` the package source that traced it, so an
        edit to any module re-traces instead of replaying a stimulus the
        edited CPU model might no longer produce.
        """
        return _digest("program", STORE_EPOCH, program, source)

    # ------------------------------------------------------------ traces

    def load_trace(self, key: str) -> GoodTrace | None:
        """The stored good trace for ``key``, or ``None`` on a miss."""
        doc = self._load(_TRACES, key)
        if doc is None:
            self.stats.trace_misses += 1
            return None
        try:
            trace = _trace_from_doc(doc)
        except (KeyError, TypeError, ValueError):
            self._quarantine(self._path(_TRACES, key))
            self.stats.trace_misses += 1
            return None
        self.stats.trace_hits += 1
        return trace

    def has_trace(self, key: str) -> bool:
        """Whether a trace record exists for ``key`` (not read or
        verified: :meth:`load_trace` does that)."""
        return self._path(_TRACES, key).is_file()

    def save_trace(self, key: str, trace: GoodTrace) -> bool:
        """Persist one good trace; False when it exceeds the record cap."""
        return self._save(_TRACES, key, _trace_to_doc(trace))

    # ---------------------------------------------------------- verdicts

    def load_verdicts(self, key: str) -> dict | None:
        """The stored verdict payload for ``key``, or ``None`` on a miss."""
        doc = self._load(_VERDICTS, key)
        if doc is None:
            self.stats.verdict_misses += 1
            return None
        self.stats.verdict_hits += 1
        return doc

    def replay_verdicts(
        self,
        key: str,
        name: str,
        fault_list: FaultList | Callable[[], FaultList],
    ) -> "CampaignResult | None":
        """The stored result for ``key``, or ``None`` on a miss.

        ``fault_list`` is the universe, or a builder the replayed result
        calls on its first per-fault access (:func:`result_from_payload`).
        A record that does not decode — a column of the wrong length, a
        class count that disagrees with a given ``fault_list`` — is
        quarantined and counted as a miss: the caller re-grades.
        """
        doc = self._load(_VERDICTS, key)
        if doc is not None:
            try:
                result = result_from_payload(doc, name, fault_list)
            except (KeyError, TypeError, ValueError):
                self._quarantine(self._path(_VERDICTS, key))
            else:
                self.stats.verdict_hits += 1
                return result
        self.stats.verdict_misses += 1
        return None

    def save_verdicts(self, key: str, payload: Mapping[str, object]) -> bool:
        """Persist one component verdict payload."""
        return self._save(_VERDICTS, key, dict(payload))

    # ---------------------------------------------------------- programs

    def load_program(self, key: str, decode: Callable[[dict], _T]) -> _T | None:
        """``decode`` of the stored program record for ``key``, or
        ``None`` on a miss.

        A record ``decode`` rejects (``KeyError`` / ``TypeError`` /
        ``ValueError``) is quarantined and counted as a miss.
        """
        doc = self._load(_PROGRAMS, key)
        if doc is not None:
            try:
                program = decode(doc)
            except (KeyError, TypeError, ValueError):
                self._quarantine(self._path(_PROGRAMS, key))
            else:
                self.stats.program_hits += 1
                return program
        self.stats.program_misses += 1
        return None

    def save_program(self, key: str, doc: Mapping[str, object]) -> bool:
        """Persist one traced program record."""
        return self._save(_PROGRAMS, key, dict(doc))

    # ------------------------------------------------------ record plumbing

    def _path(self, kind: str, key: str) -> Path:
        root = self.root if isinstance(self.root, Path) else Path(self.root)
        return root / kind / key[:2] / f"{key}.rec"

    def _load(self, kind: str, key: str) -> dict | None:
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        sep = blob.find(b"\n")
        if sep < 0:
            self._quarantine(path)
            return None
        header_bytes, payload = blob[:sep], blob[sep + 1:]
        try:
            header = json.loads(header_bytes)
            checksum = header["checksum"]
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        if hashlib.blake2b(payload, digest_size=16).hexdigest() != checksum:
            self._quarantine(path)
            return None
        try:
            doc = json.loads(payload)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(doc, dict):
            self._quarantine(path)
            return None
        try:  # refresh access time so LRU eviction spares hot records
            os.utime(path)
        except OSError:  # pragma: no cover - racing eviction
            pass
        return doc

    def _save(self, kind: str, key: str, doc: dict) -> bool:
        payload = json.dumps(doc, separators=(",", ":")).encode()
        if len(payload) > self.max_record_bytes:
            return False
        header = json.dumps({
            "kind": kind,
            "epoch": STORE_EPOCH,
            "checksum": hashlib.blake2b(
                payload, digest_size=16
            ).hexdigest(),
        }).encode()
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(header + b"\n" + payload)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - disk full / permissions
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.stats.saves += 1
        self._enforce_cap(keep=path)
        return True

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt record aside (rebuilt on the next save)."""
        qdir = (
            self.root if isinstance(self.root, Path) else Path(self.root)
        ) / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / f"{path.name}.{os.getpid()}"
            suffix = 0
            while target.exists():
                suffix += 1
                target = qdir / f"{path.name}.{os.getpid()}.{suffix}"
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing quarantine/eviction
            pass
        self.stats.corrupt += 1

    def _enforce_cap(self, keep: Path | None = None) -> None:
        """Evict least-recently-used records until under ``max_bytes``."""
        entries: list[tuple[float, int, Path]] = []
        total = 0
        root = self.root if isinstance(self.root, Path) else Path(self.root)
        for kind in _KINDS:
            base = root / kind
            if not base.is_dir():
                continue
            for path in base.glob("*/*.rec"):
                try:
                    stat = path.stat()
                except OSError:  # pragma: no cover - racing removal
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing removal
                continue
            total -= size
            self.stats.evictions += 1

    # -------------------------------------------------------- inspection

    def record_count(self) -> tuple[int, int]:
        """``(trace records, verdict records)`` currently on disk."""
        return self._count(_TRACES), self._count(_VERDICTS)

    def program_count(self) -> int:
        """Traced program records currently on disk."""
        return self._count(_PROGRAMS)

    def _count(self, kind: str) -> int:
        root = self.root if isinstance(self.root, Path) else Path(self.root)
        base = root / kind
        return sum(1 for _ in base.glob("*/*.rec")) if base.is_dir() else 0


# ------------------------------------------------------- trace (de)coding
#
# Packed traces (combinational: one simulated cycle, one lane per test
# pattern) store each net's lane word as hex.  Sequence traces (one lane,
# one entry per cycle) transpose instead: each cycle's n_nets single-bit
# values pack into one big hex word, which keeps multi-thousand-cycle
# records within a few megabytes.  Loading turns each distinct word back
# into one shared ``bytes`` row, so a loaded trace aliases repeated
# cycles exactly like a freshly simulated one.

#: 0/1 net bytes <-> the ASCII binary digits of one cycle's word.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _trace_to_doc(trace: GoodTrace) -> dict:
    count = trace.lanes.count
    states = [[format(q, "x") for q in s.q] for s in trace.states]
    if count == 1:
        words: dict[int, str] = {}  # row identity -> hex word
        cycles = []
        for values in trace.values:
            word = words.get(id(values))
            if word is None:
                digits = bytes(values).translate(_TO_DIGITS)[::-1]
                word = words[id(values)] = format(int(digits or b"0", 2), "x")
            cycles.append(word)
        return {
            "mode": "sequence",
            "count": 1,
            "n_nets": len(trace.values[0]) if trace.values else 0,
            "cycles": cycles,
            "states": states,
        }
    return {
        "mode": "packed",
        "count": count,
        "n_nets": len(trace.values[0]) if trace.values else 0,
        "values": [
            [format(v, "x") for v in values] for values in trace.values
        ],
        "states": states,
    }


def _trace_from_doc(doc: dict) -> GoodTrace:
    count = int(doc["count"])
    lanes = LaneSet(count)
    by_words: dict[tuple[str, ...], SimState] = {}
    states = []
    for qs in doc["states"]:
        key = tuple(qs)
        state = by_words.get(key)
        if state is None:
            state = by_words[key] = SimState([int(h, 16) for h in qs])
        states.append(state)
    n_nets = int(doc["n_nets"])
    if doc["mode"] == "sequence":
        rows: dict[str, bytes] = {}
        values = []
        for h in doc["cycles"]:
            row = rows.get(h)
            if row is None:
                digits = format(int(h, 16), f"0{n_nets}b")[::-1]
                row = rows[h] = digits.encode()[:n_nets].translate(
                    _FROM_DIGITS
                )
            values.append(row)
        return GoodTrace(lanes, values, states)
    if doc["mode"] != "packed":
        raise ValueError(f"unknown trace mode {doc['mode']!r}")
    return GoodTrace(
        lanes,
        [[int(h, 16) for h in values] for values in doc["values"]],
        states,
    )


# ---------------------------------------------------- verdict (de)coding


# A record is a verdict table plus two per-class columns.  The table
# holds each distinct Detection once (collapsed members share their
# super-class's verdict, so phase A has about one per nine classes): one
# flag byte (bit 0 detected, bit 1 excited), the first detecting cycle
# (int32, -1 for none) and the lane word (unsigned, as wide as the
# record's widest word).  Per class: its representative and its table
# row (both uint32).  Every column is a little-endian fixed-width array,
# base64-encoded into the JSON payload under the checksummed header.

_U32 = next(code for code in "IL" if array(code).itemsize == 4)
_I32 = _U32.lower()
_DETECTED, _EXCITED = 1, 2


def _encode(column: array[int] | bytes) -> str:
    if isinstance(column, array) and sys.byteorder != "little":
        column = array(column.typecode, column)  # pragma: no cover
        column.byteswap()  # pragma: no cover
    return b64encode(column).decode("ascii")


def _bytes(payload: Mapping[str, object], name: str) -> bytes:
    return b64decode(str(payload[name]), validate=True)


def _column(payload: Mapping[str, object], name: str, typecode: str) -> array[int]:
    column = array(typecode, _bytes(payload, name))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        column.byteswap()
    return column


def _int(payload: Mapping[str, object], name: str) -> int:
    value = payload[name]
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an integer")
    return value


def _int_set(payload: Mapping[str, object], name: str) -> set[int]:
    values = payload[name]
    if not isinstance(values, list):
        raise TypeError(f"{name} must be a list")
    return {int(v) for v in values}


def verdicts_payload(result: "CampaignResult") -> dict:
    """Serialize one full-universe grade to a JSON-safe payload."""
    table: dict[Detection, int] = {}  # distinct verdict -> its row
    rows = array(_U32, [
        table.setdefault(det, len(table))
        for det in result.detections.values()
    ])
    width = (max((d.lanes for d in table), default=0).bit_length() + 7) // 8
    return {
        "name": result.name,
        "n_classes": result.n_faults,
        "n_patterns": result.n_patterns,
        "proven": sorted(result.proven),
        "n_simulated": result.n_simulated,
        "n_inferred": result.n_inferred,
        "collapse_hash": result.collapse_hash,
        "reps": _encode(array(_U32, result.detections)),
        "rows": _encode(rows),
        "flags": _encode(bytes(
            _DETECTED * d.detected | _EXCITED * d.excited for d in table
        )),
        "cycles": _encode(array(
            _I32, [-1 if d.cycle is None else d.cycle for d in table]
        )),
        "lane_bytes": width,
        "lanes": _encode(b"".join(
            d.lanes.to_bytes(width, "little") for d in table
        )),
    }


def result_from_payload(
    payload: Mapping[str, object],
    name: str,
    fault_list: FaultList | Callable[[], FaultList],
) -> "CampaignResult":
    """Rebuild a :class:`CampaignResult` from a stored verdict payload.

    Representative indices line up with the canonical universe
    (``build_fault_list``), which the structural hash and
    :data:`~repro.faultsim.faults.FAULT_EPOCH` in the key pin.  The
    result takes ``n_faults`` from the record; ``fault_list`` is either
    that universe (checked against the record's class count) or a
    builder the result runs on its first per-fault access.  Every
    detection is decoded here, eagerly; classes with equal verdicts
    share one (immutable) :class:`Detection`.  The result is marked
    ``cache_hit`` and reports zero simulated classes.

    Raises:
        KeyError / TypeError / ValueError: malformed payload (a missing
            field, a column of the wrong length, a row or flag out of
            range, a class count the given ``fault_list`` disagrees
            with) — callers treat it as a miss and re-grade.
    """
    from repro.faultsim.harness import CampaignResult

    n_classes = _int(payload, "n_classes")
    if isinstance(fault_list, FaultList) and (
        fault_list.n_collapsed != n_classes
    ):
        raise ValueError(
            f"record holds {n_classes} classes, the universe "
            f"{fault_list.n_collapsed}"
        )
    reps = _column(payload, "reps", _U32)
    rows = _column(payload, "rows", _U32)
    flags = _bytes(payload, "flags")
    cycles = _column(payload, "cycles", _I32)
    width = _int(payload, "lane_bytes")
    lane_bytes = _bytes(payload, "lanes")
    n, n_verdicts = len(reps), len(flags)
    if not (
        n <= n_classes and len(rows) == n
        and max(rows, default=-1) < n_verdicts
        and len(cycles) == n_verdicts and width >= 0
        and len(lane_bytes) == n_verdicts * width
        and max(flags, default=0) <= _DETECTED | _EXCITED
        and min(cycles, default=0) >= -1
    ):
        raise ValueError("verdict columns disagree in length or range")
    lanes: Iterable[int] = (
        [
            int.from_bytes(lane_bytes[i:i + width], "little")
            for i in range(0, n_verdicts * width, width)
        ]
        if width else repeat(0, n_verdicts)
    )
    table = [
        Detection(
            bool(flag & _DETECTED), None if cycle < 0 else cycle, lane,
            excited=bool(flag & _EXCITED),
        )
        for flag, cycle, lane in zip(flags, cycles, lanes, strict=True)
    ]
    detections = dict(zip(reps, map(table.__getitem__, rows), strict=True))
    if len(detections) != n:
        raise ValueError("a representative appears twice")
    result = CampaignResult(
        name,
        fault_list,
        detected={rep for rep, det in detections.items() if det.detected},
        detections=detections,
        n_patterns=_int(payload, "n_patterns"),
        proven=_int_set(payload, "proven"),
        n_classes=n_classes,
    )
    result.collapse_hash = str(payload.get("collapse_hash", ""))
    result.cache_hit = True
    return result


# ---------------------------------------------------- program (de)coding
#
# A traced stimulus holds thousands of entries per component but, held
# cycles repeating, only tens to hundreds of distinct input vectors.  A
# stimulus record keeps the port names, a table of distinct value rows
# (uint32, row-major) and one row index per entry; an observe plan keeps
# its distinct normalized entries and one index per entry.  Loading
# builds one dict per distinct row and one tuple per distinct entry, so
# equal entries share one object, as ``ObservePlan.from_spec`` shares
# them.


def stimulus_doc(stimulus: Sequence[Mapping[str, int]]) -> dict | None:
    """Encode one traced stimulus; ``None`` when this form cannot hold it
    exactly: an entry that is not a ``dict`` with the first entry's keys
    in its order, or a value that is not a ``uint32`` ``int``."""
    names = tuple(stimulus[0]) if stimulus else ()
    rows: dict[tuple[int, ...], int] = {}
    index = []
    for entry in stimulus:
        if type(entry) is not dict or tuple(entry) != names:
            return None
        index.append(rows.setdefault(tuple(entry.values()), len(rows)))
    values = [value for row in rows for value in row]
    if not all(type(v) is int and 0 <= v <= MASK32 for v in values):
        return None
    return {
        "ports": list(names),
        "n_rows": len(rows),
        "rows": _encode(array(_U32, values)),
        "index": _encode(array(_U32, index)),
    }


def stimulus_from_doc(doc: Mapping[str, object]) -> list[dict[str, int]]:
    """Decode :func:`stimulus_doc`; equal entries share one dict.

    Raises:
        KeyError / TypeError / ValueError: a malformed record.
    """
    names = doc["ports"]
    if not (
        isinstance(names, list) and all(type(n) is str for n in names)
        and len(set(names)) == len(names)
    ):
        raise TypeError("ports must be distinct names")
    n_rows, width = _int(doc, "n_rows"), len(names)
    values = _column(doc, "rows", _U32)
    index = _column(doc, "index", _U32)
    if len(values) != n_rows * width or max(index, default=-1) >= n_rows:
        raise ValueError("stimulus columns disagree in length or range")
    table = [
        dict(zip(names, values[i:i + width], strict=True))
        for i in range(0, n_rows * width, width)
    ] if width else [{} for _ in range(n_rows)]
    return list(map(table.__getitem__, index))


def plan_doc(plan: ObservePlan) -> dict:
    """Encode one observe plan: ``None`` entries for full observability,
    else each distinct entry once plus one index per entry."""
    if plan.entries is None:
        return {"n_entries": plan.n_entries, "entries": None}
    table: dict[tuple[tuple[str, int | None], ...], int] = {}
    index = array(_U32, [
        table.setdefault(entry, len(table)) for entry in plan.entries
    ])
    return {
        "n_entries": plan.n_entries,
        "entries": [[list(pair) for pair in entry] for entry in table],
        "index": _encode(index),
    }


def _observed(pair: object) -> tuple[str, int | None]:
    name, mask = pair  # type: ignore[misc]
    if type(name) is not str or not (
        mask is None or (type(mask) is int and mask >= 0)
    ):
        raise TypeError("an observe entry is (name, mask or null)")
    return name, mask


def plan_from_doc(doc: Mapping[str, object]) -> ObservePlan:
    """Decode :func:`plan_doc`; equal entries share one tuple.

    Raises:
        KeyError / TypeError / ValueError: a malformed record.
    """
    n_entries = _int(doc, "n_entries")
    raw = doc["entries"]
    if raw is None:
        return ObservePlan.everything(n_entries)
    if not isinstance(raw, list):
        raise TypeError("entries must be a list")
    table = [tuple(map(_observed, entry)) for entry in raw]
    index = _column(doc, "index", _U32)
    if len(index) != n_entries or max(index, default=-1) >= len(table):
        raise ValueError("observe columns disagree in length or range")
    return ObservePlan(n_entries, tuple(map(table.__getitem__, index)))


def verdict_key_for(
    store: TraceStore,
    netlist: "Netlist",
    stimulus: Sequence[Mapping[str, int]],
    plan: "ObservePlan",
    *,
    prune_mode: str,
    collapse_epoch: str,
) -> str:
    """The store key of one full-universe component grade.

    Computed by :class:`repro.faultsim.engine.PreparedGrade` before it
    builds the fault list, collapses, resolves an engine or simulates,
    so :func:`grade` and a campaign address the same record.
    ``collapse_epoch`` is :data:`repro.analysis.collapse.COLLAPSE_EPOCH`
    when the grade runs through a collapse map (computed or passed in)
    and ``""`` otherwise.
    """
    from repro.faultsim.trace_cache import global_trace_cache

    mode = "sequence" if netlist.dffs else "packed"
    structural, stim_hash, n_entries, _ = global_trace_cache().key_for(
        netlist, stimulus, mode
    )
    return store.verdict_key(
        structural, stim_hash, n_entries,
        observe_sig=plan.signature(),
        prune_mode=prune_mode,
        collapse_epoch=collapse_epoch,
        fault_epoch=FAULT_EPOCH,
    )
