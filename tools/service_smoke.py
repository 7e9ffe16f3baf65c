#!/usr/bin/env python3
"""CI acceptance check for the campaign service.

Boots ``python -m repro serve`` on an ephemeral port, drives it with
the stdlib client (``examples/service_client.py --json``) and asserts
the four properties the service is allowed to promise:

1. **transport, not computation** — the coverage JSON for a GL,PLN
   Phase A campaign is byte-identical to a direct in-process
   ``grade_program`` run;
2. **idempotency** — resubmitting the identical campaign attaches to
   the finished job (same result, no re-grading);
3. **one traced run per program** — a second Phase A campaign over a
   different component subset (CTRL,GL) reuses the server's traced
   program (``/v1/stats`` ``programs.reused >= 1``) and reports the
   shared component's Table 5 row (all but the subset-relative MOFC)
   exactly as the first campaign did;
4. **persistence** — after a full server restart on the same
   ``--cache-dir``, the resubmission is a warm-store replay:
   ``cache_hit`` with zero re-simulated fault classes.

Exit 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

PHASES = "A"
COMPONENTS = "GL,PLN"
#: A second subset sharing GL with ``COMPONENTS``.
OTHER_COMPONENTS = "CTRL,GL"
LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


def start_server(cache_dir: str) -> tuple[subprocess.Popen, int]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    match = LISTENING.search(line)
    if not match:
        proc.terminate()
        raise SystemExit(f"server never announced its port: {line!r}")
    return proc, int(match.group(1))


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_client(port: int, components: str = COMPONENTS) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "service_client.py"),
         "--port", str(port), "--phases", PHASES,
         "--components", components, "--json"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=900,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"client exited {result.returncode}:\n{result.stdout}"
            f"{result.stderr}"
        )
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    print(f"  campaign {payload['id']}: {payload['state']} "
          f"in {time.monotonic() - started:.1f}s "
          f"(simulated {payload['n_simulated']}, "
          f"cache_hit={payload['cache_hit']}, "
          f"attached={payload['attached']})")
    return payload


def server_stats(port: int) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/stats", timeout=30
    ) as resp:
        return json.loads(resp.read())


def table5_rows(payload: dict, names: set[str]) -> dict[str, dict]:
    """Table 5 rows of ``names`` without ``mofc``, which is relative to
    all faults of the graded subset and so differs between subsets."""
    return {
        row["name"]: {k: v for k, v in row.items() if k != "mofc"}
        for row in payload["coverage"]["table5"][PHASES]
        if row["name"] in names
    }


def direct_coverage() -> str:
    from repro.core.campaign import grade_program
    from repro.core.methodology import SelfTestMethodology
    from repro.reporting.tables import coverage_tables_json
    from repro.service.schemas import parse_campaign_request

    request = parse_campaign_request(
        {"phases": PHASES, "components": COMPONENTS}
    )
    outcome = grade_program(
        SelfTestMethodology().build_program(PHASES),
        components=list(request.components),
        options=request.to_options(),
    )
    return json.dumps(
        coverage_tables_json({PHASES: outcome}), sort_keys=True
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        print(f"smoke: serving with --cache-dir {cache_dir}")
        proc, port = start_server(cache_dir)
        try:
            print(f"smoke: cold run against port {port}")
            cold = run_client(port)
            assert cold["state"] == "done", cold.get("error")
            assert cold["n_simulated"] > 0, "cold run graded nothing"

            print("smoke: comparing against direct in-process grading")
            expected = direct_coverage()
            served = json.dumps(cold["coverage"], sort_keys=True)
            assert served == expected, (
                "service coverage diverged from direct grading:\n"
                f"  direct:  {expected[:200]}...\n"
                f"  service: {served[:200]}..."
            )

            print("smoke: idempotent resubmission (same server)")
            attached = run_client(port)
            assert attached["id"] == cold["id"], "resubmission re-graded"
            assert attached["attached"] >= 2
            assert json.dumps(attached["coverage"], sort_keys=True) == expected

            print(f"smoke: second subset {OTHER_COMPONENTS} (same program)")
            other = run_client(port, OTHER_COMPONENTS)
            assert other["state"] == "done", other.get("error")
            assert other["id"] != cold["id"], "a new subset attached"
            programs = server_stats(port)["programs"]
            print(f"  programs: {programs}")
            assert programs["reused"] >= 1, (
                f"the second campaign traced the program again: {programs}"
            )
            shared = set(COMPONENTS.split(",")) & set(
                OTHER_COMPONENTS.split(",")
            )
            assert table5_rows(other, shared) == table5_rows(cold, shared), (
                "a shared component's Table 5 row differs between subsets"
            )
        finally:
            stop_server(proc)

        print("smoke: restarting the server on the same cache dir")
        proc, port = start_server(cache_dir)
        try:
            warm = run_client(port)
            assert warm["state"] == "done", warm.get("error")
            assert warm["cache_hit"] is True, "restart lost the store"
            assert warm["n_simulated"] == 0, (
                f"warm run re-simulated {warm['n_simulated']} fault classes"
            )
            assert json.dumps(warm["coverage"], sort_keys=True) == expected, (
                "warm replay diverged from the cold run"
            )
        finally:
            stop_server(proc)

    print("smoke: OK — identical coverage, idempotent attach, "
          "reused trace, warm replay")
    return 0


if __name__ == "__main__":
    sys.exit(main())
