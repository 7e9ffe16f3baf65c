"""The campaign service, end to end over real HTTP.

One grading test drives the full stack (submit -> SSE -> result) and
pins the coverage JSON to a direct in-process ``grade_program`` run —
the service must be a transport, not a different computation.  Every
other test uses ``workers=0`` so jobs stay deterministically queued
while admission control, idempotent attach and queued-job cancellation
are exercised without grading anything.
"""

import asyncio
import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.campaign import grade_program, program_trace_memo
from repro.core.methodology import SelfTestMethodology
from repro.faultsim.observe import ObservePlan
from repro.faultsim.store import TraceStore
from repro.plasma.cpu import PlasmaCPU
from repro.reporting.tables import coverage_tables_json
from repro.service import ServiceConfig, ServiceServer
from repro.service.schemas import CampaignRequest


@contextlib.contextmanager
def running_server(**kwargs):
    """A live ``ServiceServer`` on an ephemeral port, loop in a thread."""
    config = ServiceConfig(port=0, **kwargs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = ServiceServer(config)
    port = asyncio.run_coroutine_threadsafe(server.start(), loop).result(30)
    try:
        yield port
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def request(port, method, path, body=None):
    """One HTTP round trip; returns (status, headers, parsed JSON)."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def wait_terminal(port, job_id, timeout=300):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, payload = request(port, "GET", f"/v1/campaigns/{job_id}")
        if payload["state"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.2)
    raise AssertionError(f"campaign {job_id} never reached a terminal state")


def read_sse(port, job_id):
    """The full stream of a *terminal* job: (events by name, raw text)."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/campaigns/{job_id}/events", timeout=60
    ) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        text = resp.read().decode()
    events = []
    name = ""
    for line in text.split("\n"):
        if line.startswith("event: "):
            name = line[len("event: "):]
        elif line.startswith("data: "):
            events.append((name, json.loads(line[len("data: "):])))
    return events, text


class TestGradingEndToEnd:
    def test_campaign_matches_direct_grading(self):
        with running_server(workers=1) as port:
            status, _, payload = request(
                port, "POST", "/v1/campaigns",
                {"phases": "A", "components": ["GL"]},
            )
            assert status == 202
            assert payload["state"] == "queued"
            assert payload["attached_to_existing"] is False
            job_id = payload["id"]

            final = wait_terminal(port, job_id)
            assert final["state"] == "done", final.get("error")
            assert final["n_simulated"] > 0
            assert final["cache_hit"] is False

            # The transport must not change the verdicts: identical
            # coverage JSON to an in-process run of the same campaign.
            outcome = grade_program(
                SelfTestMethodology().build_program("A"),
                components=["GL"],
                options=CampaignRequest().to_options(),
            )
            expected = coverage_tables_json({"A": outcome})
            assert (
                json.dumps(final["coverage"], sort_keys=True)
                == json.dumps(expected, sort_keys=True)
            )

            # The SSE stream replays the whole job history and ends
            # with the terminal frame.
            events, text = read_sse(port, job_id)
            kinds = [name for name, _ in events]
            for kind in ("queued", "running", "finished"):
                assert kind in kinds
            assert kinds[-1] == "end"
            assert events[-1][1] == {"id": job_id, "state": "done"}
            assert "id: 1\n" in text  # replay ids start at 1

            # Resubmitting the identical campaign replays the finished
            # job: same id, HTTP 200, result included.
            status, _, replay = request(
                port, "POST", "/v1/campaigns",
                {"phases": "A", "components": ["GL"]},
            )
            assert status == 200
            assert replay["attached_to_existing"] is True
            assert replay["id"] == job_id
            assert replay["state"] == "done"
            assert replay["coverage"] == final["coverage"]

            # Stats saw exactly one submission and one attach.
            _, _, stats = request(port, "GET", "/v1/stats")
            assert stats["jobs"]["submitted"] == 1
            assert stats["jobs"]["attached"] == 1
            assert stats["jobs"]["done"] == 1


@pytest.fixture
def cpu_runs(monkeypatch):
    """An empty traced-program memo; ``PlasmaCPU.run`` calls, slowed so
    that jobs started together overlap their trace."""
    program_trace_memo().clear()
    runs = []
    real_run = PlasmaCPU.run

    def slow_run(self, *args, **kwargs):
        runs.append(self)
        time.sleep(0.3)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(PlasmaCPU, "run", slow_run)
    yield runs
    program_trace_memo().clear()


class TestProgramTraces:
    """Jobs of one program share its traced run (``trace_program``)."""

    def test_second_subset_reuses_the_trace(self, cpu_runs):
        with running_server(workers=1) as port:
            for components in (["CTRL"], ["BMUX"]):
                _, _, payload = request(
                    port, "POST", "/v1/campaigns",
                    {"phases": "A", "components": components},
                )
                final = wait_terminal(port, payload["id"])
                assert final["state"] == "done", final.get("error")
            _, _, stats = request(port, "GET", "/v1/stats")
        assert stats["programs"] == {"traced": 1, "loaded": 0, "reused": 1}
        assert len(cpu_runs) == 1

    def test_second_subset_builds_no_observe_plan(
        self, cpu_runs, monkeypatch
    ):
        # The first job's trace normalizes every component's observe
        # spec; a job over another subset reuses those plans.
        built = []
        real_from_spec = ObservePlan.from_spec

        def counting_from_spec(cls, observe, n_entries, netlist=None):
            if observe is not None and not isinstance(observe, ObservePlan):
                built.append(observe)
            return real_from_spec(observe, n_entries, netlist)

        monkeypatch.setattr(
            ObservePlan, "from_spec", classmethod(counting_from_spec)
        )
        counts = []
        with running_server(workers=1) as port:
            for components in (["CTRL", "GL"], ["BMUX", "PLN"]):
                _, _, payload = request(
                    port, "POST", "/v1/campaigns",
                    {"phases": "A", "components": components},
                )
                final = wait_terminal(port, payload["id"])
                assert final["state"] == "done", final.get("error")
                counts.append(len(built))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_concurrent_first_submissions_trace_once(self, cpu_runs):
        with running_server(workers=2) as port:
            ids = [
                request(
                    port, "POST", "/v1/campaigns",
                    {"phases": "A", "components": components},
                )[2]["id"]
                for components in (["CTRL"], ["BMUX"])
            ]
            for job_id in ids:
                final = wait_terminal(port, job_id)
                assert final["state"] == "done", final.get("error")
            _, _, stats = request(port, "GET", "/v1/stats")
        assert stats["programs"] == {"traced": 1, "loaded": 0, "reused": 1}
        assert len(cpu_runs) == 1

    def test_concurrent_first_submissions_save_one_record(
        self, cpu_runs, tmp_path, monkeypatch
    ):
        saves = []
        real_save = TraceStore.save_program

        def counting_save(self, key, doc):
            saves.append(key)
            return real_save(self, key, doc)

        monkeypatch.setattr(TraceStore, "save_program", counting_save)
        with running_server(workers=2, cache_dir=tmp_path) as port:
            ids = [
                request(
                    port, "POST", "/v1/campaigns",
                    {"phases": "A", "components": components},
                )[2]["id"]
                for components in (["CTRL"], ["BMUX"])
            ]
            for job_id in ids:
                final = wait_terminal(port, job_id)
                assert final["state"] == "done", final.get("error")
            _, _, stats = request(port, "GET", "/v1/stats")
        assert stats["programs"] == {"traced": 1, "loaded": 0, "reused": 1}
        assert len(cpu_runs) == 1
        assert len(saves) == 1
        assert TraceStore(tmp_path).program_count() == 1
        assert stats["store"]["program_misses"] == 1

    def test_a_restarted_service_loads_the_program(self, cpu_runs, tmp_path):
        for _ in range(2):
            program_trace_memo().clear()
            with running_server(workers=1, cache_dir=tmp_path) as port:
                _, _, payload = request(
                    port, "POST", "/v1/campaigns",
                    {"phases": "A", "components": ["CTRL"]},
                )
                final = wait_terminal(port, payload["id"])
                assert final["state"] == "done", final.get("error")
                _, _, stats = request(port, "GET", "/v1/stats")
        assert len(cpu_runs) == 1
        assert stats["programs"] == {"traced": 0, "loaded": 1, "reused": 0}
        assert stats["store"]["program_hits"] == 1
        assert final["cache_hit"] is True


class TestAdmissionControl:
    def test_queue_full_gets_429_with_retry_after(self):
        with running_server(workers=0, queue_limit=1, retry_after=7) as port:
            status, _, _ = request(
                port, "POST", "/v1/campaigns", {"components": ["GL"]}
            )
            assert status == 202
            status, headers, payload = request(
                port, "POST", "/v1/campaigns", {"components": ["PLN"]}
            )
            assert status == 429
            assert headers["Retry-After"] == "7"
            assert "queue" in payload["error"]
            _, _, stats = request(port, "GET", "/v1/stats")
            assert stats["jobs"]["rejected"] == 1
            assert stats["queue_depth"] == 1

    def test_tenant_quota(self):
        with running_server(
            workers=0, queue_limit=10, tenant_quota=1
        ) as port:
            body = {"components": ["GL"], "tenant": "alice"}
            assert request(port, "POST", "/v1/campaigns", body)[0] == 202
            status, _, payload = request(
                port, "POST", "/v1/campaigns",
                {"components": ["PLN"], "tenant": "alice"},
            )
            assert status == 429
            assert "'alice'" in payload["error"]
            # Another tenant still gets in.
            status, _, _ = request(
                port, "POST", "/v1/campaigns",
                {"components": ["PLN"], "tenant": "bob"},
            )
            assert status == 202

    def test_attach_bypasses_quota(self):
        # An idempotent attach creates no new work, so it is admitted
        # even when the tenant is at quota.
        with running_server(workers=0, tenant_quota=1) as port:
            body = {"components": ["GL"], "tenant": "alice"}
            first = request(port, "POST", "/v1/campaigns", body)
            second = request(port, "POST", "/v1/campaigns", body)
            assert first[0] == 202 and second[0] == 200
            assert second[2]["id"] == first[2]["id"]
            assert second[2]["attached"] == 2


class TestCancellation:
    def test_cancel_queued_job_releases_its_key(self):
        with running_server(workers=0) as port:
            _, _, payload = request(
                port, "POST", "/v1/campaigns", {"components": ["GL"]}
            )
            job_id = payload["id"]
            status, _, cancelled = request(
                port, "DELETE", f"/v1/campaigns/{job_id}"
            )
            assert status == 200
            assert cancelled["state"] == "cancelled"
            assert cancelled["error"] == "cancelled while queued"

            events, _ = read_sse(port, job_id)
            kinds = [name for name, _ in events]
            assert kinds.count("cancelled") >= 1
            assert events[-1][1]["state"] == "cancelled"

            # The key was released: the same campaign resubmits as a
            # brand-new job rather than attaching to the cancelled one.
            status, _, fresh = request(
                port, "POST", "/v1/campaigns", {"components": ["GL"]}
            )
            assert status == 202
            assert fresh["id"] != job_id

    def test_cancel_is_idempotent(self):
        with running_server(workers=0) as port:
            _, _, payload = request(
                port, "POST", "/v1/campaigns", {"components": ["GL"]}
            )
            job_id = payload["id"]
            request(port, "DELETE", f"/v1/campaigns/{job_id}")
            status, _, again = request(
                port, "DELETE", f"/v1/campaigns/{job_id}"
            )
            assert status == 200
            assert again["state"] == "cancelled"


class TestFailurePaths:
    def test_invalid_json_body(self):
        with running_server(workers=0) as port:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/campaigns",
                data=b"{not json", method="POST",
            )
            try:
                urllib.request.urlopen(req, timeout=30)
                raise AssertionError("expected HTTP 400")
            except urllib.error.HTTPError as exc:
                assert exc.code == 400
                payload = json.loads(exc.read())
            assert payload["error"] == "invalid campaign request"
            assert payload["issues"][0]["field"] == "$body"

    def test_structured_validation_diagnostics(self):
        with running_server(workers=0) as port:
            status, _, payload = request(
                port, "POST", "/v1/campaigns",
                {"phases": "Z", "componets": ["GL"], "jobs": 0},
            )
            assert status == 400
            fields = {issue["field"] for issue in payload["issues"]}
            assert fields == {"phases", "componets", "jobs"}

    def test_removed_engine_is_400(self):
        with running_server(workers=0) as port:
            status, _, payload = request(
                port, "POST", "/v1/campaigns", {"engine": "compiled"},
            )
            assert status == 400
            (issue,) = payload["issues"]
            assert "unknown engine 'compiled'" in issue["message"]
            assert "auto, differential, packed" in issue["message"]

    def test_removed_reach_field_is_400(self):
        with running_server(workers=0) as port:
            status, _, payload = request(
                port, "POST", "/v1/campaigns", {"reach": True},
            )
            assert status == 400
            (issue,) = payload["issues"]
            assert issue == {"field": "reach", "message": "unknown field"}

    def test_removed_prune_modes_are_400(self):
        with running_server(workers=0) as port:
            for mode in (True, "structural"):
                status, _, payload = request(
                    port, "POST", "/v1/campaigns", {"prune_untestable": mode},
                )
                assert status == 400
                (issue,) = payload["issues"]
                assert issue["field"] == "prune_untestable"

    def test_unknown_campaign_is_404(self):
        with running_server(workers=0) as port:
            for path in ("/v1/campaigns/nope", "/v1/campaigns/nope/events"):
                status, _, payload = request(port, "GET", path)
                assert status == 404
                assert "no campaign" in payload["error"]

    def test_unknown_path_is_404(self):
        with running_server(workers=0) as port:
            assert request(port, "GET", "/v2/healthz")[0] == 404
            assert request(port, "GET", "/v1/nope")[0] == 404

    def test_wrong_method_is_405(self):
        with running_server(workers=0) as port:
            assert request(port, "GET", "/v1/campaigns")[0] == 405
            _, _, payload = request(
                port, "POST", "/v1/campaigns", {"components": ["GL"]}
            )
            assert request(
                port, "PUT", f"/v1/campaigns/{payload['id']}", {}
            )[0] == 405

    def test_healthz(self):
        with running_server(workers=0) as port:
            status, _, payload = request(port, "GET", "/v1/healthz")
            assert status == 200
            assert payload == {"status": "ok"}

    def test_stats_shape(self, tmp_path):
        with running_server(workers=0, cache_dir=tmp_path) as port:
            _, _, stats = request(port, "GET", "/v1/stats")
            assert stats["queue_depth"] == 0
            assert stats["queue_limit"] == 16
            assert stats["workers"] == 0
            assert stats["store"]["root"] == str(tmp_path)
            assert stats["store"]["hit_rate"] == 0.0
            assert set(stats["programs"]) == {"traced", "loaded", "reused"}
