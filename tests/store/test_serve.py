"""``repro serve`` HTTP API: submit, poll, results, table, errors."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.store import jobs as jobs_module
from repro.store.records import KIND_CAMPAIGN, KIND_JOB, derive_key
from repro.store.server import MAX_BODY_BYTES, create_server
from repro.system.campaign import campaign_report, summarize_campaign

#: Two cells, ~10 frames each: the whole job finishes in well under a second.
SMALL_SPEC = {
    "fade_symbols": [60.0],
    "fade_fraction": [0.004],
    "triangle_n": [15],
    "seeds": 2,
    "frames": 10,
}

#: Generous wall-clock cap for polling loops (the job itself is fast).
DEADLINE_S = 60.0


@pytest.fixture
def server(tmp_path):
    server = create_server(str(tmp_path / "store"), port=0, jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def request(server, path, body=None, method=None):
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def request_json(server, path, body=None, method=None):
    status, raw = request(server, path, body=body, method=method)
    return status, json.loads(raw)


def raw_post(server, headers):
    """POST /jobs with hand-set headers and no body; (status, JSON)."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/jobs", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def poll_until_done(server, job_id):
    deadline = time.monotonic() + DEADLINE_S
    while time.monotonic() < deadline:
        status, body = request_json(server, f"/jobs/{job_id}")
        assert status == 200
        if body["done"]:
            return body
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {DEADLINE_S}s")


class TestRoutes:
    def test_healthz(self, server):
        assert request_json(server, "/healthz") == (200, {"status": "ok"})

    def test_unknown_route_404(self, server):
        status, body = request_json(server, "/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_unknown_job_404(self, server):
        status, body = request_json(server, "/jobs/" + "0" * 32)
        assert status == 404
        assert "unknown job" in body["error"]

    def test_jobs_listing_starts_empty(self, server):
        assert request_json(server, "/jobs") == (200, {"jobs": []})

    def test_post_bad_json_400(self, server):
        host, port = server.server_address[:2]
        req = urllib.request.Request(f"http://{host}:{port}/jobs",
                                     data=b"{ not json", method="POST")
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, raw = error.code, error.read()
        assert status == 400
        assert "not JSON" in json.loads(raw)["error"]

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", "0x10"])
    def test_post_bad_content_length_400(self, server, length):
        status, body = raw_post(server, {"Content-Length": length})
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_post_oversized_body_413_before_reading(self, server):
        # No body is sent: the reply must come from the header alone.
        status, body = raw_post(
            server, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_server_still_serves_after_bad_length(self, server):
        assert raw_post(server, {"Content-Length": "-1"})[0] == 400
        assert request_json(server, "/healthz") == (200, {"status": "ok"})

    def test_post_non_object_400(self, server):
        status, body = request_json(server, "/jobs", body=[1, 2],
                                    method="POST")
        assert status == 400
        assert "JSON object" in body["error"]

    def test_post_unknown_key_400(self, server):
        status, body = request_json(server, "/jobs", body={"framez": 1},
                                    method="POST")
        assert status == 400
        assert "unknown grid spec keys" in body["error"]

    def test_table_before_completion_409(self, server):
        # register without starting: the table cannot exist yet
        record = server.engine.submit(SMALL_SPEC)
        status, body = request_json(server, f"/jobs/{record.job_id}/table")
        assert status == 409
        assert body["error"] == "job not complete"


class TestJobLifecycle:
    def test_submit_poll_results_table(self, server):
        status, submitted = request_json(server, "/jobs", body=SMALL_SPEC,
                                         method="POST")
        assert status == 202
        assert submitted["total"] == 2
        job_id = submitted["job"]

        final = poll_until_done(server, job_id)
        assert final["completed"] == 2

        status, results = request_json(server, f"/jobs/{job_id}/results")
        assert status == 200
        assert results["completed"] == results["total"] == 2
        assert len(results["cells"]) == 2
        assert all(cell["cell"]["frames"] == 10 for cell in results["cells"])

        status, raw = request(server, f"/jobs/{job_id}/table")
        assert status == 200
        # byte-identical to the CLI report over the same store
        engine_results = [r for r in
                          server.engine.results(server.engine.get(job_id))
                          if r is not None]
        expected = campaign_report(engine_results,
                                   summarize_campaign(engine_results))
        assert raw.decode() == expected + "\n"

        status, listing = request_json(server, "/jobs")
        assert status == 200
        assert [job["job"] for job in listing["jobs"]] == [job_id]

    def test_resubmission_is_idempotent(self, server):
        _, first = request_json(server, "/jobs", body=SMALL_SPEC,
                                method="POST")
        poll_until_done(server, first["job"])
        status, second = request_json(server, "/jobs", body=SMALL_SPEC,
                                      method="POST")
        assert status == 202
        assert second["job"] == first["job"]
        assert second["completed"] == 2
        assert second["done"] is True

    def test_crashed_job_reports_failure(self, server, monkeypatch):
        def crash(*args, **kwargs):
            raise ValueError("simulated crash")

        monkeypatch.setattr(jobs_module, "run_campaign", crash)
        status, submitted = request_json(server, "/jobs", body=SMALL_SPEC,
                                         method="POST")
        assert status == 202
        job_id = submitted["job"]
        deadline = time.monotonic() + DEADLINE_S
        while True:
            status, body = request_json(server, f"/jobs/{job_id}")
            assert status == 200
            if "failed" in body or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert body["failed"] == "ValueError: simulated crash"
        assert body["running"] is False
        assert body["done"] is False
        # Only the job record is stored; the failure lives in memory.
        store = server.engine.store
        assert [derive_key(KIND_JOB, config)
                for config, _ in store.list_entries(KIND_JOB)] == [job_id]
        assert list(store.list_entries(KIND_CAMPAIGN)) == []

        # A restart clears the failure (and here completes the job).
        monkeypatch.undo()
        assert server.engine.start(server.engine.get(job_id)) is True
        final = poll_until_done(server, job_id)
        assert "failed" not in final

    def test_empty_body_submits_the_default_grid(self, server, monkeypatch):
        # registering the 162-cell grid is instant; running it is not —
        # suppress execution and check the registration alone
        monkeypatch.setattr(server.engine, "start", lambda record: False)
        host, port = server.server_address[:2]
        req = urllib.request.Request(f"http://{host}:{port}/jobs",
                                     data=b"", method="POST")
        with urllib.request.urlopen(req, timeout=30) as response:
            body = json.loads(response.read())
            status = response.status
        assert status == 202
        assert body["total"] == 162  # the full default campaign grid
        assert body["spec"]["frames"] == 400
