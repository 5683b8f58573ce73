"""The NDJSON front end: TCP round-trips, stdio transport, protocol."""

import asyncio
import json
import pathlib
import subprocess
import sys
import threading

import pytest

from repro.service import Service, ServiceClient, ServiceError, serve
from repro.spec import RunSpec

REPO = pathlib.Path(__file__).resolve().parents[2]
SPEC = RunSpec(kind="hybrid", n=12000)


async def _with_server(body, **service_kw):
    """Run ``body(client, service)`` against an in-process TCP server."""
    service_kw.setdefault("use_processes", False)
    service_kw.setdefault("workers", 2)
    svc = Service(**service_kw)
    ready = asyncio.Event()
    server_task = asyncio.ensure_future(serve(svc, port=0, ready=ready))
    await ready.wait()
    try:
        async with ServiceClient("127.0.0.1", svc.bound_port) as client:
            return await body(client, svc)
    finally:
        server_task.cancel()
        await asyncio.gather(server_task, return_exceptions=True)
        await svc.close()


class TestTCP:
    def test_submit_round_trip_and_cached_second_serve(self):
        async def body(client, _svc):
            events = []
            first = await client.submit(
                SPEC, on_event=lambda e: events.append(e["event"])
            )
            second = await client.submit(SPEC)
            return first, second, events

        first, second, events = asyncio.run(_with_server(body))
        assert first["status"] == "ok" and first["cached"] is False
        assert first["result"]["gflops"] > 0
        assert second["cached"] is True
        assert events == ["queued", "running", "done"]

    def test_concurrent_submissions_multiplex_one_connection(self):
        async def body(client, svc):
            specs = [RunSpec(kind="hybrid", n=6000 + 1200 * i)
                     for i in range(4)]
            results = await client.submit_many(specs)
            return results, svc.requests

        results, requests = asyncio.run(_with_server(body))
        assert [r["status"] for r in results] == ["ok"] * 4
        assert len({r["spec_hash"] for r in results}) == 4
        assert requests == 4

    def test_ping_and_stats(self):
        async def body(client, _svc):
            assert await client.ping()
            await client.submit(SPEC)
            return await client.stats()

        stats = asyncio.run(_with_server(body))
        assert stats["requests"] == 1
        assert stats["cache"]["stores"] == 1
        assert "latency" in stats and "admission" in stats

    def test_invalid_spec_answers_error_line(self):
        async def body(client, _svc):
            with pytest.raises(ServiceError, match="invalid spec"):
                await client.submit({"kind": "nope", "n": -1})
            return await client.ping()  # the connection survives

        assert asyncio.run(_with_server(body))

    def test_unknown_op_answers_error_line(self):
        async def body(client, _svc):
            with pytest.raises(ServiceError, match="unknown op"):
                await client._request({"op": "explode"})
            return True

        assert asyncio.run(_with_server(body))

    def test_tenant_is_forwarded(self):
        async def body(client, svc):
            await client.submit(SPEC, tenant="alice")
            return svc.admission.stats()

        stats = asyncio.run(_with_server(body))
        assert stats["accepted"] == 1


class TestStdio:
    SERVE = [sys.executable, "-m", "repro.cli", "service", "serve",
             "--stdio", "--threads", "--workers", "2"]
    ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}

    def _run_stdio(self, lines, timeout=90):
        proc = subprocess.run(
            self.SERVE,
            input="".join(line + "\n" for line in lines),
            capture_output=True, text=True, timeout=timeout,
            cwd=REPO, env=self.ENV,
        )
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines()]

    def test_pipe_round_trip(self):
        spec = SPEC.to_dict()
        msgs = self._run_stdio([
            json.dumps({"op": "ping", "id": "p"}),
            json.dumps({"op": "submit", "id": "1", "spec": spec}),
        ])
        by_event = {}
        for m in msgs:
            by_event.setdefault(m["event"], []).append(m)
        assert by_event["pong"][0]["id"] == "p"
        (result,) = by_event["result"]
        assert result["id"] == "1"
        assert result["artifact"]["status"] == "ok"
        assert result["artifact"]["spec_hash"] == SPEC.canonical_hash()

    def test_duplicate_requests_share_one_execution(self):
        spec = SPEC.to_dict()
        proc = subprocess.Popen(
            self.SERVE, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, cwd=REPO, env=self.ENV,
        )
        watchdog = threading.Timer(90, proc.kill)  # a hang fails, not blocks
        watchdog.start()
        try:
            for i in range(3):
                proc.stdin.write(
                    json.dumps({"op": "submit", "id": str(i), "spec": spec}) + "\n"
                )
            proc.stdin.flush()
            msgs = []
            # The server answers ``stats`` as soon as it reads the line,
            # so ask only once every result (and its cache store) is in.
            while sum(m["event"] == "result" for m in msgs) < 3:
                line = proc.stdout.readline()
                assert line, "server exited before answering every submit"
                msgs.append(json.loads(line))
            proc.stdin.write(json.dumps({"op": "stats", "id": "s"}) + "\n")
            proc.stdin.close()
            msgs += [json.loads(line) for line in proc.stdout]
            assert proc.wait() == 0
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        results = [m for m in msgs if m["event"] == "result"]
        assert len(results) == 3
        assert all(m["artifact"]["status"] == "ok" for m in results)
        stats = next(m for m in msgs if m["event"] == "stats")["stats"]
        # One execution: every duplicate was coalesced or cache-served.
        assert stats["cache"]["stores"] == 1

    def test_malformed_line_answers_error_and_continues(self):
        msgs = self._run_stdio([
            "this is not json",
            json.dumps({"op": "ping", "id": "p"}),
        ])
        events = [m["event"] for m in msgs]
        assert "error" in events and "pong" in events
