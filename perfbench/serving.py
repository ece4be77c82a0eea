"""The service workload: serve-closed.

The benchmark starts ``repro-sat serve --verify sat --pool-size <nproc>``
and one caller sends it requests over one ``AsyncSolverClient``
connection, each only after the previous reply is back and checked.  A
round asks once about a fresh shuffled copy of every instance, and a
quarter of its requests repeat an earlier request of the round
reordered, which the service's AnswerCache answers.  One caller keeps
queueing out of the latencies: an open loop with Poisson arrivals was
tried first and its latencies were not steady enough to gate
(``perfbench/README.md``).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

from repro.checkpoint.snapshot import canonical_fingerprint
from repro.cnf import CnfFormula
from repro.server import AsyncSolverClient, SolverClient

from perfbench import inputs
from perfbench.check import check_answer
from perfbench.measure import ROOT, child_env, median
from perfbench.workloads import ClosedLoop

#: Nominal seconds of one round on a 2-CPU host: a run makes
#: ``seconds / ROUND_S`` rounds however fast it goes, so that every run
#: sends the same requests and leaves the same answers in the cache.
ROUND_S = 2.5

#: Budget sent with each request, and how long the client waits beyond it.
REQUEST_TIMEOUT_S = 10.0
REPLY_GRACE_S = 20.0


class Server:
    """One ``repro-sat serve`` process started by the benchmark."""

    def __init__(self, pool_size: int) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--verify", "sat", "--pool-size", str(pool_size)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            # "c serving on 127.0.0.1:PORT (pool of N)"
            if not banner.startswith("c serving on "):
                raise RuntimeError(f"serve did not start: {banner!r}")
            self.port = int(banner.split()[3].rsplit(":", 1)[1])
            with SolverClient(port=self.port) as client:
                if client.ping().get("kind") != "pong":
                    raise RuntimeError("serve did not answer ping")
        except BaseException:
            self.stop()
            raise
        #: Seconds from process start until the server answered ping.
        self.setup_s = time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def _reply_ok(request, reply) -> bool:
    if reply.get("kind") != "result":
        return False
    item = request.item
    return check_answer(
        item.label, item.expected.value, request.clauses, reply["status"], reply.get("model")
    )


async def _solve(client, clauses) -> dict:
    try:
        return await asyncio.wait_for(
            client.solve(clauses, timeout=REQUEST_TIMEOUT_S), REQUEST_TIMEOUT_S + REPLY_GRACE_S
        )
    except (asyncio.TimeoutError, ConnectionError) as error:
        return {"kind": "error", "error": repr(error)}


def run_serve(seed: int, seconds: float, tracer, tiny: bool, setup_repeats: int):
    """Run serve-closed; return (e2e, layers, extra, set-up samples)."""
    pool_size = len(os.sched_getaffinity(0))
    instances = inputs.serve_instances(tiny)
    rounds = max(1, round(seconds / ROUND_S))
    setups = []
    for _ in range(setup_repeats - 1):
        server = Server(pool_size)
        setups.append(server.setup_s)
        server.stop()
    server = Server(pool_size)
    setups.append(server.setup_s)
    loop = ClosedLoop(tracer)
    # Only a traced run keeps every request (for the probes after the
    # load); an untraced one holds one round of inputs at a time, so
    # peak_rss_mb reports the service rather than the benchmark's inputs.
    kept: list = []
    sent = repeats = 0
    fresh = {"traced": [], "untraced": []}
    solve_walls: list[float] = []
    attempts: list[int] = []
    try:
        with asyncio.Runner() as runner:
            client = runner.run(AsyncSolverClient(port=server.port).connect())

            def body(request) -> None:
                nonlocal sent, repeats
                # A traced run puts every second request inside a live span;
                # a repeat of it would be a cache hit, so it is not sent twice.
                traced = tracer is not None and sent % 2 == 1
                sent += 1
                repeats += request.repeat
                if tracer is not None:
                    kept.append(request)
                call = lambda: runner.run(_solve(client, request.clauses))  # noqa: E731
                if traced:
                    with tracer.span("serve.request", request.item.label):
                        reply, seconds_ = loop.timed(call)
                else:
                    reply, seconds_ = loop.timed(call)
                loop.answers.add(seconds_, _reply_ok(request, reply))
                if reply.get("kind") == "result" and not reply.get("cached"):
                    fresh["traced" if traced else "untraced"].append(seconds_)
                    solve_walls.append(reply["wall_seconds"])
                    attempts.append(reply["attempts"])

            try:
                wall = 0.0
                for k in range(rounds):
                    round_requests = inputs.serve_round(instances, seed, k)
                    # Making a round's inputs counts neither as a gap nor as wall time.
                    loop.untimed()
                    start = time.perf_counter()
                    for request in round_requests:
                        body(request)
                    wall += time.perf_counter() - start
                stats = runner.run(client.stats())["stats"]
            finally:
                runner.run(client.close())
    finally:
        server.stop()

    e2e, layers, extra = loop.finish(wall, rounds)
    if tracer is not None:
        layers.update(_server_layers(stats, solve_walls, attempts, sent))
        layers.update(_client_layers(kept, tracer))
        traced, untraced = fresh["traced"], fresh["untraced"]
        overhead = median(traced) / median(untraced) - 1.0 if traced and untraced else 0.0
        layers["trace.overhead_frac"] = (overhead, len(traced))
    extra.update({"repeats": repeats, "replies": stats.get("replies", {})})
    return e2e, layers, extra, setups


def _server_layers(stats: dict, solve_walls: list[float], attempts: list[int], requests: int) -> dict:
    """Per-layer figures from the service's ``stats`` op and the replies."""
    latency = stats.get("latency", {})

    def phase(name: str, key: str) -> float:
        return latency.get(name, {}).get(key) or 0.0

    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    server_solve = phase("solve", "p50")
    return {
        "server.queue_s_p90": (phase("queue", "p90"), latency.get("queue", {}).get("count", 0)),
        "server.solve_s_p50": (server_solve, latency.get("solve", {}).get("count", 0)),
        "server.admit_s_p50": (phase("admit", "p50"), latency.get("admit", {}).get("count", 0)),
        "server.refused": (sum(stats["admission"]["refused"].values()), requests),
        "session.cache_hit_frac": (cache["hits"] / lookups if lookups else 0.0, lookups),
        "solver.solve_s": (median(solve_walls), len(solve_walls)),
        "parallel.launch_overhead_s_p50": (
            server_solve - median(solve_walls) if solve_walls else 0.0, len(solve_walls)
        ),
        "parallel.attempts": (sum(attempts) / len(attempts) if attempts else 0.0, len(attempts)),
    }


def _client_layers(requests, tracer) -> dict:
    """Time, per request, the formula build and fingerprint the server does.

    Measured in the benchmark process on the requests' own clause lists,
    after the load has finished, so the probes never delay a request.
    """
    for index, request in enumerate(requests):
        with tracer.span("cnf.build", index):
            CnfFormula(request.clauses)
        with tracer.span("checkpoint.fingerprint", index):
            canonical_fingerprint(request.clauses)
    builds = tracer.durations("cnf.build")
    prints = tracer.durations("checkpoint.fingerprint")
    return {
        "cnf.build_s": (median(builds), len(builds)),
        "checkpoint.fingerprint_s": (median(prints), len(prints)),
    }
