"""Statistics, set-up timing, memory and provenance shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment for processes the benchmark starts: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles``' exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


class Answers:
    """Times to a checked answer, plus attempts and failures."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0

    def add(self, seconds: float, correct: bool) -> None:
        self.attempted += 1
        if not correct:
            self.failed += 1
            return
        self.times.append(seconds)

    def metrics(self, wall_seconds: float) -> dict:
        """The answer metrics; keys are metric names, values (value, samples).

        ``wall_seconds`` is the run's wall time, so the benchmark's own
        time between calls counts against ``answers_per_s``.
        """
        n = len(self.times)
        return {
            "answer_s_p50": (median(self.times), n),
            "answer_s_p90": (p90(self.times), n),
            "answer_s_geomean": (geomean(self.times), n),
            "answers_per_s": (n / wall_seconds if wall_seconds > 0 else 0.0, n),
            "answered_frac": (1.0 - self.failed / max(self.attempted, 1), self.attempted),
        }


def time_until_ready(command: list[str], *, timeout: float = 60.0) -> float:
    """Seconds from starting ``command`` until it prints ``ready``; then reap it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {' '.join(command)}")
    return elapsed


def setup_seconds(probe_source: str, repeats: int) -> tuple[float, int]:
    """Median over ``repeats`` fresh interpreters running ``probe_source``."""
    command = [sys.executable, "-c", probe_source]
    samples = [time_until_ready(command) for _ in range(repeats)]
    return median(samples), len(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among processes it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import repro
    from repro.solver._kernel import kernel_disabled, load_arena_kernel

    engine = repro.berkmin_config().propagation
    if kernel_disabled():
        kernel = "disabled (REPRO_SAT_PURE)"
    elif engine != "arena":
        # Only the arena engine runs the kernel; loading it here would
        # build it with a compiler child that counts toward peak_rss_mb.
        kernel = f"not used by the default engine ({engine})"
    else:
        kernel = "loaded" if load_arena_kernel() is not None else "unavailable"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "default_engine": engine,
        "c_kernel": kernel,
    }
