"""The in-process workloads: paper-mix, verified-unsat and portfolio-race.

Every workload, these and serve-closed, is a closed loop: one caller
issues the next call only after the previous answer is back and checked.
Each run of these solves whole passes over the same shuffled copies of
its instances, each pass in a seeded order, so every run times the same
mix however many passes fit.

In a traced run each call is also made inside an ``answer`` span; the
traced against the untraced times give ``trace.overhead_frac``.  For
``repro.solve`` the same work is then made a third time as the public
calls it makes inside (``Solver.solve``, then ``verify_result``), each in
its own span: those give the solver, proof and model-check figures, and
their gap to the untraced call gives ``session.overhead_s``.
"""

from __future__ import annotations

import os
import time

import repro
from repro import PortfolioSolver, Solver, SolveStatus, verify_result

from perfbench import inputs
from perfbench.check import check_answer
from perfbench.measure import Answers, median, p90

#: Shuffled copies of each instance in one pass.  On a 2-CPU host a pass
#: is about 12-20 s, 20-25 s and 4-6 s of work holding 200, 90 and 20
#: timed answers, so a 25 s run makes 1-2, 1 and 3-7 passes.
#: A traced run makes every call two or three times, so its passes hold
#: copy 0 only.
COPIES = {"paper-mix": 8, "verified-unsat": 10, "portfolio-race": 4}


def pass_items(workload: str, instances, tracer) -> list:
    return inputs.closed_loop_items(instances, 1 if tracer is not None else COPIES[workload])

#: Every per-layer metric with its unit.  A workload reports 0 for a
#: layer its calls do not reach or its public results do not expose.
LAYER_UNITS = {
    "solver.solve_s": "s",
    "solver.ns_per_prop": "ns",
    "solver.propagations": "count",
    "solver.conflicts": "count",
    "solver.decisions": "count",
    "solver.db_reductions": "count",
    "solver.top_clause_decision_frac": "ratio",
    "solver.learned_kept_frac": "ratio",
    "solver.inprocess_passes": "count",
    "solver.arena_collections": "count",
    "proof.check_s": "s",
    "proof.lemmas": "count",
    "proof.check_per_solve": "ratio",
    "reliability.model_check_s": "s",
    "session.overhead_s": "s",
    "session.cache_hit_frac": "ratio",
    "checkpoint.fingerprint_s": "s",
    "parallel.launch_overhead_s_p50": "s",
    "parallel.attempts": "count",
    "portfolio.overhead_s_p50": "s",
    "server.queue_s_p90": "s",
    "server.solve_s_p50": "s",
    "server.admit_s_p50": "s",
    "server.refused": "count",
    "cnf.build_s": "s",
    "load.lag_s_p90": "s",
    "trace.overhead_frac": "ratio",
}


class SolverCounts:
    """Per-answer means and ratios of :class:`SolverStats` counters."""

    FIELDS = (
        "propagations", "conflicts", "decisions", "db_reductions",
        "top_clause_decisions", "learned_total", "learned_deleted",
        "inprocess_passes", "arena_collections",
    )

    def __init__(self) -> None:
        self.answers = 0
        self.solve_seconds: list[float] = []
        self.totals = dict.fromkeys(self.FIELDS, 0)

    def add(self, stats, solve_seconds: float) -> None:
        self.answers += 1
        self.solve_seconds.append(solve_seconds)
        for name in self.FIELDS:
            self.totals[name] += getattr(stats, name)

    def layers(self) -> dict:
        t = self.totals
        n = max(self.answers, 1)
        return {
            "solver.solve_s": (median(self.solve_seconds), self.answers),
            "solver.ns_per_prop": (
                sum(self.solve_seconds) * 1e9 / t["propagations"] if t["propagations"] else 0.0,
                self.answers,
            ),
            "solver.propagations": (t["propagations"] / n, self.answers),
            "solver.conflicts": (t["conflicts"] / n, self.answers),
            "solver.decisions": (t["decisions"] / n, self.answers),
            "solver.db_reductions": (t["db_reductions"] / n, self.answers),
            "solver.top_clause_decision_frac": (
                t["top_clause_decisions"] / t["decisions"] if t["decisions"] else 0.0,
                self.answers,
            ),
            "solver.learned_kept_frac": (
                1.0 - t["learned_deleted"] / t["learned_total"] if t["learned_total"] else 0.0,
                self.answers,
            ),
            "solver.inprocess_passes": (t["inprocess_passes"] / n, self.answers),
            "solver.arena_collections": (t["arena_collections"] / n, self.answers),
        }


def empty_layers() -> dict:
    return {name: (0.0, 0) for name in LAYER_UNITS}


def run_passes(items, seed: int, seconds: float, body) -> tuple[float, int]:
    """Call ``body(item)`` over whole passes of ``items``; return (wall seconds, passes).

    A new pass starts only if one more pass as long as the last still
    ends within ``seconds``; the first pass always runs, and no pass is
    cut short.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        began = time.perf_counter()
        for item in inputs.pass_order(items, seed, passes):
            body(item)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return now - start, passes


class ClosedLoop:
    """Shared bookkeeping for one closed-loop run."""

    def __init__(self, tracer) -> None:
        self.answers = Answers()
        self.tracer = tracer
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.gaps: list[float] = []
        self._last_end: float | None = None
        self.counts = SolverCounts()

    def timed(self, call):
        """Run ``call()``; return (result, seconds) and note the idle gap before it."""
        start = time.perf_counter()
        if self._last_end is not None:
            self.gaps.append(start - self._last_end)
        result = call()
        end = time.perf_counter()
        self._last_end = end
        return result, end - start

    def untimed(self) -> None:
        """Exclude the work since the last timed call from the next idle gap."""
        self._last_end = time.perf_counter()

    def answer(self, item, call):
        """Time and check one untraced ``call()``: one end-to-end sample.

        In a traced run the same call is also made inside an ``answer``
        span, alternating which of the two goes first so that warm caches
        favour neither.  Returns (untraced seconds, traced result or None).
        """
        traced = None
        traced_first = self.tracer is not None and len(self.traced) % 2 == 1
        if traced_first:
            traced = self._traced(item, call)
        result, seconds = self.timed(call)
        self.answers.add(seconds, check(item, result))
        if self.tracer is not None:
            self.untraced.append(seconds)
            if not traced_first:
                traced = self._traced(item, call)
        return seconds, traced

    def _traced(self, item, call):
        with self.tracer.span("answer", item.label) as root:
            result = call()
        self.traced.append(root["end"] - root["start"])
        check(item, result)
        self.untimed()
        return result

    def finish(self, wall: float, passes: int) -> tuple[dict, dict, dict]:
        e2e = self.answers.metrics(wall)
        layers = empty_layers()
        layers["load.lag_s_p90"] = (p90(self.gaps), len(self.gaps))
        if self.tracer is not None:
            layers.update(self.counts.layers())
            overhead = sum(self.traced) / sum(self.untraced) - 1.0 if self.untraced else 0.0
            layers["trace.overhead_frac"] = (overhead, len(self.traced))
        extra = {
            "passes": passes,
            "attempted": self.answers.attempted,
            "failed": self.answers.failed,
        }
        return e2e, layers, extra


def check(item, result) -> bool:
    return check_answer(
        item.label, item.expected.value, item.formula.clauses, result.status.value, result.model
    )


def run_solve_workload(workload: str, seed: int, seconds: float, tracer, tiny: bool):
    """paper-mix (verification "sat") or verified-unsat (verification "full")."""
    full = workload == "verified-unsat"
    if full:
        items = pass_items(workload, inputs.verified_unsat_instances(tiny), tracer)
        config = repro.berkmin_config(verification="full")
        direct_config = repro.berkmin_config(proof_logging=True)
    else:
        items = pass_items(workload, inputs.paper_mix_instances(tiny), tracer)
        config = repro.berkmin_config(verification="sat")
        direct_config = repro.berkmin_config()
    loop = ClosedLoop(tracer)
    session_overhead: list[float] = []
    model_checks: list[float] = []
    proof_checks: list[float] = []
    lemmas: list[int] = []

    def body(item) -> None:
        seconds_, _ = loop.answer(
            item,
            lambda: repro.solve(item.formula, config=config, max_conflicts=item.max_conflicts),
        )
        if tracer is None:
            return
        # The same work as the public calls repro.solve makes inside.
        with tracer.span("solver.solve", item.label) as solve_span:
            direct = Solver(item.formula, direct_config).solve(max_conflicts=item.max_conflicts)
        check_name = "proof.check" if full and direct.is_unsat else "reliability.model_check"
        with tracer.span(check_name, item.label) as check_span:
            verify_result(item.formula, direct, "full" if full else "sat")
        check(item, direct)
        solve_s = solve_span["end"] - solve_span["start"]
        check_s = check_span["end"] - check_span["start"]
        loop.counts.add(direct.stats, solve_s)
        session_overhead.append(seconds_ - solve_s - check_s)
        if check_name == "proof.check":
            proof_checks.append(check_s)
            lemmas.append(sum(1 for step, _ in direct.proof if step == "a"))
        elif direct.is_sat:
            model_checks.append(check_s)
        loop.untimed()

    wall, passes = run_passes(items, seed, seconds, body)
    e2e, layers, extra = loop.finish(wall, passes)
    if tracer is not None:
        solve_total = sum(loop.counts.solve_seconds)
        layers.update({
            "session.overhead_s": (median(session_overhead), len(session_overhead)),
            "reliability.model_check_s": (median(model_checks), len(model_checks)),
            "proof.check_s": (median(proof_checks), len(proof_checks)),
            "proof.lemmas": (sum(lemmas) / len(lemmas) if lemmas else 0.0, len(lemmas)),
            "proof.check_per_solve": (
                sum(proof_checks) / solve_total if proof_checks and solve_total else 0.0,
                len(proof_checks),
            ),
        })
    return e2e, layers, extra


def run_portfolio_race(seed: int, seconds: float, tracer, tiny: bool):
    """portfolio-race: ``PortfolioSolver(jobs=nproc)`` with its default lanes."""
    items = pass_items("portfolio-race", inputs.portfolio_instances(tiny), tracer)
    portfolio = PortfolioSolver(jobs=len(os.sched_getaffinity(0)))
    loop = ClosedLoop(tracer)
    overheads: list[float] = []
    attempts: list[int] = []

    def body(item) -> None:
        _, traced = loop.answer(
            item, lambda: portfolio.solve(item.formula, max_conflicts=item.max_conflicts)
        )
        if traced is not None and traced.status is not SolveStatus.UNKNOWN:
            winner_solve = traced.stats.solve_time_seconds
            loop.counts.add(traced.stats, winner_solve)
            overheads.append(loop.traced[-1] - winner_solve)
            attempts.append(len(traced.attempts) if traced.attempts else 1)

    wall, passes = run_passes(items, seed, seconds, body)
    e2e, layers, extra = loop.finish(wall, passes)
    extra["lanes"] = [config.name for config in portfolio.configs]
    if tracer is not None:
        layers["portfolio.overhead_s_p50"] = (median(overheads), len(overheads))
        layers["parallel.attempts"] = (
            sum(attempts) / len(attempts) if attempts else 0.0, len(attempts)
        )
    return e2e, layers, extra
