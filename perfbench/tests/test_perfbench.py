"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402
from repro import SolveResult, SolveStatus  # noqa: E402

from perfbench import inputs, run, serving  # noqa: E402
from perfbench.check import WrongAnswer, check_answer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _run_planted(monkeypatch, tmp_path, capsys, corrupt):
    """Run a tiny paper-mix in-process with ``repro.solve`` answering wrongly."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    honest = repro.solve

    def wrong(formula, config=None, **limits):
        return corrupt(honest(formula, config=config, **limits))

    monkeypatch.setattr(repro, "solve", wrong)
    code = run.main(["--workload", "paper-mix", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny"])
    out = capsys.readouterr()
    return code, out


def test_planted_wrong_verdict_fails_the_run(monkeypatch, tmp_path, capsys):
    def flip(result):
        status = SolveStatus.UNSAT if result.is_sat else SolveStatus.SAT
        return SolveResult(status=status, model={1: True}, stats=result.stats)

    code, out = _run_planted(monkeypatch, tmp_path, capsys, flip)
    assert code == 1
    assert "WRONG ANSWER" in out.err
    assert '"metrics"' not in out.out


def test_planted_bad_model_fails_the_run(monkeypatch, tmp_path, capsys):
    def negate_model(result):
        if result.is_sat:
            result.model = {var: not value for var, value in result.model.items()}
        return result

    code, out = _run_planted(monkeypatch, tmp_path, capsys, negate_model)
    assert code == 1
    assert "model does not satisfy" in out.err
    assert '"metrics"' not in out.out


def test_checker_rejects_wrong_serve_replies():
    instance = inputs.serve_instances(tiny=True)[0]
    item = inputs.copy_of(instance, 0)
    request = inputs.Request(item, item.formula.clauses, False)
    wrong = "SAT" if item.expected is SolveStatus.UNSAT else "UNSAT"
    with pytest.raises(WrongAnswer):
        serving._reply_ok(request, {"kind": "result", "status": wrong, "model": []})
    assert not serving._reply_ok(request, {"kind": "busy", "reason": "queue full"})
    with pytest.raises(WrongAnswer):
        check_answer("x", "SAT", [[1, 2], [-1]], "SAT", [1, -2])
    assert check_answer("x", "SAT", [[1, 2], [-1]], "SAT", [-1, 2])
    assert not check_answer("x", "UNSAT", [[1], [-1]], "UNKNOWN", None)


def _fingerprint(items):
    return [(item.label, item.formula.clauses) for item in items]


def test_same_seed_same_inputs_and_requests():
    instances = inputs.paper_mix_instances(tiny=True)
    items = inputs.closed_loop_items(instances, 2)
    again = inputs.closed_loop_items(instances, 2)
    for pass_index in range(3):
        assert _fingerprint(inputs.pass_order(items, 7, pass_index)) == _fingerprint(
            inputs.pass_order(again, 7, pass_index)
        )
    assert _fingerprint(inputs.pass_order(items, 7, 0)) != _fingerprint(
        inputs.pass_order(items, 8, 0)
    )

    serve = inputs.serve_instances(tiny=True)

    def requests(seed, round_index):
        return [(r.item.label, r.clauses, r.repeat)
                for r in inputs.serve_round(serve, seed, round_index)]

    first = requests(7, 2)
    assert first == requests(7, 2)
    assert first != requests(8, 2)
    assert sum(repeat for _, _, repeat in first) == round(inputs.REPEAT_SHARE * len(first))
    # Every repeat follows the fresh request it repeats, with the same clause set.
    def clause_set(clauses):
        return sorted(sorted(clause) for clause in clauses)

    for position, (label, clauses, repeat) in enumerate(first):
        if repeat:
            assert (label, clause_set(clauses)) in [
                (other, clause_set(c)) for other, c, was_repeat in first[:position] if not was_repeat
            ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "paper-mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
