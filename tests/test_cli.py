"""End-to-end CLI tests (invoking main() with argv)."""

import json

import pytest

from repro.cli import main
from repro.cnf.dimacs import parse_dimacs_file, write_dimacs_file
from repro.cnf.formula import CnfFormula
from repro.generators.pigeonhole import pigeonhole_formula


def _write(tmp_path, formula, name="f.cnf"):
    path = tmp_path / name
    write_dimacs_file(formula, path)
    return str(path)


def test_solve_sat_prints_model(tmp_path, capsys):
    path = _write(tmp_path, CnfFormula([[1, 2], [-1]]))
    code = main(["solve", path])
    captured = capsys.readouterr().out
    assert code == 10
    assert "s SATISFIABLE" in captured
    assert "v " in captured
    model_line = next(l for l in captured.splitlines() if l.startswith("v "))
    literals = [int(tok) for tok in model_line[2:].split()]
    assert literals[-1] == 0
    assert -1 in literals and 2 in literals


def test_solve_unsat_with_proof_and_stats(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(5))
    code = main(["solve", path, "--proof", "--stats"])
    captured = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in captured
    assert "c proof verified (RUP)" in captured
    assert "c conflicts =" in captured


def test_solve_unknown_on_budget(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(7))
    code = main(["solve", path, "--max-conflicts", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "s UNKNOWN" in captured


def test_solve_with_each_config(tmp_path, capsys):
    path = _write(tmp_path, CnfFormula([[1, 2], [-1, 2]]))
    for config in ("berkmin", "chaff", "less_mobility"):
        assert main(["solve", path, "--config", config]) == 10


@pytest.mark.parametrize(
    "family,args",
    [
        ("hole", ["--size", "4"]),
        ("hanoi", ["--size", "2"]),
        ("queens", ["--size", "5"]),
        ("xor", ["--size", "8", "--extra", "6"]),
        ("ksat", ["--size", "10"]),
        ("adder", ["--size", "3"]),
        ("pipe", ["--size", "3", "--extra", "1"]),
        ("sudoku", []),
    ],
)
def test_generate_families(tmp_path, capsys, family, args):
    out = str(tmp_path / f"{family}.cnf")
    code = main(["generate", family, "-o", out] + args)
    assert code == 0
    formula = parse_dimacs_file(out)
    assert formula.num_clauses > 0
    assert "wrote" in capsys.readouterr().out


def test_generated_instance_solves(tmp_path, capsys):
    out = str(tmp_path / "hole.cnf")
    main(["generate", "hole", "--size", "4", "-o", out])
    capsys.readouterr()
    assert main(["solve", out]) == 20


def test_experiment_quick(capsys):
    code = main(["experiment", "table3", "--scale", "quick"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "Table 3" in captured


def test_solve_with_preprocessing_sat(tmp_path, capsys):
    from repro.generators.random_ksat import planted_ksat

    formula = planted_ksat(20, 70, 3, seed=9)
    path = _write(tmp_path, formula)
    code = main(["solve", path, "--preprocess"])
    captured = capsys.readouterr().out
    assert code == 10
    assert "c preprocessing:" in captured
    model_line = next(l for l in captured.splitlines() if l.startswith("v "))
    model = {abs(int(t)): int(t) > 0 for t in model_line[2:].split() if t != "0"}
    assert formula.evaluate(model)


def test_solve_with_preprocessing_unsat(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(4))
    code = main(["solve", path, "--preprocess"])
    assert code == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_solve_portfolio_unsat(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(5))
    code = main(["solve", path, "--portfolio", "--jobs", "2"])
    captured = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in captured
    assert "winner:" in captured


def test_solve_jobs_implies_portfolio(tmp_path, capsys):
    path = _write(tmp_path, CnfFormula([[1, 2], [-1]]))
    code = main(["solve", path, "--jobs", "2"])
    captured = capsys.readouterr().out
    assert code == 10
    assert "c portfolio of 2 configs" in captured
    assert "s SATISFIABLE" in captured


def test_solve_portfolio_verifies_proof(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(4))
    code = main(["solve", path, "--portfolio", "--jobs", "2", "--proof"])
    captured = capsys.readouterr().out
    assert code == 20
    assert "s UNSATISFIABLE" in captured
    assert "c answer verified (proof)" in captured


def test_solve_verify_sat_model(tmp_path, capsys):
    path = _write(tmp_path, CnfFormula([[1, 2], [-1]]))
    code = main(["solve", path, "--verify", "sat"])
    captured = capsys.readouterr().out
    assert code == 10
    assert "c answer verified (model)" in captured


def test_batch_with_verification_and_retries(tmp_path, capsys):
    sat = _write(tmp_path, CnfFormula([[1, 2], [-1]]), "sat.cnf")
    unsat = _write(tmp_path, pigeonhole_formula(4), "unsat.cnf")
    code = main(["batch", sat, unsat, "--jobs", "2", "--proof", "--retries", "2"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "[verified: model]" in captured
    assert "[verified: proof]" in captured


def test_audit_quick(capsys):
    code = main(["audit", "--rounds", "2", "--seed", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "audit PASS: 2 rounds" in captured


def test_batch_command(tmp_path, capsys):
    sat = _write(tmp_path, CnfFormula([[1, 2], [-1]]), "sat.cnf")
    unsat = _write(tmp_path, pigeonhole_formula(4), "unsat.cnf")
    code = main(["batch", sat, unsat, "--jobs", "2", "--stats"])
    captured = capsys.readouterr().out
    assert code == 0
    assert f"{sat}: SAT" in captured
    assert f"{unsat}: UNSAT" in captured
    assert "c batch: 2 files, 1 sat, 1 unsat, 0 unknown" in captured
    assert "c conflicts =" in captured


def test_batch_unknown_gives_nonzero_exit(tmp_path, capsys):
    hard = _write(tmp_path, pigeonhole_formula(8), "hard.cnf")
    code = main(["batch", hard, "--max-conflicts", "5"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "UNKNOWN (conflict budget)" in captured


def test_atpg_command(capsys):
    code = main(["atpg", "--inputs", "4", "--gates", "8", "--seed", "3"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "coverage" in captured
    assert "faults 16" in captured


def test_bmc_command_sat_and_unsat(capsys):
    assert main(["bmc", "--bits", "3", "--target", "5", "--bound", "5"]) == 10
    assert "BAD" in capsys.readouterr().out
    assert main(["bmc", "--bits", "3", "--target", "5", "--bound", "4"]) == 20
    assert "UNSAT" in capsys.readouterr().out


def test_bad_arguments_exit():
    with pytest.raises(SystemExit):
        main(["solve"])
    with pytest.raises(SystemExit):
        main(["generate", "nonsense", "-o", "x"])


# ----------------------------------------------------------------------
# Error hygiene: operational failures are one-line diagnostics, exit 2
# ----------------------------------------------------------------------


def test_solve_missing_file_is_one_line_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "absent.cnf")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-sat: error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_solve_malformed_dimacs_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "broken.cnf"
    path.write_text("p cnf 2 1\n1 nonsense 0\n")
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-sat: error:")
    assert len(captured.err.strip().splitlines()) == 1


def test_batch_missing_file_is_one_line_error(tmp_path, capsys):
    present = _write(tmp_path, CnfFormula([[1]]), "ok.cnf")
    code = main(["batch", present, str(tmp_path / "absent.cnf")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-sat: error:")


def test_unwritable_artifact_path_is_one_line_error(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(4))
    out = tmp_path / "no-such-dir" / "proof.drat"
    code = main(["solve", path, "--proof-out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("repro-sat: error:")


# ----------------------------------------------------------------------
# Answer checks in `solve`
# ----------------------------------------------------------------------


def _count_proof_checks(monkeypatch, fail=False):
    """Route both callers of the proof checker through one counter."""
    import repro.cli
    import repro.reliability.verify
    from repro.proof import ProofError, check_rup_proof

    calls = []

    def counting(formula, proof, **kwargs):
        calls.append(len(proof))
        if fail:
            raise ProofError("step 3: clause [1] is not a RUP consequence")
        return check_rup_proof(formula, proof, **kwargs)

    monkeypatch.setattr(repro.cli, "check_rup_proof", counting)
    monkeypatch.setattr(repro.reliability.verify, "check_rup_proof", counting)
    return calls


@pytest.mark.parametrize(
    "extra", [[], ["--verify", "full"], ["--verify", "sat"], ["--verify", "off"]]
)
def test_solve_proof_is_checked_exactly_once(tmp_path, capsys, monkeypatch, extra):
    calls = _count_proof_checks(monkeypatch)
    path = _write(tmp_path, pigeonhole_formula(5))
    code = main(["solve", path, "--proof", *extra])
    captured = capsys.readouterr().out
    assert code == 20
    assert len(calls) == 1
    assert "c proof verified (RUP)" in captured


@pytest.mark.parametrize("extra", [[], ["--verify", "sat"]])
def test_solve_failed_proof_check_is_one_line_error(tmp_path, capsys, monkeypatch, extra):
    calls = _count_proof_checks(monkeypatch, fail=True)
    path = _write(tmp_path, pigeonhole_formula(4))
    code = main(["solve", path, "--proof", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert len(calls) == 1
    assert captured.err.startswith("repro-sat: error:")
    assert "is not a RUP consequence" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "c proof verified" not in captured.out


def test_solve_failed_model_check_is_one_line_error(tmp_path, capsys, monkeypatch):
    import repro.reliability
    from repro.reliability import VerificationError

    def rejecting(formula, result, level):
        raise VerificationError("model does not satisfy clause [1, 2]")

    monkeypatch.setattr(repro.reliability, "verify_result", rejecting)
    path = _write(tmp_path, CnfFormula([[1, 2], [-1]]))
    code = main(["solve", path, "--verify", "sat"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "repro-sat: error: model does not satisfy clause [1, 2]\n"
    assert "s SATISFIABLE" not in captured.out


# ----------------------------------------------------------------------
# Checkpoint flags
# ----------------------------------------------------------------------


def test_solve_checkpoint_then_resume(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(6))
    ckpt = tmp_path / "run.ckpt"

    code = main(
        ["solve", path, "--checkpoint", str(ckpt), "--checkpoint-interval",
         "50", "--max-conflicts", "200"]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "s UNKNOWN" in captured
    assert f"c checkpoint written to {ckpt}" in captured
    assert ckpt.exists()

    code = main(["solve", path, "--checkpoint", str(ckpt)])
    captured = capsys.readouterr().out
    assert code == 20
    assert "c resumed from checkpoint" in captured
    assert "s UNSATISFIABLE" in captured
    assert not ckpt.exists()  # definite answer reconciles the file away


def test_solve_corrupt_checkpoint_degrades_to_cold_start(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(4))
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"RSCK not a real checkpoint")
    with pytest.warns(Warning):
        code = main(["solve", path, "--checkpoint", str(ckpt)])
    captured = capsys.readouterr().out
    assert code == 20
    assert "c resumed from checkpoint" not in captured
    assert "s UNSATISFIABLE" in captured


def test_solve_proof_out_writes_drat_file(tmp_path, capsys):
    path = _write(tmp_path, pigeonhole_formula(4))
    proof_path = tmp_path / "proof.drat"
    code = main(["solve", path, "--proof-out", str(proof_path)])
    captured = capsys.readouterr().out
    assert code == 20
    assert f"c proof written to {proof_path}" in captured
    lines = proof_path.read_text().strip().splitlines()
    assert lines[-1] == "0"  # final empty clause
    assert all(line.split()[-1] == "0" for line in lines)


def test_batch_checkpoint_dir(tmp_path, capsys):
    hard = _write(tmp_path, pigeonhole_formula(7), "hard.cnf")
    ckdir = tmp_path / "ck"
    code = main(
        ["batch", hard, "--checkpoint", str(ckdir), "--checkpoint-interval",
         "50", "--max-conflicts", "300"]
    )
    assert code == 1  # UNKNOWN on budget
    assert (ckdir / "instance-0000.ckpt").exists()
    capsys.readouterr()

    code = main(["batch", hard, "--checkpoint", str(ckdir)])
    captured = capsys.readouterr().out
    assert code == 0
    assert f"{hard}: UNSAT" in captured
    assert not (ckdir / "instance-0000.ckpt").exists()


def test_session_command_streams_queries(tmp_path, capsys):
    stream = tmp_path / "stream.icnf"
    stream.write_text(
        "p inccnf\n"
        "c x1 != x2, x2 != x3\n"
        "1 2 0\n-1 -2 0\n2 3 0\n-2 -3 0\n"
        "a 1 -3 0\n"       # UNSAT with core
        "a 1 0\n"          # SAT
        "a 1 -3 0\n"       # exact cache hit
    )
    code = main(["session", str(stream)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("s UNSATISFIABLE") == 2
    assert out.count("s SATISFIABLE") == 1
    assert "c core" in out
    assert "1 cache hits" in out
    assert "c session: 3 queries" in out


def test_session_command_no_cache_and_trace(tmp_path, capsys):
    stream = tmp_path / "stream.icnf"
    stream.write_text("1 2 0\na -1 0\na -1 0\n")
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        ["session", str(stream), "--no-cache", "--trace-out", str(trace_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0 cache hits" in out
    lines = [line for line in trace_path.read_text().splitlines() if line]
    kinds = [json.loads(line)["type"] for line in lines]
    assert "session_start" in kinds
    assert kinds.count("session_solve") == 2


def test_session_command_rejects_malformed_stream(tmp_path, capsys):
    stream = tmp_path / "bad.icnf"
    stream.write_text("1 2\n")  # missing 0 terminator
    code = main(["session", str(stream)])
    err = capsys.readouterr().err
    assert code == 2
    assert "must end in 0" in err
