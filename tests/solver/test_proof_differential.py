"""The watched-literal DRUP checker against the fixpoint oracle.

Both checkers must accept the same proofs and reject the rest with the
same :class:`ProofError` text.  The random part feeds them solver proofs
of small UNSAT formulas, intact and mutated; the targeted part pins the
cases where a watched checker is easiest to get wrong: deleting the
reason of a level-0 literal, repeated literals, tautologies, formulas
that contain the empty clause, and clauses present twice.
"""

import random
import time

import pytest
from rup_oracle import check_rup_proof as oracle_check

from repro.cnf.formula import CnfFormula
from repro.proof import ProofError, check_rup_proof
from repro.solver import Solver
from repro.solver.config import berkmin_config


def _outcome(checker, formula, proof, require_empty_clause):
    try:
        return checker(formula, proof, require_empty_clause=require_empty_clause)
    except ProofError as error:
        return f"ProofError: {error}"


def _agree(formula, proof):
    for require_empty_clause in (True, False):
        expected = _outcome(oracle_check, formula, proof, require_empty_clause)
        got = _outcome(check_rup_proof, formula, proof, require_empty_clause)
        assert got == expected, (formula.clauses, proof, require_empty_clause)


def _random_unsat(rng):
    """A small random formula with a solver proof, or None when SAT."""
    num_variables = rng.randint(4, 10)
    clauses = []
    for _ in range(rng.randint(4 * num_variables, 7 * num_variables)):
        width = rng.choice((1,) + (2,) * 6 + (3,) * 33)
        clause = [
            variable * rng.choice((1, -1))
            for variable in rng.sample(range(1, num_variables + 1), width)
        ]
        if rng.random() < 0.05:
            clause.append(clause[0])  # a repeated literal
        if rng.random() < 0.03:
            clause.append(-clause[0])  # a tautology
        clauses.append(clause)
    formula = CnfFormula(clauses, num_variables=num_variables)
    config = berkmin_config(proof_logging=True, restart_interval=rng.choice((3, 5, 40)))
    result = Solver(formula, config=config).solve()
    return (formula, result.proof) if result.is_unsat else None


def _mutations(rng, formula, proof):
    """The intact proof, then one variant per kind of damage."""
    num_variables = formula.num_variables
    inputs = [list(clause) for clause in formula.clauses]
    lemmas = [list(clause) for kind, clause in proof if kind == "a" and clause]

    def steps():
        return [(kind, list(clause)) for kind, clause in proof]

    def inserted(kind, clause, latest=None):
        variant = steps()
        at = rng.randint(0, len(variant) if latest is None else latest)
        variant.insert(at, (kind, clause))
        return variant

    def random_clause():
        return [
            rng.randint(1, num_variables) * rng.choice((1, -1))
            for _ in range(rng.randint(1, 2))
        ]

    yield proof
    dropped = steps()
    del dropped[rng.randrange(len(dropped))]
    yield dropped
    if lemmas:
        flipped = steps()
        clause = rng.choice([clause for kind, clause in flipped if kind == "a" and clause])
        position = rng.randrange(len(clause))
        clause[position] = -clause[position]
        yield flipped
        yield inserted("a", list(rng.choice(lemmas)))
    yield inserted("a", random_clause())
    yield inserted("d", random_clause())
    shuffled = list(rng.choice(inputs + lemmas))
    rng.shuffle(shuffled)
    yield inserted("d", shuffled)
    # An input clause deleted early, so later lemmas may lose support.
    yield inserted("d", list(rng.choice(inputs)), latest=len(proof) // 2)
    yield [(kind, clause) for kind, clause in proof if clause or kind != "a"]  # no []


def test_agrees_with_oracle_on_random_and_mutated_proofs():
    rng = random.Random(12)
    formulas = cases = 0
    while formulas < 150:
        made = _random_unsat(rng)
        if made is None:
            continue
        formulas += 1
        formula, proof = made
        for variant in _mutations(rng, formula, proof):
            _agree(formula, variant)
            cases += 1
    assert cases > 150 * 7


def test_deleting_the_reason_of_a_level0_unit():
    # [1] and [-1, 2] put 1 then 2 on the level-0 trail; [-1, 2] is the
    # reason for 2.  Once it is gone, [2] no longer follows, while [1]
    # still does.
    formula = CnfFormula([[1], [-1, 2], [-2, 3, 4]])
    after = [("d", [2, -1])]
    with pytest.raises(ProofError, match=r"step 1: clause \[2\] is not a RUP"):
        check_rup_proof(formula, after + [("a", [2])], require_empty_clause=False)
    assert check_rup_proof(formula, after + [("a", [1])], require_empty_clause=False)
    for lemma in ([2], [1], [3, 4]):
        _agree(formula, after + [("a", lemma)])


def test_deleting_a_reason_after_its_literal_has_a_unit_clause():
    # [2] is added while 2 is already derived: deleting [-1, 2] later
    # leaves 2 on the trail, and lemmas resting on it still check.
    formula = CnfFormula([[1], [-1, 2], [-2, 3], [-3, -2]])
    proof = [("a", [2]), ("d", [-1, 2]), ("a", [3]), ("a", [])]
    assert check_rup_proof(formula, proof)
    _agree(formula, proof)


def test_repeated_literals_in_input_clauses():
    # [26, 26, -31] is the binary [26, -31]: once -31 is false it is unit.
    formula = CnfFormula([[26, 26, -31], [31], [-26, 5], [-26, -5]])
    proof = [("a", [26]), ("a", [])]
    assert check_rup_proof(formula, proof)
    _agree(formula, proof)
    # Deletion matches the multiset: [26, -31] is not the clause present.
    with pytest.raises(ProofError, match="not in database"):
        check_rup_proof(formula, [("d", [26, -31])], require_empty_clause=False)
    assert check_rup_proof(
        formula, [("d", [-31, 26, 26]), ("a", [-26])], require_empty_clause=False
    )
    _agree(formula, [("d", [-31, 26, 26]), ("a", [26])])


def test_tautological_inputs_and_lemmas():
    formula = CnfFormula([[1, -1], [2, -2, 3], [1, 2], [-1, 2], [1, -2], [-1, -2]])
    assert check_rup_proof(formula, [("a", [4, -4]), ("a", [2]), ("a", [])])
    with pytest.raises(ProofError, match="not a RUP"):
        check_rup_proof(CnfFormula([[1, -1], [2, 3]]), [("a", [2])])
    _agree(formula, [("a", [4, -4]), ("d", [1, -1]), ("a", [2]), ("a", [])])
    _agree(CnfFormula([[1, -1], [2, 3]]), [("a", [2])])


def test_formula_that_contains_the_empty_clause():
    formula = CnfFormula([[1, 2], []])
    assert check_rup_proof(formula, [])
    assert check_rup_proof(formula, [("a", [-1]), ("a", [-2])])
    # Once [] is deleted the database is satisfiable again, yet the
    # empty clause was seen, so the requirement stays met.
    assert check_rup_proof(formula, [("d", [])])
    with pytest.raises(ProofError, match="step 1: clause \\[-1\\] is not a RUP"):
        check_rup_proof(formula, [("d", []), ("a", [-1])])
    for proof in ([], [("d", []), ("d", [])], [("d", []), ("a", [-1])]):
        _agree(formula, proof)


def test_lemma_with_a_literal_true_at_level0():
    formula = CnfFormula([[1], [-1, 2], [3, 4, 5]])
    # 2 is true at level 0, so [2, 7] is RUP though 7 occurs nowhere.
    assert check_rup_proof(formula, [("a", [2, 7])], require_empty_clause=False)
    _agree(formula, [("a", [2, 7]), ("a", [3, 4]), ("a", [5, -2, 4])])


def test_deleting_a_clause_present_twice():
    formula = CnfFormula([[1, 2], [2, 1], [-1], [3, -2]])
    # One copy of [1, 2] survives the first deletion, so 2 still follows.
    proof = [("d", [1, 2]), ("a", [3])]
    assert check_rup_proof(formula, proof, require_empty_clause=False)
    with pytest.raises(ProofError, match="step 2: clause \\[3\\] is not a RUP"):
        check_rup_proof(
            formula, [("d", [1, 2]), ("d", [2, 1]), ("a", [3])], require_empty_clause=False
        )
    with pytest.raises(ProofError, match="step 2: deleted clause"):
        check_rup_proof(formula, [("d", [1, 2])] * 3, require_empty_clause=False)
    for proof in (
        [("d", [1, 2]), ("a", [3])],
        [("d", [1, 2]), ("d", [2, 1]), ("a", [3])],
        [("d", [1, 2]), ("d", [1, 2]), ("d", [1, 2])],
    ):
        _agree(formula, proof)


def test_level0_conflict_then_deletion_of_the_conflicting_clause():
    # [1], [-1, 2] and [-2] conflict at level 0, so anything is RUP until
    # [-2] is deleted.
    formula = CnfFormula([[1], [-1, 2], [-2], [3, 4]])
    proof = [("a", [3]), ("d", [-2]), ("a", [2]), ("a", [4])]
    with pytest.raises(ProofError, match="step 3: clause \\[4\\] is not a RUP"):
        check_rup_proof(formula, proof, require_empty_clause=False)
    _agree(formula, proof)


@pytest.mark.perf_smoke
def test_proof_check_costs_at_most_three_solves():
    # Best of three on each side, so one scheduler hiccup cannot fail it.
    # The watched checker reads about 1x here; the fixpoint oracle 5x.
    from repro.generators.pigeonhole import pigeonhole_formula

    formula = pigeonhole_formula(6)
    solve_s = check_s = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = Solver(formula, config=berkmin_config(proof_logging=True)).solve()
        solve_s = min(solve_s, time.perf_counter() - started)
        started = time.perf_counter()
        assert check_rup_proof(formula, result.proof)
        check_s = min(check_s, time.perf_counter() - started)
    assert result.is_unsat
    assert check_s <= 3 * solve_s, (check_s, solve_s)
