"""Reference DRUP checker: a forward fixpoint over plain clause lists.

Every lemma rescans the whole database until unit propagation reaches a
fixpoint, and every deletion compares sorted clauses one by one.  It is
slow, but each step can be checked by eye, which makes it the oracle the
watched-literal checker in :mod:`repro.proof.rup` is tested against:
both must accept the same proofs and reject the rest with the same
:class:`ProofError` text.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.cnf.formula import CnfFormula
from repro.proof import ProofError


def check_rup_proof(
    formula: CnfFormula,
    proof: Sequence[tuple[str, list[int]]],
    *,
    require_empty_clause: bool = True,
) -> bool:
    """Verify a DRUP trace against ``formula`` (same contract as the real one)."""
    database: list[list[int]] = [list(clause) for clause in formula.clauses]
    empty_seen = any(not clause for clause in database)

    for step_number, (kind, clause) in enumerate(proof):
        if kind == "a":
            if not _is_rup(database, clause):
                raise ProofError(
                    f"step {step_number}: clause {clause} is not a RUP consequence"
                )
            database.append(list(clause))
            if not clause:
                empty_seen = True
        elif kind == "d":
            _delete(database, clause, step_number)
        else:
            raise ProofError(f"step {step_number}: unknown proof action {kind!r}")

    if require_empty_clause and not empty_seen:
        raise ProofError("proof does not derive the empty clause")
    return True


def _delete(database: list[list[int]], clause: list[int], step_number: int) -> None:
    target = sorted(clause)
    for index, present in enumerate(database):
        if sorted(present) == target:
            del database[index]
            return
    raise ProofError(f"step {step_number}: deleted clause {clause} not in database")


def _is_rup(database: Iterable[list[int]], clause: list[int]) -> bool:
    """Does asserting ``not clause`` propagate to a conflict over ``database``?"""
    assignment: dict[int, bool] = {}
    for literal in clause:
        negated_value = literal < 0  # literal false -> its variable = not sign
        variable = abs(literal)
        if assignment.get(variable, negated_value) != negated_value:
            return True  # the negation is self-contradictory: trivially RUP
        assignment[variable] = negated_value

    changed = True
    while changed:
        changed = False
        for present in database:
            unassigned: list[int] = []
            satisfied = False
            for literal in present:
                variable = abs(literal)
                if variable not in assignment:
                    # Deduplicate: [26, 26, -31] must still become unit
                    # once -31 is false (input clauses may repeat
                    # literals; the solver dedupes, the checker must too).
                    if literal not in unassigned:
                        unassigned.append(literal)
                elif assignment[variable] == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return True  # conflict reached
            if len(unassigned) == 1:
                unit = unassigned[0]
                assignment[abs(unit)] = unit > 0
                changed = True
    return False
