"""The benchmark's own answer check, independent of ``repro.reliability``.

A SAT answer must come with a model that satisfies every clause the
program was given; an UNSAT answer must match the suite's ground truth.
Anything else definite is a wrong answer, which ends the run before any
metric is printed.  UNKNOWN (a budget ran out) and explicit refusals are
not wrong: they count as failed attempts.
"""

from __future__ import annotations


class WrongAnswer(Exception):
    """The program returned a definite answer that is false."""


def satisfies(clauses, true_literals: set) -> bool:
    """True iff every clause has a literal in ``true_literals``.

    A variable the model leaves out counts as false, which is how
    :meth:`SolveResult.model` is read everywhere in the program.
    """
    return all(
        any(lit in true_literals or (lit < 0 and -lit not in true_literals) for lit in clause)
        for clause in clauses
    )


def model_literals(model) -> set:
    """The true literals of a ``{var: bool}`` model or a literal list."""
    if isinstance(model, dict):
        return {var if value else -var for var, value in model.items()}
    return set(model)


def check_answer(label: str, expected: str, clauses, status: str, model) -> bool:
    """Check one answer; return True if definite and correct, False if UNKNOWN.

    ``expected`` and ``status`` are status names ("SAT", "UNSAT",
    "UNKNOWN").  Raises :class:`WrongAnswer` on a wrong verdict or a bad
    model.
    """
    if status == "UNKNOWN":
        return False
    if status != expected:
        raise WrongAnswer(f"{label}: answered {status}, expected {expected}")
    if status == "SAT":
        if model is None:
            raise WrongAnswer(f"{label}: SAT answer without a model")
        truth = model_literals(model)
        if not satisfies(clauses, truth):
            raise WrongAnswer(f"{label}: model does not satisfy the formula")
    return True
