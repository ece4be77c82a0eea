"""A DRUP proof checker (reverse unit propagation) over watched literals.

A clause C is a *RUP consequence* of a clause set F when asserting the
negation of C and running unit propagation over F derives a conflict.
Every clause a CDCL solver learns has this property, as do the
strengthened clauses produced by level-0 literal stripping (the paper's
database compaction), so the solver's whole trace is checkable.

The checker runs forward, like the solver that wrote the trace, and
keeps the solver's own data structures (the two-watched-literal scheme
DRAT-trim uses):

* every clause of the database is watched on two of its literals
  (deduplicated first, so ``[26, 26, -31]`` is the binary ``[26, -31]``);
  unit clauses sit in a side table and the empty clause in a counter;
* a persistent level-0 trail holds what unit propagation derives from
  the database alone.  It grows as clauses are added, and is rebuilt
  from the unit clauses only when a deleted clause was the reason for
  one of its literals, or after a level-0 conflict;
* checking a lemma assigns its negation on top of that trail,
  propagates, and undoes back to the trail;
* deletions find their clause by its sorted literal tuple in a dict.

The contract is that of a plain fixpoint checker: every ``"a"`` step is
checked against the database as it stands, a ``"d"`` step must name a
present clause as a sorted multiset, the empty clause is required unless
``require_empty_clause=False``, and an unknown action fails.  Every
lemma is checked, so a bad lemma is rejected even when the refutation
does not need it.  On a 2-CPU x86-64 host (CPython 3.11) the check of
``pigeonhole_formula(6)`` costs 0.8x its solve and that of
``pigeonhole_formula(7)`` 0.9-1.0x; the fixpoint checker this one
replaced cost 6-7x and 13-19x.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.cnf.formula import CnfFormula


class ProofError(ValueError):
    """Raised when a proof step fails verification."""


def check_rup_proof(
    formula: CnfFormula,
    proof: Sequence[tuple[str, list[int]]],
    *,
    require_empty_clause: bool = True,
) -> bool:
    """Verify a DRUP trace against ``formula``.

    ``proof`` entries are ``("a", clause)`` additions or ``("d", clause)``
    deletions in DIMACS literals, in solver order.  Every addition must
    be RUP with respect to the clauses currently in the database;
    deletions must name present clauses.  Returns True on success and
    raises :class:`ProofError` otherwise.
    """
    lemma_literals = chain.from_iterable(clause for kind, clause in proof if kind == "a")
    database = _WatchedDatabase(
        max(formula.num_variables, max(map(abs, lemma_literals), default=0))
    )
    for clause in formula.clauses:
        database.add(clause)
    empty_seen = database.empty > 0

    for step_number, (kind, clause) in enumerate(proof):
        if kind == "a":
            if not database.is_rup(clause):
                raise ProofError(
                    f"step {step_number}: clause {clause} is not a RUP consequence"
                )
            database.add(clause)
            if not clause:
                empty_seen = True
        elif kind == "d":
            if not database.delete(clause):
                raise ProofError(
                    f"step {step_number}: deleted clause {clause} not in database"
                )
        else:
            raise ProofError(f"step {step_number}: unknown proof action {kind!r}")

    if require_empty_clause and not empty_seen:
        raise ProofError("proof does not derive the empty clause")
    return True


class _WatchedDatabase:
    """A clause multiset with two watched literals and a level-0 trail.

    Arrays are indexed by DIMACS literal directly: with ``2n + 1`` slots,
    ``-v`` lands on slot ``2n + 1 - v``, clear of every positive literal.
    Each distinct literal set is stored once, as a list whose first two
    entries are its watches, with a count of the copies present.
    """

    def __init__(self, num_variables: int) -> None:
        size = 2 * num_variables + 1
        self.value = [0] * size  # +1 true, -1 false, 0 unassigned
        self.reason: list[list[int] | None] = [None] * size
        self.watches: list[list[list[int]]] = [[] for _ in range(size)]
        self.trail: list[int] = []  # level-0 literals, fully propagated
        self.units: dict[int, list[int]] = {}  # literal -> its unit clause
        self.present: dict[tuple[int, ...], int] = {}  # sorted literals -> copies
        self.clauses: dict[tuple[int, ...], list] = {}  # literal set -> [clause, copies]
        self.empty = 0  # copies of the empty clause present
        self.conflict = False  # level-0 propagation ran into a conflict

    def add(self, literals: Sequence[int]) -> None:
        key = tuple(sorted(literals))
        self.present[key] = self.present.get(key, 0) + 1
        if not key:
            self.empty += 1
            return
        distinct = tuple(dict.fromkeys(key))
        entry = self.clauses.get(distinct)
        if entry is not None:
            entry[1] += 1
            return
        clause = list(dict.fromkeys(literals))
        self.clauses[distinct] = [clause, 1]
        self._attach(clause)

    def delete(self, literals: Sequence[int]) -> bool:
        """Remove one copy of ``literals``; False when none is present."""
        key = tuple(sorted(literals))
        copies = self.present.get(key, 0)
        if not copies:
            return False
        if copies == 1:
            del self.present[key]
        else:
            self.present[key] = copies - 1
        if not key:
            self.empty -= 1
            return True
        distinct = tuple(dict.fromkeys(key))
        entry = self.clauses[distinct]
        entry[1] -= 1
        if not entry[1]:
            del self.clauses[distinct]
            self._detach(entry[0])
        return True

    def is_rup(self, lemma: Sequence[int]) -> bool:
        """Does asserting ``not lemma`` propagate to a conflict?"""
        if self.conflict or self.empty:
            return True
        value = self.value
        trail = self.trail
        mark = len(trail)
        for literal in lemma:
            state = value[literal]
            if state == 1:
                # True at level 0, or its negation is already assumed
                # (a tautological lemma): asserting it conflicts.
                found = True
                break
            if not state:
                value[literal] = -1
                value[-literal] = 1
                trail.append(-literal)
        else:
            found = not self._propagate(mark)
        for literal in trail[mark:]:
            value[literal] = value[-literal] = 0
        del trail[mark:]
        return found

    def _attach(self, clause: list[int]) -> None:
        value = self.value
        if len(clause) == 1:
            self.units[clause[0]] = clause
        else:
            if not self.conflict:
                # Move up to two non-false literals to the watched front.
                front = 0
                for index, literal in enumerate(clause):
                    if value[literal] != -1:
                        clause[index] = clause[front]
                        clause[front] = literal
                        front += 1
                        if front == 2:
                            break
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        if self.conflict or (len(clause) > 1 and value[clause[1]] != -1):
            return  # two non-false watches: nothing follows at level 0
        literal = clause[0]
        state = value[literal]
        if state == -1:
            self.conflict = True
        elif not state:
            self._assign(literal, clause)
            self.conflict = not self._propagate(len(self.trail) - 1)
        elif len(clause) == 1:
            # A unit clause is a reason that rests on nothing: deleting
            # the clause that first derived the literal costs no rebuild.
            self.reason[literal] = clause

    def _detach(self, clause: list[int]) -> None:
        head = clause[0]
        if len(clause) == 1:
            del self.units[head]
        else:
            # Each literal set is stored once, so no other watched list
            # compares equal to this one.
            self.watches[head].remove(clause)
            self.watches[clause[1]].remove(clause)
        # A reason keeps the literal it implied at position 0.
        if self.conflict or (self.value[head] == 1 and self.reason[head] is clause):
            self._rebuild()

    def _assign(self, literal: int, reason: list[int]) -> None:
        self.value[literal] = 1
        self.value[-literal] = -1
        self.reason[literal] = reason
        self.trail.append(literal)

    def _rebuild(self) -> None:
        """Re-derive the level-0 trail from the unit clauses.

        With every literal unassigned, any two literals of a clause are
        valid watches, so the watch lists are kept as they are.
        """
        value = self.value
        for literal in self.trail:
            value[literal] = value[-literal] = 0
        self.trail.clear()
        self.conflict = False
        for literal, clause in self.units.items():
            state = value[literal]
            if state == -1:
                self.conflict = True
                return
            if not state:
                self._assign(literal, clause)
        self.conflict = not self._propagate(0)

    def _propagate(self, head: int) -> bool:
        """Propagate the trail from ``head``; False on a conflict."""
        value = self.value
        reason = self.reason
        watches = self.watches
        trail = self.trail
        while head < len(trail):
            false_literal = -trail[head]
            head += 1
            watchers = watches[false_literal]
            kept = 0
            index = 0
            end = len(watchers)
            while index < end:
                clause = watchers[index]
                index += 1
                other = clause[0]
                if other == false_literal:
                    other = clause[1]
                    if value[other] == 1:
                        watchers[kept] = clause
                        kept += 1
                        continue
                    clause[0] = other
                    clause[1] = false_literal
                elif value[other] == 1:
                    watchers[kept] = clause
                    kept += 1
                    continue
                position = 2
                size = len(clause)
                while position < size:
                    literal = clause[position]
                    if value[literal] != -1:
                        clause[1] = literal
                        clause[position] = false_literal
                        watches[literal].append(clause)
                        break
                    position += 1
                else:
                    watchers[kept] = clause
                    kept += 1
                    if value[other] == -1:
                        del watchers[kept:index]
                        return False
                    value[other] = 1
                    value[-other] = -1
                    reason[other] = clause
                    trail.append(other)
            del watchers[kept:]
        return True
