"""Seeded inputs for every workload.

Everything a run feeds the program is a pure function of ``--seed``
and the run length: the order of each pass, and which serve requests
are repeated.  Every pass of an in-process workload solves the same
formulas, so timing decides only how many passes fit in a run, never the
mix they time; serve round ``k`` sends the same copies for every seed,
and a serve run makes a fixed number of rounds.

The formulas themselves are fixed shuffled copies: copy ``k`` of an
instance is ``shuffle_formula(instance, derive_seed("copy", label, k))``
for every seed.  Shuffling changes BerkMin's solve time several-fold, so
with per-seed copies a run measured mostly which copies it drew: at
15 s runs the medians moved by 20-30% between seeds, and the total
solve work of a serve run by 40%.  With fixed copies two runs differ
only in order and timing, so a change in the program shows.

The instance lists below were fixed from probes on a 2-CPU host at the
commit that defined the benchmark (``perfbench/README.md`` lists the
numbers).  Instances that do not fit a run are named as out of budget
instead of being dropped silently.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro import CnfFormula, SolveStatus, shuffle_formula
from repro.experiments.suites import paper_suite

#: paper-mix: default-suite instances whose single solve takes over 0.5 s
#: (pipe_w6s3 4.5 s; together these take 3x the other 25 combined), left
#: out so that one pass of 200 answers fits in a 25 s run.
MIX_OUT_OF_BUDGET = (
    "hanoi4", "hanoi4_T14", "hole7", "miter_20x400", "pipe_w4s3", "pipe_w5s3", "pipe_w6s3",
)

#: verified-unsat: UNSAT instances whose verified solve takes over 0.6 s
#: (the DRUP check is most of it: hole7 11.5 s, hanoi4_T14 51 s).  With
#: the 1-2 s ones kept, a pass held only 28 answers, and its p50 fell in
#: the gap between two instances' times and moved by 30% between seeds;
#: nine smaller instances in ten copies give 90 answers in the same time.
UNSAT_OUT_OF_BUDGET = (
    "hanoi4_T14", "hole7", "miter_18x250", "miter_20x400",
    "pipe_w4s3", "pipe_w5s3", "pipe_w6s3",
    "hole6", "par_unsat_s2", "pipe_w4s2", "adder_miter10", "quick/miter_14x120",
)

#: portfolio-race: default-suite instances whose winning lane took
#: 0.05-0.5 s in a 2-lane race.  Those at 0.5-1.5 s (hanoi4, hanoi4_T14,
#: miter_18x250, pipe_w5s3) are out of budget: with them a run held only
#: 18 races and its median moved by 30% between seeds.
PORTFOLIO_INSTANCES = ("adder_miter10", "hole7", "par_sat_s1", "pipe_w4s2", "pipe_w4s3")

#: serve-closed: quick-suite instances that take over 100 ms to solve; the
#: rest of the quick suite and the default suite's sub-100 ms instances
#: make the request mix.  One 0.4 s solve among 20 ms ones sets the
#: queueing tail alone and made the latency figures unsteady; for the
#: same reason pipe_w6s3_f21 (18 ms, but 0.26 s mean and 0.7 s max over
#: its shuffled copies) is not in the default-suite list below.
SERVE_OUT_OF_BUDGET = ("pipe_w4s2", "pipe_w4s3")
SERVE_DEFAULT_INSTANCES = (
    "2bitadd_10", "2bitadd_12", "adder_miter10", "bw5_a", "bw5_b",
    "bw5_c_unsat", "hanoi3", "hole5", "hole6", "miter_16x200_f",
    "par_sat_s1", "par_sat_s3", "par_unsat_s2", "pipe_w3s1", "pipe_w3s2",
    "pipe_w4s1", "pipe_w4s2_f7", "pipe_w4s3_f8", "pipe_w5s2_f9",
    "pipe_w5s3_f10",
)

#: Instances used by ``--tiny`` runs (the benchmark's own tests).
TINY_INSTANCES = ("hole4", "hole5", "bw5_b", "par_sat_s3", "pipe_w3s1", "2bitadd_10")

#: Share of serve requests that repeat an earlier request with its
#: clauses and literals reordered: same canonical fingerprint, so the
#: service's AnswerCache can answer them.
REPEAT_SHARE = 0.25


@dataclass(frozen=True)
class Instance:
    """A suite instance or a shuffled copy: label, formula, ground truth, budget."""

    label: str
    formula: CnfFormula
    expected: SolveStatus
    max_conflicts: int


@dataclass(frozen=True)
class Request:
    """One serve request: the instance it asks about and the clauses sent."""

    item: Instance
    clauses: list
    repeat: bool


def derive_seed(*parts) -> int:
    """A stable 63-bit seed from ``parts`` (independent of ``PYTHONHASHSEED``)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _suite(scale: str) -> list[Instance]:
    prefix = "" if scale == "default" else "quick/"
    return [
        Instance(prefix + inst.name, inst.formula(), inst.expected, inst.max_conflicts)
        for cls in paper_suite(scale)
        for inst in cls.instances
    ]


def _both_scales() -> list[Instance]:
    """Default and quick suites, quick copies of identical formulas removed."""
    default = _suite("default")
    by_name = {inst.label: inst for inst in default}
    extra = []
    for inst in _suite("quick"):
        twin = by_name.get(inst.label.removeprefix("quick/"))
        if twin is None or twin.formula.clauses != inst.formula.clauses:
            extra.append(inst)
    return default + extra


def _tiny(instances: list[Instance]) -> list[Instance]:
    return [i for i in instances if i.label.removeprefix("quick/") in TINY_INSTANCES]


def paper_mix_instances(tiny: bool = False) -> list[Instance]:
    suite = _suite("default")
    if tiny:
        return _tiny(suite)
    return [i for i in suite if i.label not in MIX_OUT_OF_BUDGET]


def verified_unsat_instances(tiny: bool = False) -> list[Instance]:
    unsat = [i for i in _both_scales() if i.expected is SolveStatus.UNSAT]
    if tiny:
        return _tiny(unsat)
    return [i for i in unsat if i.label not in UNSAT_OUT_OF_BUDGET]


def portfolio_instances(tiny: bool = False) -> list[Instance]:
    suite = _suite("default")
    if tiny:
        return _tiny(suite)
    return [i for i in suite if i.label in PORTFOLIO_INSTANCES]


def serve_instances(tiny: bool = False) -> list[Instance]:
    quick = [i for i in _suite("quick") if i.label[len("quick/"):] not in SERVE_OUT_OF_BUDGET]
    default = [i for i in _suite("default") if i.label in SERVE_DEFAULT_INSTANCES]
    if tiny:
        return _tiny(quick + default)
    return quick + default


def copy_of(instance: Instance, copy: int) -> Instance:
    """Shuffled copy number ``copy`` of ``instance`` (the same for every seed)."""
    formula = shuffle_formula(instance.formula, derive_seed("copy", instance.label, copy))
    return Instance(instance.label, formula, instance.expected, instance.max_conflicts)


def closed_loop_items(instances: list[Instance], copies: int) -> list[Instance]:
    """What one closed-loop pass solves: copies ``0..copies-1`` of every instance."""
    return [copy_of(inst, copy) for copy in range(copies) for inst in instances]


def pass_order(items: list[Instance], seed: int, pass_index: int) -> list[Instance]:
    """Pass ``pass_index`` of a closed loop: every item once, in a seeded order."""
    return random.Random(derive_seed(seed, "order", pass_index)).sample(items, len(items))


def reorder(clauses: list, seed: int) -> list:
    """The same clause set with clause and literal order permuted."""
    rng = random.Random(seed)
    out = [rng.sample(clause, len(clause)) for clause in clauses]
    rng.shuffle(out)
    return out


def serve_round(instances: list[Instance], seed: int, round_index: int) -> list[Request]:
    """Round ``round_index`` of the serve loop: fresh requests and repeats.

    Copy ``round_index`` of every instance, in a seeded order, plus
    repeats that make up ``REPEAT_SHARE`` of the round.  Each repeat asks
    again, with clauses and literals reordered, about a fresh request
    sent earlier in the same round, so the AnswerCache already holds it.
    """
    rng = random.Random(derive_seed(seed, "round", round_index))
    fresh = [
        Request(item, [list(c) for c in item.formula.clauses], False)
        for item in (copy_of(inst, round_index) for inst in rng.sample(instances, len(instances)))
    ]
    slots = [(float(position), request) for position, request in enumerate(fresh)]
    for index in range(round(len(fresh) * REPEAT_SHARE / (1.0 - REPEAT_SHARE))):
        base = rng.randrange(len(fresh))
        clauses = reorder(fresh[base].clauses, derive_seed(seed, "repeat", round_index, index))
        slots.append((rng.uniform(base + 0.5, len(fresh)), Request(fresh[base].item, clauses, True)))
    slots.sort(key=lambda slot: slot[0])
    return [request for _, request in slots]
