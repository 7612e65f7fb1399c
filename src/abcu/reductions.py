"""Hardness-style instance generators and their source-problem solvers.

Two classic covering problems are wired to committee queries so the
incomplete-profile machinery can be cross-validated end to end on
instances whose ground truth an independent exhaustive solver provides.
Exact cover by 3-sets maps to a two-candidate target under a two-step
weight table on totally ordered ballots; one-in-three positive
satisfiability maps to a coverage-style target on order-free ballots.
Both builders produce the profile, the target committee, the committee
size and the scoring rule as one bundle; the intended property, target
possible exactly when the source instance is solvable, is asserted in
tests rather than at construction time.

A small weight-translation helper rounds this out: when one weight table
is an offset slice of another (scaled by q), any possible-winner
question under the first transfers to a padded profile under the second
by handing every voter t fresh jointly approved candidates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import DivisibilityError, ProfileSyntaxError, TooLargeError
from .model import CandidateRegistry, PartialBallot, PartialProfile, make_partial_ballot
from .rules import (
    CC,
    Committee,
    ScoringFunction,
    WeightFunction,
    eval_weight,
)

SOLVER_LIMIT = 20


class X3CInstance:
    """Exact cover by 3-sets: can q disjoint triples cover all 3q elements?"""

    __slots__ = ("universe_size", "triples")

    def __init__(self, universe_size: int, triples: tuple[frozenset[int], ...]) -> None:
        if universe_size <= 0 or universe_size % 3:
            raise ValueError("universe size must be a positive multiple of 3")
        for triple in triples:
            if len(triple) != 3:
                raise ValueError("every set must have exactly three elements")
            if any(not 0 <= e < universe_size for e in triple):
                raise ValueError("set element out of range")
        self.universe_size = universe_size
        self.triples = triples

    @property
    def q(self) -> int:
        return self.universe_size // 3


class OneInThreeInstance:
    """Positive one-in-three satisfiability over three-element clauses."""

    __slots__ = ("num_elements", "clauses")

    def __init__(self, num_elements: int, clauses: tuple[frozenset[int], ...]) -> None:
        if num_elements < 0:
            raise ValueError("element count must be non-negative")
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError("every clause must have exactly three elements")
            if any(not 0 <= e < num_elements for e in clause):
                raise ValueError("clause element out of range")
        self.num_elements = num_elements
        self.clauses = clauses


class GadgetOutput:
    """A generated query: profile, target committee, size and rule."""

    __slots__ = ("profile", "target", "k", "rule", "rule_spec")

    def __init__(self, profile: PartialProfile, target: Committee, k: int,
                 rule: ScoringFunction, rule_spec: str) -> None:
        self.profile = profile
        self.target = target
        self.k = k
        self.rule = rule
        self.rule_spec = rule_spec


def solve_x3c_brute(instance: X3CInstance) -> bool:
    """Exhaustive exact-cover decision; refuses more than 20 sets."""
    if len(instance.triples) > SOLVER_LIMIT:
        raise TooLargeError(f"more than {SOLVER_LIMIT} sets")
    q = instance.q
    if len(instance.triples) < q:
        return False
    for combo in combinations(instance.triples, q):
        merged = frozenset().union(*combo)
        if len(merged) == instance.universe_size:
            return True
    return False


def solve_one_in_three_brute(instance: OneInThreeInstance) -> bool:
    """Exhaustive one-in-three decision; refuses more than 20 elements."""
    if instance.num_elements > SOLVER_LIMIT:
        raise TooLargeError(f"more than {SOLVER_LIMIT} elements")
    clause_masks = [sum(1 << e for e in clause) for clause in instance.clauses]
    for chosen in range(1 << instance.num_elements):
        if all((chosen & cmask).bit_count() == 1 for cmask in clause_masks):
            return True
    return False


def _ballot(registry: CandidateRegistry, top=(), middle=(), chain=()) -> PartialBallot:
    """Approve ``top``, leave ``middle`` open along ``chain``, reject the rest."""
    rest = registry.ids.difference(top, middle)
    return make_partial_ballot(top, middle, rest, registry, zip(chain, chain[1:]))


def build_cc_3va(instance: OneInThreeInstance) -> GadgetOutput:
    """Coverage query on order-free ballots from a one-in-three instance.

    Candidates are one per clause plus a pair w1, w2. Each element's
    voter pre-approves the clauses avoiding it, leaves {w1, w2} open and
    rejects the clauses containing it; six fixed voters (three for the
    clause block, two for w1, one for w2) calibrate the scores so that
    the pair {w1, w2} can come out on top exactly when some element
    selection hits every clause once.
    """
    n_clauses = len(instance.clauses)
    names = [f"S{i + 1}" for i in range(n_clauses)] + ["w1", "w2"]
    registry = CandidateRegistry(tuple(names))
    m = len(names)
    w1, w2 = m - 2, m - 1
    pair = {w1, w2}
    ballots = []
    for element in range(instance.num_elements):
        containing = {
            i for i, clause in enumerate(instance.clauses) if element in clause
        }
        avoiding = set(range(n_clauses)) - containing
        ballots.append(_ballot(registry, avoiding, pair))
    for top, count in ((range(n_clauses), 3), ({w1}, 2), ({w2}, 1)):
        ballots.extend(_ballot(registry, top) for _ in range(count))
    profile = PartialProfile(registry, tuple(ballots))
    return GadgetOutput(profile, frozenset(pair), 2, CC, "cc")


def build_linear_x3c(instance: X3CInstance, x: Fraction) -> GadgetOutput:
    """Two-step-weight query on ordered ballots from an exact-cover instance.

    Candidates are the universe plus c, d, z; the target is {c, d} under
    the weight table (0, 1, 1 + x). Each set's voter leaves its triple
    and c open, ordered triple first and c last, so approving c costs
    approving the whole triple. The filler blocks depend on where x sits:
    at or below 1 they need q even, above 1 they need q / x integral.
    """
    if x <= 0:
        raise ValueError("weight step x must be positive")
    q = instance.q
    size = instance.universe_size
    names = [f"u{e + 1}" for e in range(size)] + ["c", "d", "z"]
    registry = CandidateRegistry(tuple(names))
    c, d, z = size, size + 1, size + 2
    universe = set(range(size))
    ballots = []
    for triple in instance.triples:
        chain = sorted(triple) + [c]
        ballots.append(_ballot(registry, (), chain, chain))
    if x <= 1:
        if q % 2:
            raise DivisibilityError("this weight step needs an even q")
        count, blocks = q // 2, ({z}, {z} | universe, {d}, {d} | universe)
    else:
        count = Fraction(q) / x
        if count.denominator != 1:
            raise DivisibilityError("this weight step needs q divisible by x")
        blocks = ({z, d}, universe)
    for top in blocks:
        ballots.extend(_ballot(registry, top) for _ in range(int(count)))
    ballots.append(_ballot(registry, {c, d, z}))
    profile = PartialProfile(registry, tuple(ballots))
    table = (Fraction(0), Fraction(1), 1 + x)
    rule = ScoringFunction.thiele(WeightFunction.table(table))
    spec = "table:" + ",".join(str(v) for v in table)
    return GadgetOutput(profile, frozenset({c, d}), 2, rule, spec)


def verify_weight_relation(
    w_small: WeightFunction,
    w_large: WeightFunction,
    q: Fraction,
    t: int,
    k: int,
) -> bool:
    """Whether w_small(x) = q * (w_large(x + t) - w_large(t)) up to x = k."""
    if t < 0 or k < 0:
        raise ValueError("offsets must be non-negative")
    offset = eval_weight(w_large, t)
    return all(
        eval_weight(w_small, i) == q * (eval_weight(w_large, i + t) - offset)
        for i in range(k + 1)
    )


def pad_profile(profile: PartialProfile, t: int) -> PartialProfile:
    """Append t fresh candidates, approved outright by every voter.

    Under a weight relation verified by verify_weight_relation, a
    possible-winner question for the small weight transfers to the
    padded profile, the target extended by the pad, under the large one.
    """
    if t < 0:
        raise ValueError("pad size must be non-negative")
    existing = set(profile.registry.names)
    fresh = []
    i = 1
    while len(fresh) < t:
        name = f"pad{i}"
        while name in existing:
            name += "_"
        fresh.append(name)
        existing.add(name)
        i += 1
    registry = CandidateRegistry(profile.registry.names + tuple(fresh))
    pad_ids = frozenset(range(profile.m, profile.m + t))
    ballots = tuple(
        PartialBallot(b.top | pad_ids, b.middle, b.bottom, b.precedence)
        for b in profile.ballots
    )
    return PartialProfile(registry, ballots)


def _parse_triples(text: str, kind: str) -> tuple[int, list[frozenset[int]]]:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise ProfileSyntaxError(f"empty {kind} instance")
    try:
        size = int(lines[0])
    except ValueError:
        raise ProfileSyntaxError(
            f"first line of a {kind} instance must be the element count"
        ) from None
    triples = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ProfileSyntaxError(f"expected three elements per line: {line!r}")
        try:
            elements = [int(p) for p in parts]
        except ValueError:
            raise ProfileSyntaxError(f"non-integer element in line {line!r}") from None
        if any(not 1 <= e <= size for e in elements):
            raise ProfileSyntaxError(f"element out of range 1..{size}: {line!r}")
        triple = frozenset(e - 1 for e in elements)
        if len(triple) != 3:
            raise ProfileSyntaxError(f"repeated element in line {line!r}")
        triples.append(triple)
    return size, triples


def parse_x3c(text: str) -> X3CInstance:
    """Read an exact-cover instance: element count, then one triple per line.

    Elements are numbered 1..N in the file and stored zero-based. Blank
    lines and lines starting with # are skipped.
    """
    size, triples = _parse_triples(text, "cover")
    try:
        return X3CInstance(size, tuple(triples))
    except ValueError as exc:
        raise ProfileSyntaxError(str(exc)) from None


def parse_one_in_three(text: str) -> OneInThreeInstance:
    """Read a one-in-three instance: element count, then one clause per line."""
    size, triples = _parse_triples(text, "clause")
    try:
        return OneInThreeInstance(size, tuple(triples))
    except ValueError as exc:
        raise ProfileSyntaxError(str(exc)) from None
