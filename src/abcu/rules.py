"""Committee scoring rules and winner determination.

A weight function w maps the number of committee members a voter
approves to a score contribution; the committee's score is the sum over
voters. w(x) = x gives utilitarian approval voting, the harmonic weights
give proportional approval voting, and a 0/1 step at threshold t gives
the t-of-k family (t = 1 is coverage). Beyond weight-based rules, a
scoring rule may read the ballot size too: f(|A and S|, |A|), kept
non-decreasing in the first argument. Satisfaction approval (share of an
approved ballot inside the committee) is the common example.

Scores are exact rationals; nothing here rounds or normalizes. Scans
compare them as integers, every entry multiplied by one denominator
fixed by the rule, the committee size and the candidate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from operator import add
from typing import Iterable, Iterator, Mapping

from .errors import BadKError, BadThresholdError, CandidateInCommitteeError, TableOutOfRangeError
from .model import (
    ApprovalBallot,
    ApprovalProfile,
    PartialProfile,
    check_candidate,
    check_members,
    enumerate_completions,
    mask_of,
    members_of,
)

Committee = frozenset[int]


@dataclass(frozen=True)
class WeightFunction:
    """One weight function, tagged by kind for algorithm dispatch.

    Kinds: "av" (w(x) = x), "pav" (harmonic), "binary" (0 below
    ``threshold``, 1 at or above it), "table" (explicit values, index =
    x). Dispatchers read the tag, not the numbers, so a table that
    happens to equal av does not unlock av-only routes.
    """

    kind: str
    threshold: int = 0
    values: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("av", "pav", "binary", "table"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "binary" and self.threshold < 1:
            raise ValueError("binary threshold must be a positive integer")
        if self.kind == "table":
            if not self.values or self.values[0] != 0:
                raise ValueError("weight table must start at w(0) = 0")
            if any(a > b for a, b in zip(self.values, self.values[1:])):
                raise ValueError("weight table must be non-decreasing")

    @staticmethod
    def av() -> "WeightFunction":
        return WeightFunction("av")

    @staticmethod
    def pav() -> "WeightFunction":
        return WeightFunction("pav")

    @staticmethod
    def cc() -> "WeightFunction":
        return WeightFunction("binary", threshold=1)

    @staticmethod
    def binary(t: int) -> "WeightFunction":
        return WeightFunction("binary", threshold=t)

    @staticmethod
    def table(values) -> "WeightFunction":
        return WeightFunction("table", values=tuple(Fraction(v) for v in values))


_PAV_CACHE: list[Fraction] = [Fraction(0)]


def eval_weight(w: WeightFunction, x: int) -> Fraction:
    """w(x) as an exact rational; tables raise past their last index."""
    if x < 0:
        raise ValueError("weight argument must be non-negative")
    if w.kind == "av":
        return Fraction(x)
    if w.kind == "pav":
        while len(_PAV_CACHE) <= x:
            _PAV_CACHE.append(_PAV_CACHE[-1] + Fraction(1, len(_PAV_CACHE)))
        return _PAV_CACHE[x]
    if w.kind == "binary":
        return Fraction(1) if x >= w.threshold else Fraction(0)
    if x >= len(w.values):
        raise TableOutOfRangeError(f"weight table has no entry for x = {x}")
    return w.values[x]


@dataclass(frozen=True)
class ScoringFunction:
    """A committee scoring rule.

    Kinds: "thiele" (weight of the overlap, ballot size ignored), "sav"
    (overlap divided by ballot size, 0 on the empty ballot), "table2d"
    (explicit f(overlap, ballot size) entries).
    """

    kind: str
    weight: WeightFunction | None = None
    entries: Mapping[tuple[int, int], Fraction] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("thiele", "sav", "table2d"):
            raise ValueError(f"unknown scoring kind {self.kind!r}")
        if self.kind == "thiele" and self.weight is None:
            raise ValueError("thiele scoring needs a weight function")
        if self.kind == "table2d":
            if self.entries is None:
                raise ValueError("table2d scoring needs entries")
            by_size: dict[int, list[tuple[int, Fraction]]] = {}
            for (x, y), v in self.entries.items():
                by_size.setdefault(y, []).append((x, v))
            for pairs in by_size.values():
                pairs.sort()
                if any(a[1] > b[1] for a, b in zip(pairs, pairs[1:])):
                    raise ValueError("scores must be non-decreasing in the overlap")

    @staticmethod
    def thiele(w: WeightFunction) -> "ScoringFunction":
        return ScoringFunction("thiele", weight=w)

    @staticmethod
    def sav() -> "ScoringFunction":
        return ScoringFunction("sav")

    @staticmethod
    def table2d(entries: Mapping[tuple[int, int], Fraction]) -> "ScoringFunction":
        return ScoringFunction("table2d", entries=dict(entries))

    @property
    def is_thiele(self) -> bool:
        return self.kind == "thiele"

    @property
    def binary_threshold(self) -> int | None:
        """t when the rule is a 0/1 step rule, else None."""
        if self.kind == "thiele" and self.weight.kind == "binary":
            return self.weight.threshold
        return None

    @property
    def is_av(self) -> bool:
        return self.kind == "thiele" and self.weight.kind == "av"

    @property
    def label(self) -> str:
        """Short human-readable name used in diagnostics."""
        if self.kind != "thiele":
            return self.kind
        w = self.weight
        if w.kind == "binary":
            return "coverage" if w.threshold == 1 else f"binary({w.threshold})"
        return w.kind


AV = ScoringFunction.thiele(WeightFunction.av())
PAV = ScoringFunction.thiele(WeightFunction.pav())
CC = ScoringFunction.thiele(WeightFunction.cc())
SAV = ScoringFunction.sav()


def binary_rule(t: int) -> ScoringFunction:
    return ScoringFunction.thiele(WeightFunction.binary(t))


def _entry(f: ScoringFunction, overlap: int, size: int) -> Fraction:
    """f(overlap, ballot size), exact; tables raise past their entries."""
    if f.kind == "thiele":
        return eval_weight(f.weight, overlap)
    if f.kind == "sav":
        return Fraction(overlap, size) if size else Fraction(0)
    value = f.entries.get((overlap, size))
    if value is None:
        raise TableOutOfRangeError(
            f"no score entry for overlap {overlap}, ballot size {size}"
        )
    return value


def ballot_score(f: ScoringFunction, ballot: ApprovalBallot, committee: Committee) -> Fraction:
    """One voter's contribution to the committee's score."""
    return _entry(f, len(ballot.approved & committee), len(ballot.approved))


def profile_score(f: ScoringFunction, profile: ApprovalProfile, committee: Committee) -> Fraction:
    check_members(committee, profile.m)
    return sum((ballot_score(f, b, committee) for b in profile.ballots), Fraction(0))


def _scale(f: ScoringFunction, k: int, m: int) -> int:
    """A common denominator of every entry a size-k scan over m can read.

    It depends on the rule, k and m only, never on the ballots present,
    so every scan under the same rule and size compares the same integers.
    """
    if f.kind == "sav":
        return math.lcm(*range(1, m + 1))
    if f.kind == "table2d":
        values = f.entries.values()
    elif f.weight.kind == "table":
        values = f.weight.values
    else:
        values = [eval_weight(f.weight, x) for x in range(k + 1)]
    return math.lcm(*(Fraction(v).denominator for v in values))


class Scorer(dict):
    """Integer committee scores for one rule and committee size.

    The mapping itself is the table of scaled entries, keyed by (overlap,
    ballot size) and filled on first use; a Thiele entry ignores the
    size, so every size copies the size-0 entry of its overlap, computed
    once. Every entry is multiplied by the same ``scale`` = _scale(f, k,
    m), so integer scores compare as the exact ones do, and
    Fraction(entry, scale) is the exact value. Committees are passed as
    bitmasks of at most k members.

    A score is read in one of two ways. The grouped scan reads one entry
    per distinct approval set: ballots are grouped as [mask, size,
    multiplicity], the mask read from the ballot. The co-approval table
    takes, for each ballot size s, the Möbius coefficients mu_s(t) = sum
    over j <= t of (-1)^(t-j) C(t, j) entry(j, s), so that entry(x, s) =
    sum over t <= x of C(x, t) mu_s(t), and folds each group into w[T] +=
    n mu_s(|T|) for every T inside its approval set A with |T| <= d_s,
    the last t <= min(k, s) with mu_s(t) != 0. Then score(W) = sum of
    w[T] over the subsets T of W: k reads per committee when every
    d_s <= 1 (AV, SAV), 2^k otherwise.

    A caller that will score ``committees`` committees passes that count.
    The table is built only when its build (one step per subset folded)
    plus ``committees`` times the reads costs less than ``committees``
    times the groups, and only when every entry it reads exists; a table
    rule that lacks an entry keeps the grouped scan, so a missing entry
    raises exactly when a scan reaches it.
    """

    def __init__(
        self,
        f: ScoringFunction,
        k: int,
        m: int,
        ballots: Iterable[ApprovalBallot] = (),
        committees: int = 0,
    ) -> None:
        super().__init__()
        self._f = f
        self._scale = _scale(f, k, m)
        groups: dict[frozenset[int], list[int]] = {}
        for b in ballots:
            group = groups.get(b.approved)
            if group is None:
                groups[b.approved] = [b.mask, len(b.approved), 1]
            else:
                group[2] += 1
        self._groups = list(groups.values())
        self._weights: dict[int, int] | None = None
        self._additive = False
        if committees and len(groups) > k:
            try:
                self._fold(groups, k, committees)
            except TableOutOfRangeError:
                pass

    @property
    def scale(self) -> int:
        return self._scale

    def __missing__(self, key: tuple[int, int]) -> int:
        overlap, size = key
        if size and self._f.is_thiele:
            value = self[overlap, 0]
        else:
            value = int(_entry(self._f, overlap, size) * self._scale)
        self[key] = value
        return value

    def _mobius(self, size: int, k: int) -> list[int]:
        """mu_size(0..d): the Möbius coefficients up to the last nonzero one."""
        entries = [self[j, size] for j in range(min(k, size) + 1)]
        mu = [
            sum((-1) ** (t - j) * math.comb(t, j) * entries[j] for j in range(t + 1))
            for t in range(len(entries))
        ]
        while len(mu) > 1 and not mu[-1]:
            mu.pop()
        return mu

    def _fold(self, groups: dict[frozenset[int], list[int]], k: int, committees: int) -> None:
        """Build the co-approval table when it beats the grouped scan."""
        mobius = {s: self._mobius(s, k) for s in {len(a) for a in groups}}
        additive = all(len(mu) <= 2 for mu in mobius.values())
        reads = k if additive else 1 << k
        build = sum(
            math.comb(len(a), t)
            for a in groups
            for t, coeff in enumerate(mobius[len(a)]) if coeff
        )
        if build + committees * reads >= committees * len(groups):
            return
        weights = {0: 0}
        for a, (_, _, n) in groups.items():
            bits = [1 << c for c in a]
            for t, coeff in enumerate(mobius[len(a)]):
                if coeff:
                    for subset in combinations(bits, t):
                        key = sum(subset)
                        weights[key] = weights.get(key, 0) + n * coeff
        self._weights, self._additive = weights, additive

    def score(self, mask: int) -> int:
        weights = self._weights
        if weights is None:
            return sum(
                n * self[(a & mask).bit_count(), size] for a, size, n in self._groups
            )
        total = weights[0]
        get = weights.get
        if self._additive:
            while mask:
                low = mask & -mask
                total += get(low, 0)
                mask ^= low
            return total
        sub = mask
        while sub:
            total += get(sub, 0)
            sub = (sub - 1) & mask
        return total

    def row(self, ballot: ApprovalBallot, masks: list[int]) -> list[int]:
        """One ballot's scaled score against each committee mask."""
        a, size = ballot.mask, len(ballot.approved)
        return [self[(a & mask).bit_count(), size] for mask in masks]


def committee_masks(m: int, k: int) -> Iterator[int]:
    """Every size-k bitmask below 1 << m, ascending, by Gosper's hack.

    This is the one committee iterator: every committee scan walks these
    masks, in the tie-break order, and builds a frozenset only for a
    committee it hands on.
    """
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    limit = 1 << m
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) // low) >> 2)


def committees_by_mask(m: int, k: int) -> Iterator[Committee]:
    """All size-k subsets of range(m), ascending by candidate-id bitmask:
    committee_masks as frozensets."""
    return map(members_of, committee_masks(m, k))


def check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise BadKError(f"k = {k} out of range for {m} candidates")


def check_committee_size(committee: Committee, k: int, m: int) -> None:
    check_k(k, m)
    if len(committee) != k:
        raise BadKError(f"committee has {len(committee)} members, expected {k}")
    check_members(committee, m)


def check_threshold(t: int | None, k: int) -> None:
    """Reject a step-rule threshold t above the committee size k.

    Such a rule scores every committee 0. Dispatchers reject it at their
    boundary, not per route: answering on one route while erroring on
    another would break the auto/brute agreement contract.
    """
    if t is not None and t > k:
        raise BadThresholdError(f"threshold {t} exceeds committee size {k}")


def _winners(masks: list[int], scores: list[int]) -> tuple[int, list[int]]:
    """The best score and the masks reaching it, in the masks' order."""
    best = max(scores)
    return best, list(compress(masks, map(best.__eq__, scores)))


def best_committees(
    f: ScoringFunction, profile: ApprovalProfile, k: int
) -> tuple[Fraction, list[Committee]]:
    """The maximum score of a size-k committee, exact, with every
    committee reaching it, ascending by bitmask; by exhaustive scan.

    The scan keeps only the running best and its ties, so its memory
    grows with the number of winners, not with C(m, k).
    """
    check_k(k, profile.m)
    scorer = Scorer(f, k, profile.m, profile.ballots, math.comb(profile.m, k))
    score_of = scorer.score
    masks = committee_masks(profile.m, k)
    first = next(masks)
    best, winners = score_of(first), [first]
    for mask in masks:
        score = score_of(mask)
        if score > best:
            best, winners = score, [mask]
        elif score == best:
            winners.append(mask)
    return Fraction(best, scorer.scale), [members_of(mask) for mask in winners]


def winning_committees(
    f: ScoringFunction, profile: ApprovalProfile, k: int
) -> set[Committee]:
    """All maximum-score committees of size k, by exhaustive scan."""
    return set(best_committees(f, profile, k)[1])


def is_winning_committee(
    f: ScoringFunction, profile: ApprovalProfile, committee: Committee
) -> bool:
    """Whether no same-size committee scores strictly higher.

    Under AV a committee scores the sum of its members' approval counts,
    so W wins exactly when its total reaches the leader's.
    """
    k = len(committee)
    check_members(committee, profile.m)
    if f.is_av:
        counts = approval_counts(profile)
        return sum(counts[c] for c in committee) == av_leader(counts, k)[0]
    scorer = Scorer(f, k, profile.m, profile.ballots, math.comb(profile.m, k))
    own = scorer.score(mask_of(committee))
    return all(scorer.score(mask) <= own for mask in committee_masks(profile.m, k))


def defeats(
    f: ScoringFunction,
    profile: ApprovalProfile,
    committee: Committee,
    candidate: int,
) -> bool:
    """Whether W strictly beats every same-size committee containing c.

    Under AV that holds exactly when W's approval-count total exceeds
    that of the best committee holding c.
    """
    check_candidate(candidate, profile.m)
    if candidate in committee:
        raise CandidateInCommitteeError(
            f"candidate {candidate} is already in the committee"
        )
    k = len(committee)
    check_k(k, profile.m)
    check_members(committee, profile.m)
    if f.is_av:
        counts = approval_counts(profile)
        return sum(counts[c] for c in committee) > av_leader(counts, k, candidate)[0]
    scorer = Scorer(f, k, profile.m, profile.ballots, math.comb(profile.m - 1, k - 1))
    own = scorer.score(mask_of(committee))
    bit = 1 << candidate
    return all(
        scorer.score(mask) < own for mask in committee_masks(profile.m, k) if mask & bit
    )


def approval_counts(profile: ApprovalProfile) -> list[int]:
    """How many voters approve each candidate, indexed by candidate id.

    An AV committee scores the sum of its members' counts, so AV winner
    and defeat questions read these counts instead of scanning every
    committee of size k.
    """
    counts = [0] * profile.m
    for b in profile.ballots:
        for c in b.approved:
            counts[c] += 1
    return counts


def av_leader(counts: list[int], k: int, holding: int | None = None) -> tuple[int, Committee]:
    """The AV winner of lowest mask (the k highest counts, the lower id
    first among equal counts) and its score; with ``holding``, the same
    among the committees that hold that candidate."""
    order = sorted(range(len(counts)), key=lambda c: (c != holding, -counts[c], c))
    chosen = order[:k]
    return sum(counts[c] for c in chosen), frozenset(chosen)


def completion_winners(
    f: ScoringFunction,
    profile: PartialProfile,
    k: int,
    cap: int,
    committee: Committee | None = None,
) -> Iterator[tuple[ApprovalProfile, list[int]]]:
    """Every completion with its size-k winners as ascending bitmasks.

    Completions stream from enumerate_completions, with one option per
    voter and overlap with ``committee`` when one is given; its cap check
    runs before any committee is listed. Each distinct approval set's
    score row is computed once. Consecutive completions share their
    leading voters' ballot objects, so the running sums over those
    voters carry over and only the changed suffix is added again. Voters
    with one option never change, so they are summed first.
    """
    scorer = Scorer(f, k, profile.m)
    within = -1 if committee is None else mask_of(committee)  # -1 holds every bit
    order = sorted(range(profile.n), key=lambda v: bool(profile.ballots[v].middle_mask & within))
    masks: list[int] = []
    rows: dict[frozenset[int], list[int]] = {}
    sums: list[list[int]] = []  # sums[v]: the rows of order[:v] added up
    last: list[ApprovalBallot] = []
    for completion in enumerate_completions(profile, cap, committee):
        if not sums:
            masks = list(committee_masks(profile.m, k))
            sums.append([0] * len(masks))
        ballots = [completion.ballots[v] for v in order]
        v = 0
        while v < len(last) and ballots[v] is last[v]:
            v += 1
        del sums[v + 1:]
        for b in ballots[v:]:
            row = rows.get(b.approved)
            if row is None:
                row = rows[b.approved] = scorer.row(b, masks)
            sums.append(list(map(add, sums[-1], row)))
        last = ballots
        yield completion, _winners(masks, sums[-1])[1]


def parse_rule_spec(spec: str) -> ScoringFunction:
    """Parse a rule specifier.

    Grammar: ``av``, ``cc``, ``pav``, ``sav``, ``binary:<t>``, or
    ``table:<r0,r1,...>`` where each r is an integer or ``p/q`` rational.
    """
    text = spec.strip().lower()
    if text == "av":
        return AV
    if text == "cc":
        return CC
    if text == "pav":
        return PAV
    if text == "sav":
        return SAV
    if text.startswith("binary:"):
        arg = text[len("binary:"):]
        try:
            t = int(arg)
        except ValueError:
            raise ValueError(f"bad binary threshold {arg!r}") from None
        return binary_rule(t)
    if text.startswith("table:"):
        arg = text[len("table:"):]
        try:
            values = [Fraction(part.strip()) for part in arg.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad weight table {arg!r}") from None
        return ScoringFunction.thiele(WeightFunction.table(values))
    raise ValueError(f"unknown rule specifier {spec!r}")
