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
fixed by the rule, the committee size and the candidate count. One
shared table per (rule, k, m) holds those scaled entries (entry_table);
a Scorer holds none of its own, and scores the ballots it is given from
one bitmask of voters per candidate; its walk still visits all C(m, k)
committees, as exact PAV and CC winners are NP-hard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import compress
from operator import add
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping

from .errors import BadKError, BadThresholdError, CandidateInCommitteeError, TableOutOfRangeError
from .model import (
    ApprovalBallot,
    ApprovalProfile,
    PartialProfile,
    check_candidate,
    check_members,
    completion_options,
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


@cache
def _harmonic(x: int) -> Fraction:
    """1 + 1/2 + ... + 1/x, summed without recursion; kept by x alone."""
    return sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))


def eval_weight(w: WeightFunction, x: int) -> Fraction:
    """w(x) as an exact rational; tables raise past their last index."""
    if x < 0:
        raise ValueError("weight argument must be non-negative")
    if w.kind == "av":
        return Fraction(x)
    if w.kind == "pav":
        return _harmonic(x)
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


class EntryTable(dict):
    """The scaled entries of one rule, committee size k and candidate
    count m, keyed by (overlap, ballot size) and filled on first read.

    This is the one map of scaled entries: every Scorer and every scan of
    that rule, k and m reads the same table (see entry_table). ``scale``
    = _scale(f, k, m), and each entry is f(overlap, size) times it, so
    integer sums compare as the exact ones do and Fraction(entry, scale)
    is the exact value. A Thiele entry ignores the size, so every size
    copies the size-0 entry of its overlap, computed once. A missing
    entry raises and is never stored. An entry depends on its key alone,
    so two threads that fill the same one store equal ints.
    """

    def __init__(self, f, k: int, m: int) -> None:
        super().__init__()
        self.f = f
        self.scale = _scale(f, k, m)

    def __missing__(self, key: tuple[int, int]) -> int:
        overlap, size = key
        if size and self.f.kind == "thiele":
            value = self[overlap, 0]
        else:
            value = int(_entry(self.f, overlap, size) * self.scale)
        self[key] = value
        return value


# Tables kept at once. Each holds at most (k + 1)(m + 1) ints, and
# table: specs come from users, so the cache must not grow without limit.
_TABLES = 128


@lru_cache(maxsize=_TABLES)
def _cached_table(rule, k: int, m: int) -> EntryTable:
    """entry_table's cache, keyed by a hashable ``rule``: a rule without
    entries, or (kind, weight, frozenset of entry items), rebuilt from
    the items so that a table never reads a dict changed after keying."""
    if isinstance(rule, tuple):
        kind, weight, items = rule
        rule = SimpleNamespace(kind=kind, weight=weight, entries=dict(items))
    return EntryTable(rule, k, m)


def entry_table(f: ScoringFunction, k: int, m: int) -> EntryTable:
    """The one shared table of f's scaled entries for k and m, built once
    per (rule, k, m) in the process; at most _TABLES are kept. A table2d
    rule is keyed by its entries, so one whose dict changed gets a new
    table."""
    key = f if f.entries is None else (f.kind, f.weight, frozenset(f.entries.items()))
    return _cached_table(key, k, m)


class Scorer:
    """Integer committee scores of the given ballots for one rule and
    committee size.

    A Scorer holds no entries: it reads them from the shared table of its
    rule, k and m (see EntryTable), looked up once, and keeps that
    table's ``scale``. Scores are sums of those scaled entries, so they
    compare as the exact ones do, and Fraction(score, scale) is the exact
    value. Committees are passed as bitmasks of at most k members.

    Scores come from per-candidate voter bitmasks: bit i of V[c] is set
    when voter i approves c. Voters fall into classes that share one row
    of entries, one class under a Thiele rule and one per ballot size
    otherwise. With ge_j the voters approving at least j members of W,
    built one member c at a time by ge_j |= ge_{j-1} & V[c] for j = k
    down to 1, a class adds |class| entry(0) plus the sum over j of
    d[j] |ge_j & class|, where d[j] = entry(j) - entry(j - 1). A class
    whose d[j] is one d at every level is additive: it adds d |V[c] &
    class| per member c, kept as one total per candidate, and needs no
    counters; so av and sav read k totals per committee. Counters are
    kept only up to the last level a step or a missing entry needs:
    level 1 under cc. score(mask) builds one committee's counters;
    walk() shares them between committees.

    A class reaches levels up to min(k, its ballot size) only. When its
    row lacks the entry of one of those levels, a committee whose
    counters reach that level is scored by a scan over the ballots, one
    entry each, which raises at the first ballot whose entry is missing:
    exactly where a scan over every ballot would, with its message.
    """

    def __init__(self, f: ScoringFunction, k: int, m: int,
                 ballots: Iterable[ApprovalBallot]) -> None:
        self._entries = entries = entry_table(f, k, m)
        self.scale = entries.scale
        self._k, self._m = k, m
        self._ballots = ballots = tuple(ballots)
        self._base, self._totals = 0, [0] * m
        self._terms: list[tuple[int, int, int]] = []  # (j, class, d[j]), non-additive classes
        self._guards: list[tuple[int, int]] = []  # (first level missing its entry, class)
        self._approvers, self._start = [0] * m, [0]  # V[c]; ge_0..ge_depth of no committee
        if not ballots:
            return
        masks = [b.mask for b in ballots]
        # Row i of this bit matrix is bin() of voter n - 1 - i's mask with
        # bit m set: "0b1", then the candidates from m - 1 down to 0. So
        # V[c] is the column at offset m + 2 - c, voter 0 lowest.
        matrix = "".join([bin(mask | 1 << m) for mask in reversed(masks)])
        self._approvers = approvers = [int(matrix[m + 2 - c::m + 3], 2) for c in range(m)]
        everyone = (1 << len(masks)) - 1
        sizes = list(map(int.bit_count, masks))
        classes: dict[int, int] = {}  # ballot size -> its voters' bits
        if f.is_thiele:
            classes[max(sizes)] = everyone
        else:
            for i, size in enumerate(sizes):
                classes[size] = classes.get(size, 0) | 1 << i
        for size, voters in classes.items():
            row: list[int] = []
            try:
                for x in range(min(k, size) + 1):
                    row.append(entries[x, size])
            except TableOutOfRangeError:
                self._guards.append((len(row), voters))
            if not row:
                continue
            self._base += row[0] * voters.bit_count()
            steps = [b - a for a, b in zip(row, row[1:])]
            if len(set(steps)) > 1:
                self._terms += [(j, voters, d) for j, d in enumerate(steps, 1) if d]
            elif steps and steps[0]:
                for c in range(m):
                    self._totals[c] += steps[0] * (approvers[c] & voters).bit_count()
        depth = max((level[0] for level in self._terms + self._guards), default=0)
        self._start = [everyone] + [0] * depth

    @staticmethod
    def _add(ge: list[int], v: int) -> list[int]:
        """The counters ge_0..ge_depth once a member approved by v joins."""
        return [ge[0]] + [g | h & v for h, g in zip(ge, ge[1:])]

    def _value(self, ge: list[int], total: int, mask: int) -> int:
        """The score of committee ``mask``, whose counters are ``ge`` and
        whose members' totals plus the base come to ``total``."""
        for j, voters in self._guards:
            if ge[j] & voters:
                return sum(self._entries[(b.mask & mask).bit_count(), len(b.approved)]
                           for b in self._ballots)
        for j, voters, d in self._terms:
            total += d * (ge[j] & voters).bit_count()
        return total

    def score(self, mask: int) -> int:
        ge, total, bits = self._start, self._base, mask
        while bits:
            low = bits & -bits
            c = low.bit_length() - 1
            ge, total = self._add(ge, self._approvers[c]), total + self._totals[c]
            bits ^= low
        return self._value(ge, total, mask)

    def walk(self, held: int | None = None) -> Iterator[tuple[int, int]]:
        """(mask, score) of every size-k committee, or of every one
        holding candidate ``held``, in committee_masks order.

        Members are fixed highest first, so the committees below one
        prefix share the counters that prefix built, and each committee
        adds only its lowest member. The C(m, k) committees stay: only
        the cost per committee shrinks.
        """
        rows = [(1 << c, self._approvers[c], self._totals[c]) for c in range(self._m) if c != held]
        r, ge, mask, total = self._k, self._start, 0, self._base
        if held is not None:
            r, mask = r - 1, 1 << held
            ge, total = self._add(ge, self._approvers[held]), total + self._totals[held]
        if r == 0:
            yield mask, self._value(ge, total, mask)
        # Prefixes to extend: (members still to add, from rows[:top], counters, mask, total).
        stack = [(r, len(rows), ge, mask, total)] if r > 0 else []
        while stack:
            r, top, ge, mask, total = stack.pop()
            if r > 1:
                # Pushed highest first, so the lowest next member pops first.
                for i in range(top - 1, r - 2, -1):
                    bit, v, u = rows[i]
                    stack.append((r - 1, i, self._add(ge, v), mask | bit, total + u))
            elif self._guards:
                for bit, v, u in rows[:top]:
                    yield mask | bit, self._value(self._add(ge, v), total + u, mask | bit)
            else:
                # Each term's counters, cut to its class once per prefix.
                parts = [(ge[j - 1] & voters, ge[j] & voters, d) for j, voters, d in self._terms]
                for bit, v, u in rows[:top]:
                    for h, g, d in parts:
                        u += d * (g | h & v).bit_count()
                    yield mask | bit, total + u


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


def _winners(masks: list[int], scores: list[int]) -> list[int]:
    """The masks reaching the best score, in the masks' order."""
    best = max(scores)
    return list(compress(masks, map(best.__eq__, scores)))


def best_committees(
    f: ScoringFunction, profile: ApprovalProfile, k: int
) -> tuple[Fraction, list[Committee]]:
    """The maximum score of a size-k committee, exact, with every
    committee reaching it, ascending by bitmask; by exhaustive scan.

    The scan keeps only the running best and its ties, so its memory
    grows with the number of winners, not with C(m, k).
    """
    check_k(k, profile.m)
    scorer = Scorer(f, k, profile.m, profile.ballots)
    walk = scorer.walk()
    first, best = next(walk)
    winners = [first]
    for mask, score in walk:
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
    scorer = Scorer(f, k, profile.m, profile.ballots)
    own = scorer.score(mask_of(committee))
    return all(score <= own for _, score in scorer.walk())


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
    scorer = Scorer(f, k, profile.m, profile.ballots)
    own = scorer.score(mask_of(committee))
    return all(score < own for _, score in scorer.walk(candidate))


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
) -> Iterator[tuple[tuple[ApprovalBallot, ...], list[int]]]:
    """Every completion, as its ballots in voter order, with its size-k
    winners as ascending bitmasks, in enumerate_completions order.

    Options come from completion_options, one per voter and overlap with
    ``committee`` when one is given, after its cap check. Each approval
    set's score row is computed on first reach, where a missing entry
    raises, and kept. Voters with one option are summed into a base row
    once; an odometer walks the rest, the first slowest, with one running
    sum per depth, and keeps the last one's rows after its first sweep.
    Callers build the ApprovalProfile of the one completion they keep.
    """
    options = completion_options(profile, cap, committee)
    entries = entry_table(f, k, profile.m)
    masks = list(committee_masks(profile.m, k))
    rows: dict[frozenset[int], list[int]] = {}

    def row(b: ApprovalBallot) -> list[int]:
        kept = rows.get(b.approved)
        if kept is None:
            a, size = b.mask, len(b.approved)
            kept = rows[b.approved] = [entries[(a & mask).bit_count(), size] for mask in masks]
        return kept

    ballots = [choices[0] for choices in options]
    free, base = [], [0] * len(masks)
    for v, choices in enumerate(options):
        if len(choices) > 1:
            free.append(v)
        else:
            base = list(map(add, base, row(choices[0])))
    if not free:
        yield tuple(ballots), _winners(masks, base)
        return
    *outer, last = free
    lasts, swept = options[last], None
    picks = [0] * len(outer)
    sums = [base]  # sums[d]: base plus the rows of outer[:d] at their picks
    while True:
        for d in range(len(sums) - 1, len(outer)):
            v = outer[d]
            ballots[v] = options[v][picks[d]]
            sums.append(list(map(add, sums[-1], row(ballots[v]))))
        top = sums[-1]
        for b, r in zip(lasts, swept or map(row, lasts)):
            ballots[last] = b
            yield tuple(ballots), _winners(masks, list(map(add, top, r)))
        swept = swept or [rows[b.approved] for b in lasts]
        d = len(outer) - 1
        while d >= 0 and picks[d] + 1 == len(options[outer[d]]):
            picks[d] = 0
            d -= 1
        if d < 0:
            return
        picks[d] += 1
        del sums[d + 1:]


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
