"""Necessary-winner queries over incomplete profiles.

A committee W is a necessary winner when it is a (co-)winner in every
completion; a candidate is a necessary member when every completion puts
it inside at least one winning committee. The committee question reduces
to score differences: W fails exactly when some rival W' and some
completion give W' a strictly higher score, and because voters complete
independently the largest achievable value of score(W') - score(W)
splits into independent per-voter maximizations. Each of those is one
integer scan (max_diff_ballot) over what the voter's middle contributes
to W and W', and equal ballots are scanned once.

Membership questions use per-rival canonical completions where the rule
and ballot structure admit them, and capped enumeration elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadKError, ModelMismatchError, NoPolyAlgorithmError, TableOutOfRangeError
from .model import (
    DEFAULT_CAP,
    ApprovalBallot,
    ApprovalProfile,
    Decision,
    PartialBallot,
    PartialProfile,
    completion_by,
    is_linearly_ordered,
    is_three_valued,
    mask_of,
    members_of,
)
from .possible import canonical_route
from .rules import (
    AV,
    Committee,
    ScoringFunction,
    Scorer,
    approval_counts,
    av_leader,
    binary_rule,
    check_candidate,
    check_committee_size,
    check_k,
    check_members,
    check_threshold,
    committee_masks,
    completion_winners,
    defeats,
)


@dataclass(frozen=True)
class ScoreDiffReport:
    """Largest achievable score(rival) - score(committee), decomposed.

    ``per_voter`` holds each voter's independent maximum and ``witness``
    the completion assembling the per-voter maximizers; their sum always
    equals ``total``.
    """

    committee: Committee
    rival: Committee
    per_voter: tuple[Fraction, ...]
    total: Fraction
    witness: ApprovalProfile


def _slots(ballots) -> tuple[list[PartialBallot], list[int], list[int]]:
    """The distinct ballots in first-appearance order, their voter counts, each voter's index."""
    index_of: dict[PartialBallot, int] = {}
    index = [index_of.setdefault(b, len(index_of)) for b in ballots]
    counts = [0] * len(index_of)
    for i in index:
        counts[i] += 1
    return list(index_of), counts, index


def _scan(scorer: Scorer, thiele: bool, ballot: PartialBallot, committee: int, rival: int) -> tuple:
    """One ballot's first best (scaled difference, closure, free, j).

    This is max_diff_ballot's scan over Scorer entries, which read only
    the overlaps with W and W' and the ballot size. The submasks R of the
    contested bits come in ascending order; closure is R's upward closure
    (the OR of its members' up masks), and free holds the bits free to pad.
    """
    top, size, middle = ballot.top_mask, len(ballot.top), ballot.middle_mask
    contested = middle & (committee | rival)
    top_w = (top & committee).bit_count()
    top_r = (top & rival).bit_count()
    if thiele and not contested:
        return scorer[top_r, size] - scorer[top_w, size], 0, 0, 0
    up, down = ballot.up, None if thiele else ballot.down
    best = None
    sub = 0
    while True:
        closure, bits = 0, sub
        while bits:
            low = bits & -bits
            closure |= up.get(low, low)
            bits ^= low
        excluded = contested ^ sub
        if not closure & excluded:
            in_w = top_w + (sub & committee).bit_count()
            in_r = top_r + (sub & rival).bit_count()
            base = size + closure.bit_count()
            free = 0
            if not thiele:
                blocked, bits = closure, excluded
                while bits:
                    low = bits & -bits
                    blocked |= down.get(low, low)
                    bits ^= low
                free = middle & ~blocked
            for j in range(free.bit_count() + 1):
                diff = scorer[in_r, base + j] - scorer[in_w, base + j]
                if best is None or diff > best[0]:
                    best = (diff, closure, free, j)
        sub = (sub - contested) & contested
        if not sub:
            return best


def _chosen(ballot: PartialBallot, pick: tuple) -> int:
    """The middle part of a pick's completion: the closure, then j free
    candidates in an above-first order, the lowest id first among those
    ready."""
    _diff, chosen, free, j = pick
    up = ballot.up
    for _ in range(j):
        bits = free
        while True:
            low = bits & -bits
            if up.get(low, low) & free == low:
                break
            bits ^= low
        chosen |= low
        free ^= low
    return chosen


def _assemble(scorer: Scorer, profile: PartialProfile, slots: tuple, committee: int,
              rival: int, picks: list[tuple]) -> ApprovalProfile:
    """The completion of each distinct ballot's pick, checked against their sum."""
    distinct, counts, index = slots
    chosen = [_chosen(b, p) for b, p in zip(distinct, picks)]
    margin = 0
    for b, n, part in zip(distinct, counts, chosen):
        a = b.top_mask | part
        size = a.bit_count()
        margin += n * (scorer[(a & rival).bit_count(), size]
                       - scorer[(a & committee).bit_count(), size])
    if margin != sum(n * p[0] for n, p in zip(counts, picks)):
        raise RuntimeError("per-voter maxima must assemble exactly")
    built = [ApprovalBallot(b.top | members_of(part)) for b, part in zip(distinct, chosen)]
    return ApprovalProfile(profile.registry, tuple(built[i] for i in index))


def max_diff_ballot(
    f: ScoringFunction,
    ballot: PartialBallot,
    committee: Committee,
    rival: Committee,
) -> tuple[Fraction, ApprovalBallot]:
    """One voter's largest score(rival) - score(committee), with a witness.

    The contested set S is the middle's overlap with either committee. A
    completion meets S in some subset R; it must then contain R's upward
    closure, which is only consistent when the closure stays out of
    S - R. Beyond that the completion may add any prefix of the
    candidates that are neither contested nor forced nor forcing anything
    in S - R, taken in an above-first order. Prefix length changes
    nothing for overlap-only rules, so only the empty prefix is scanned
    for them; ballot-size-sensitive rules scan every length. The
    committees may differ in size.
    """
    m = len(ballot.top) + len(ballot.middle) + len(ballot.bottom)
    check_members(committee, m)
    check_members(rival, m)
    scorer = Scorer(f, max(len(committee), len(rival)), m)
    pick = _scan(scorer, f.is_thiele, ballot, mask_of(committee), mask_of(rival))
    return (Fraction(pick[0], scorer.scale),
            ApprovalBallot(ballot.top | members_of(_chosen(ballot, pick))))


def max_diff_profile(
    f: ScoringFunction,
    profile: PartialProfile,
    committee: Committee,
    rival: Committee,
) -> ScoreDiffReport:
    """Largest achievable score(rival) - score(committee) over completions."""
    if len(committee) != len(rival):
        raise BadKError("committees being compared must have equal size")
    check_members(committee, profile.m)
    check_members(rival, profile.m)
    scorer = Scorer(f, len(committee), profile.m)
    slots = _slots(profile.ballots)
    distinct, _, index = slots
    wmask, rmask = mask_of(committee), mask_of(rival)
    picks = [_scan(scorer, f.is_thiele, b, wmask, rmask) for b in distinct]
    witness = _assemble(scorer, profile, slots, wmask, rmask, picks)
    diffs = [Fraction(picks[i][0], scorer.scale) for i in index]
    return ScoreDiffReport(committee, rival, tuple(diffs), sum(diffs, Fraction(0)), witness)


def _bound(f: ScoringFunction, profile: PartialProfile, committee: int, k: int):
    """rival mask -> an upper bound on its largest score difference.

    Under a Thiele rule a committee's score never drops as a ballot
    grows, so score(W') is at most its score when every middle is
    approved and score(W) at least its score when none is.
    """
    widest = Scorer(
        f, k, profile.m, [ApprovalBallot(b.top | b.middle) for b in profile.ballots],
        math.comb(profile.m, k),
    )
    narrowest = Scorer(f, k, profile.m, [ApprovalBallot(b.top) for b in profile.ballots])
    floor = narrowest.score(committee)
    return lambda rival: widest.score(rival) - floor


def neccom(
    f: ScoringFunction,
    profile: PartialProfile,
    committee: Committee,
    k: int,
) -> Decision:
    """Necessary-winner query, any scoring rule, any ballot structure.

    W fails exactly when some rival achieves a positive maximum score
    difference; rivals are scanned ascending by candidate-id bitmask and
    the first positive one supplies the counterexample completion. Each
    distinct ballot is scanned once per rival, in scaled integers.

    Under a Thiele rule, once one exact scan comes out non-positive, a
    rival whose upper bound (see _bound) is non-positive is skipped: it
    cannot be the first positive one. A rival whose bound reads a
    missing table entry is scanned, and the scan raises there.
    """
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    scorer = Scorer(f, k, profile.m)
    slots = _slots(profile.ballots)
    distinct, counts, _ = slots
    thiele = f.is_thiele
    wmask = mask_of(committee)
    bound = None
    for rmask in committee_masks(profile.m, k):
        if rmask == wmask:
            continue
        if bound is not None:
            try:
                if bound(rmask) <= 0:
                    continue
            except TableOutOfRangeError:
                pass
        picks = [_scan(scorer, thiele, b, wmask, rmask) for b in distinct]
        if sum(n * p[0] for n, p in zip(counts, picks)) > 0:
            witness = _assemble(scorer, profile, slots, wmask, rmask, picks)
            return Decision(False, witness, members_of(rmask), "max-score-difference")
        if bound is None and thiele:
            bound = _bound(f, profile, wmask, k)
    return Decision(True, None, None, "max-score-difference")


def necmem_av_3va(profile: PartialProfile, candidate: int, k: int) -> Decision:
    """Necessary member under the linear-weight rule, order-free middles.

    For each committee W avoiding the candidate, the completion approving
    exactly the undecided W-members maximizes W's margin against every
    committee at once; the candidate fails exactly when some W defeats
    every committee containing it there.
    """
    if not is_three_valued(profile):
        raise ModelMismatchError("profile carries order constraints")
    return necmem(profile, candidate, AV, k, method="poly")


def necmem_av_linear(profile: PartialProfile, candidate: int, k: int) -> Decision:
    """Necessary member under the linear-weight rule, totally ordered middles.

    One completion is worst possible for the candidate: voters that
    cannot approve it approve their whole middle, voters that could
    approve it stop just short (the prefix strictly before it). The
    candidate is a necessary member exactly when it still reaches some
    winning committee there, which under the linear-weight rule means at
    most k-1 candidates score strictly higher.
    """
    if not is_linearly_ordered(profile):
        raise ModelMismatchError("profile middles are not totally ordered")
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)

    def pick(b):
        bit = 1 << candidate
        return members_of(b.up.get(bit, bit) ^ bit) if candidate in b.middle else b.middle

    adversarial = completion_by(profile, pick)
    counts = approval_counts(adversarial)
    best, leader = av_leader(counts, k)
    if av_leader(counts, k, candidate)[0] < best:
        return Decision(False, adversarial, leader, "av-linear-canonical")
    return Decision(True, None, None, "av-linear-canonical")


def necmem_binary_linear(
    profile: PartialProfile, candidate: int, k: int, t: int
) -> Decision:
    """Necessary member under a 0/1 threshold rule, totally ordered middles.

    For each committee W avoiding the candidate, the cheapest completion
    pushing voters to W's threshold maximizes W's margin against every
    committee at once; the candidate fails exactly when some W defeats
    every committee containing it there.
    """
    if not is_linearly_ordered(profile):
        raise ModelMismatchError("profile middles are not totally ordered")
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    check_threshold(t, k)
    return necmem(profile, candidate, binary_rule(t), k, method="poly")


def necmem(
    profile: PartialProfile,
    candidate: int,
    f: ScoringFunction,
    k: int,
    method: str = "auto",
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Necessary-member query with rule/model dispatch."""
    if method not in ("auto", "poly", "brute"):
        raise ValueError(f"unknown method {method!r}")
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    check_threshold(f.binary_threshold, k)
    bit = 1 << candidate
    if method != "brute":
        # canonical_route takes AV's order-free route first, so singleton
        # middles reach av-3va before av-linear, like classify.
        route = canonical_route(profile, f)
        if route is not None:
            # The candidate fails exactly when some committee W avoiding
            # it, in W's completion on the route, defeats every committee
            # holding it. Committees are scanned ascending by candidate-id
            # bitmask; the first W that does so is the witness committee.
            canonical_for, _, name = route
            for mask in committee_masks(profile.m, k):
                if not mask & bit:
                    committee = members_of(mask)
                    completion = canonical_for(committee)
                    if defeats(f, completion, committee, candidate):
                        return Decision(False, completion, committee, name)
            return Decision(True, None, None, name)
        if f.is_av and is_linearly_ordered(profile):
            return necmem_av_linear(profile, candidate, k)
        if method == "poly":
            raise NoPolyAlgorithmError(
                f"no polynomial route for rule {f.label!r} on this profile"
            )
    for completion, winners in completion_winners(f, profile, k, cap):
        if not any(w & bit for w in winners):
            return Decision(False, completion, members_of(winners[0]), "brute-force")
    return Decision(True, None, None, "brute-force")
