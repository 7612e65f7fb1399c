"""Necessary-winner queries over incomplete profiles.

A committee W is a necessary winner when it is a (co-)winner in every
completion; a candidate is a necessary member when every completion puts
it inside at least one winning committee. The committee question reduces
to score differences: W fails exactly when some rival W' and some
completion give W' a strictly higher score, and because voters complete
independently the largest achievable value of score(W') - score(W)
splits into independent per-voter maximizations. Each of those is one
integer scan (max_diff_ballot) over what the voter's middle contributes
to W and W'.

Membership questions use per-rival canonical completions where the rule
and ballot structure admit them, and capped enumeration elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BadKError, ModelMismatchError, TableOutOfRangeError
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
from .possible import route
from .rules import (
    AV,
    Committee,
    EntryTable,
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
    entry_table,
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


def _scan(entries: EntryTable, thiele: bool, ballot: PartialBallot, committee: int,
          rival: int) -> tuple:
    """One ballot's first best (scaled difference, closure, free, j).

    This is max_diff_ballot's scan over the rule's shared entry table,
    whose entries read only the overlaps with W and W' and the ballot
    size. The feasible overlaps R with the contested bits S come from the
    ballot's overlaps walk, in ascending order; closure is R's upward
    closure, and free holds the bits free to pad: those of avoiding(S -
    R) outside the closure.
    """
    top, size = ballot.top_mask, len(ballot.top)
    contested = ballot.middle_mask & (committee | rival)
    top_w = (top & committee).bit_count()
    top_r = (top & rival).bit_count()
    if thiele and not contested:
        return entries[top_r, size] - entries[top_w, size], 0, 0, 0
    above, avoiding = ballot.above, ballot.avoiding
    best = None
    for overlap in ballot.overlaps(contested):
        closure = above(overlap)
        in_w = top_w + (overlap & committee).bit_count()
        in_r = top_r + (overlap & rival).bit_count()
        base = size + closure.bit_count()
        free = 0 if thiele else avoiding(contested ^ overlap) & ~closure
        for j in range(free.bit_count() + 1):
            diff = entries[in_r, base + j] - entries[in_w, base + j]
            if best is None or diff > best[0]:
                best = (diff, closure, free, j)
    return best


def _chosen(ballot: PartialBallot, pick: tuple) -> int:
    """The middle part of a pick's completion: the closure, then j free
    candidates in an above-first order, the lowest id first among those
    ready."""
    _diff, chosen, free, j = pick
    above = ballot.above
    for _ in range(j):
        bits = free
        while True:
            low = bits & -bits
            if above(low) & free == low:
                break
            bits ^= low
        chosen |= low
        free ^= low
    return chosen


def _assemble(entries: EntryTable, profile: PartialProfile, committee: int, rival: int,
              picks: list[tuple]) -> ApprovalProfile:
    """The completion of each voter's pick, checked against their sum."""
    chosen = [_chosen(b, p) for b, p in zip(profile.ballots, picks)]
    margin = 0
    for b, part in zip(profile.ballots, chosen):
        a = b.top_mask | part
        size = a.bit_count()
        margin += entries[(a & rival).bit_count(), size]
        margin -= entries[(a & committee).bit_count(), size]
    if margin != sum(p[0] for p in picks):
        raise RuntimeError("per-voter maxima must assemble exactly")
    return ApprovalProfile(profile.registry, tuple(
        ApprovalBallot(b.top | members_of(part)) for b, part in zip(profile.ballots, chosen)))


def max_diff_ballot(
    f: ScoringFunction,
    ballot: PartialBallot,
    committee: Committee,
    rival: Committee,
) -> tuple[Fraction, ApprovalBallot]:
    """One voter's largest score(rival) - score(committee), with a witness.

    The contested set S is the middle's overlap with either committee. A
    completion meets S in some R closed upward under the order restricted
    to S, and contains R's upward closure; the ballot's overlaps walk
    lists exactly these R, so no R whose closure meets S - R is visited.
    Beyond that the completion may add any prefix of the
    candidates that are neither contested nor forced nor forcing anything
    in S - R, taken in an above-first order. Prefix length changes
    nothing for overlap-only rules, so only the empty prefix is scanned
    for them; ballot-size-sensitive rules scan every length. The
    committees may differ in size.
    """
    m = len(ballot.top) + len(ballot.middle) + len(ballot.bottom)
    check_members(committee, m)
    check_members(rival, m)
    entries = entry_table(f, max(len(committee), len(rival)), m)
    pick = _scan(entries, f.is_thiele, ballot, mask_of(committee), mask_of(rival))
    return (Fraction(pick[0], entries.scale),
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
    entries = entry_table(f, len(committee), profile.m)
    wmask, rmask = mask_of(committee), mask_of(rival)
    picks = [_scan(entries, f.is_thiele, b, wmask, rmask) for b in profile.ballots]
    witness = _assemble(entries, profile, wmask, rmask, picks)
    diffs = [Fraction(p[0], entries.scale) for p in picks]
    return ScoreDiffReport(committee, rival, tuple(diffs), sum(diffs, Fraction(0)), witness)


def _bounds(entries: EntryTable, f: ScoringFunction, profile: PartialProfile, committee: int,
            k: int, rival: int) -> Iterator[int]:
    """An upper bound on each later rival's largest score difference, in
    committee_masks order, starting just after ``rival``.

    Under a Thiele rule a committee's score never drops as a ballot
    grows, so score(W') is at most its score when every middle is
    approved, read from the walk of a Scorer of that profile, and
    score(W) at least its score when none is: the shared table's
    ``entries`` for the tops, which the first exact scan has already
    read. That scan has read every entry the walk reads up to ``rival``
    too, so skipping there raises nothing.
    """
    widest = Scorer(f, k, profile.m, [ApprovalBallot(b.top | b.middle) for b in profile.ballots])
    floor = sum(entries[(b.top_mask & committee).bit_count(), 0] for b in profile.ballots)
    walk = widest.walk()
    for mask, _ in walk:
        if mask == rival:
            break
    return (score - floor for _, score in walk)


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
    voter's ballot is scanned once per rival, in scaled integers.

    Under a Thiele rule, once one exact scan comes out non-positive, a
    rival whose upper bound (see _bounds) is non-positive is skipped: it
    cannot be the first positive one. A rival whose bound reads a
    missing table entry is scanned, and the scan raises there.
    """
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    entries = entry_table(f, k, profile.m)
    thiele = f.is_thiele
    wmask = mask_of(committee)
    bounds = None
    for rmask in committee_masks(profile.m, k):
        if bounds is not None:
            try:
                if next(bounds) <= 0:
                    continue
            except TableOutOfRangeError:
                pass
        if rmask == wmask:
            continue
        picks = [_scan(entries, thiele, b, wmask, rmask) for b in profile.ballots]
        if sum(p[0] for p in picks) > 0:
            witness = _assemble(entries, profile, wmask, rmask, picks)
            return Decision(False, witness, members_of(rmask), "max-score-difference")
        if bounds is None and thiele:
            bounds = _bounds(entries, f, profile, wmask, k, rmask)
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

    bit = 1 << candidate
    adversarial = completion_by(
        profile, lambda b: members_of(b.avoiding(bit)) if candidate in b.middle else b.middle)
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
    """Necessary-member query with rule/model dispatch through route."""
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    check_threshold(f.binary_threshold, k)
    bit = 1 << candidate
    # route takes AV's order-free route first, so singleton middles
    # reach av-3va before av-linear, like classify.
    picked = route("necmem", profile, f, method)
    if picked is not None:
        name, canonical_for = picked
        if canonical_for is None:
            return necmem_av_linear(profile, candidate, k)
        # The candidate fails exactly when some committee W avoiding it,
        # in W's completion on the route, defeats every committee holding
        # it. Committees are scanned ascending by candidate-id bitmask;
        # the first W that does so is the witness committee.
        for mask in committee_masks(profile.m, k):
            if not mask & bit:
                committee = members_of(mask)
                completion = canonical_for(committee)
                if defeats(f, completion, committee, candidate):
                    return Decision(False, completion, committee, name)
        return Decision(True, None, None, name)
    for ballots, winners in completion_winners(f, profile, k, cap):
        if not any(w & bit for w in winners):
            witness = ApprovalProfile(profile.registry, ballots)
            return Decision(False, witness, members_of(winners[0]), "brute-force")
    return Decision(True, None, None, "brute-force")
