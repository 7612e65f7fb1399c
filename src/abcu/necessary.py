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

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadKError, ModelMismatchError, NoPolyAlgorithmError
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
    check_threshold,
    committees_by_mask,
    completion_winners,
    defeats,
    members_of,
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


def _scan(f: ScoringFunction, scorer: Scorer, ballot: PartialBallot,
          committee: Committee, rival: Committee) -> tuple:
    """One voter's first best (scaled difference, closure, free, j).

    This is max_diff_ballot's scan over Scorer entries, which read only
    the overlaps with W and W' and the ballot size: closure is R's upward
    closure and free lists the candidates free to pad.
    """
    contested = sorted(ballot.middle & (committee | rival))
    best = None
    for r_mask in range(1 << len(contested)):
        approved = {c for i, c in enumerate(contested) if r_mask >> i & 1}
        excluded = set(contested) - approved
        closure = approved.union(*(ballot.forced_by(c) for c in approved))
        if closure & excluded:
            continue
        free = [] if f.is_thiele else [
            c for c in ballot.middle
            if c not in closure and not ballot.forced_by(c) & excluded
        ]
        in_w = len((ballot.top | approved) & committee)
        in_r = len((ballot.top | approved) & rival)
        size = len(ballot.top) + len(closure)
        for j in range(len(free) + 1):
            diff = scorer[in_r, size + j] - scorer[in_w, size + j]
            if best is None or diff > best[0]:
                best = (diff, closure, free, j)
    if best is None:
        raise RuntimeError("approving no contested candidate must be consistent")
    return best


def _witness_ballot(ballot: PartialBallot, pick: tuple) -> ApprovalBallot:
    """Top, the closure, then j free candidates in an above-first order,
    the lowest id first among those ready."""
    _diff, closure, free, j = pick
    chosen, remaining = set(closure), set(free)
    for _ in range(j):
        c = min(x for x in remaining if not (ballot.forced_by(x) & remaining) - {x})
        chosen.add(c)
        remaining.remove(c)
    return ApprovalBallot(ballot.top | chosen)


def _assemble(scorer: Scorer, profile: PartialProfile, committee: Committee,
              rival: Committee, picks: dict) -> ApprovalProfile:
    """The completion of each voter's pick, checked against their sum."""
    built = {b: _witness_ballot(b, pick) for b, pick in picks.items()}
    witness = ApprovalProfile(profile.registry, tuple(built[b] for b in profile.ballots))
    margin = sum(
        scorer[len(a & rival), len(a)] - scorer[len(a & committee), len(a)]
        for a in (b.approved for b in witness.ballots)
    )
    if margin != sum(picks[b][0] for b in profile.ballots):
        raise RuntimeError("per-voter maxima must assemble exactly")
    return witness


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
    scorer = Scorer(f, max(len(committee), len(rival)), m)
    pick = _scan(f, scorer, ballot, committee, rival)
    return Fraction(pick[0], scorer.scale), _witness_ballot(ballot, pick)


def max_diff_profile(
    f: ScoringFunction,
    profile: PartialProfile,
    committee: Committee,
    rival: Committee,
) -> ScoreDiffReport:
    """Largest achievable score(rival) - score(committee) over completions."""
    if len(committee) != len(rival):
        raise BadKError("committees being compared must have equal size")
    scorer = Scorer(f, len(committee), profile.m)
    picks = {b: _scan(f, scorer, b, committee, rival) for b in dict.fromkeys(profile.ballots)}
    witness = _assemble(scorer, profile, committee, rival, picks)
    diffs = [Fraction(picks[b][0], scorer.scale) for b in profile.ballots]
    return ScoreDiffReport(committee, rival, tuple(diffs), sum(diffs, Fraction(0)), witness)


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
    """
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    scorer = Scorer(f, k, profile.m)
    distinct = dict.fromkeys(profile.ballots)
    for rival in committees_by_mask(profile.m, k):
        if rival == committee:
            continue
        picks = {b: _scan(f, scorer, b, committee, rival) for b in distinct}
        if sum(picks[b][0] for b in profile.ballots) > 0:
            witness = _assemble(scorer, profile, committee, rival, picks)
            return Decision(False, witness, rival, "max-score-difference")
    return Decision(True, None, None, "max-score-difference")


def _defeat_scan(
    route: tuple, f: ScoringFunction, profile: PartialProfile, candidate: int, k: int
) -> Decision:
    """The candidate fails exactly when some committee W avoiding it, in
    W's completion on a canonical route, defeats every committee holding it.

    Committees are scanned ascending by candidate-id bitmask; the first W
    that does so is the witness committee.
    """
    canonical_for, _, method = route
    for committee in committees_by_mask(profile.m, k):
        if candidate in committee:
            continue
        completion = canonical_for(committee)
        if defeats(f, completion, committee, candidate):
            return Decision(False, completion, committee, method)
    return Decision(True, None, None, method)


def necmem_av_3va(profile: PartialProfile, candidate: int, k: int) -> Decision:
    """Necessary member under the linear-weight rule, order-free middles.

    For each committee W avoiding the candidate, the completion approving
    exactly the undecided W-members maximizes W's margin against every
    committee at once; the candidate fails exactly when some W defeats
    every committee containing it there.
    """
    if not is_three_valued(profile):
        raise ModelMismatchError("profile carries order constraints")
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    return _defeat_scan(canonical_route(profile, AV), AV, profile, candidate, k)


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
        if candidate not in b.middle:
            return b.middle
        sequence = b.middle_sequence()
        return sequence[: sequence.index(candidate)]

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
    rule = binary_rule(t)
    return _defeat_scan(canonical_route(profile, rule), rule, profile, candidate, k)


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
    if method != "brute":
        # canonical_route takes AV's order-free route first, so singleton
        # middles reach av-3va before av-linear, like classify.
        route = canonical_route(profile, f)
        if route is not None:
            return _defeat_scan(route, f, profile, candidate, k)
        if f.is_av and is_linearly_ordered(profile):
            return necmem_av_linear(profile, candidate, k)
        if method == "poly":
            raise NoPolyAlgorithmError(
                f"no polynomial route for rule {f.label!r} on this profile"
            )
    bit = 1 << candidate
    for completion, winners in completion_winners(f, profile, k, cap):
        if not any(w & bit for w in winners):
            return Decision(False, completion, members_of(winners[0]), "brute-force")
    return Decision(True, None, None, "brute-force")
