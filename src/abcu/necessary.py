"""Necessary-winner queries over incomplete profiles.

A committee W is a necessary winner when it is a (co-)winner in every
completion; a candidate is a necessary member when every completion puts
it inside at least one winning committee. The committee question reduces
to score differences: W fails exactly when some rival W' and some
completion give W' a strictly higher score, and because voters complete
independently the largest achievable value of score(W') - score(W)
splits into independent per-voter maximizations. Each of those is solved
exactly by scanning what the voter's middle contributes to W and W':
fix the approved part R of the contested candidates, close it upward,
and pad with any prefix of the unconstrained remainder, whose length
only matters to rules that read the ballot size.

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
    committee_completion_av,
    completion_by,
    is_linearly_ordered,
    is_three_valued,
    threshold_completion,
)
from .rules import (
    Committee,
    ScoringFunction,
    approval_counts,
    ballot_score,
    binary_rule,
    check_candidate,
    check_committee_size,
    check_k,
    check_threshold,
    committees_by_mask,
    defeats,
    scored_completions,
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


def _topological(ballot: PartialBallot, elems: list[int]) -> list[int]:
    """Order ``elems`` so that anything ranked above comes first."""
    remaining = set(elems)
    out = []
    while remaining:
        c = min(
            x
            for x in remaining
            if not (ballot.forced_by(x) & remaining) - {x}
        )
        out.append(c)
        remaining.remove(c)
    return out


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
    for them; ballot-size-sensitive rules scan every length.
    """
    contested = sorted(ballot.middle & (committee | rival))
    best: Fraction | None = None
    best_ballot: ApprovalBallot | None = None
    for r_mask in range(1 << len(contested)):
        approved = frozenset(
            c for i, c in enumerate(contested) if r_mask >> i & 1
        )
        excluded = frozenset(c for c in contested if c not in approved)
        closure = frozenset().union(*(ballot.forced_by(c) for c in approved)) if approved else frozenset()
        if closure & excluded:
            continue
        free = [] if f.is_thiele else [
            c
            for c in sorted(ballot.middle)
            if c not in closure
            and c not in approved
            and c not in excluded
            and not (ballot.forced_by(c) & excluded)
        ]
        order = _topological(ballot, free)
        base = ballot.top | closure | approved
        for j in range(len(order) + 1):
            candidate_ballot = ApprovalBallot(frozenset(base | set(order[:j])))
            diff = ballot_score(f, candidate_ballot, rival) - ballot_score(
                f, candidate_ballot, committee
            )
            if best is None or diff > best:
                best = diff
                best_ballot = candidate_ballot
    if best_ballot is None:
        raise RuntimeError("approving no contested candidate must be consistent")
    return best, best_ballot


def max_diff_profile(
    f: ScoringFunction,
    profile: PartialProfile,
    committee: Committee,
    rival: Committee,
) -> ScoreDiffReport:
    """Largest achievable score(rival) - score(committee) over completions."""
    if len(committee) != len(rival):
        raise BadKError("committees being compared must have equal size")
    diffs = []
    ballots = []
    for b in profile.ballots:
        diff, witness_ballot = max_diff_ballot(f, b, committee, rival)
        diffs.append(diff)
        ballots.append(witness_ballot)
    witness = ApprovalProfile(profile.registry, tuple(ballots))
    total = sum(diffs, Fraction(0))
    check = sum(
        (
            ballot_score(f, b, rival) - ballot_score(f, b, committee)
            for b in witness.ballots
        ),
        Fraction(0),
    )
    if check != total:
        raise RuntimeError("per-voter maxima must assemble exactly")
    return ScoreDiffReport(committee, rival, tuple(diffs), total, witness)


def neccom(
    f: ScoringFunction,
    profile: PartialProfile,
    committee: Committee,
    k: int,
) -> Decision:
    """Necessary-winner query, any scoring rule, any ballot structure.

    W fails exactly when some rival achieves a positive maximum score
    difference; rivals are scanned ascending by candidate-id bitmask and
    the first positive one supplies the counterexample completion.
    """
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    if k == profile.m:
        # The full candidate set is the only committee of its size.
        return Decision(True, None, None, "max-score-difference")
    for rival in committees_by_mask(profile.m, k):
        if rival == committee:
            continue
        report = max_diff_profile(f, profile, committee, rival)
        if report.total > 0:
            return Decision(False, report.witness, rival, "max-score-difference")
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
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    if k == profile.m:
        return Decision(True, None, None, "av-3va-defeat-scan")
    avoiding = (w for w in committees_by_mask(profile.m, k) if candidate not in w)
    for committee in avoiding:
        completion = committee_completion_av(profile, committee)
        counts = approval_counts(completion)
        # The best committee holding the candidate adds the k-1 highest
        # other counts to its own; W must outscore that one.
        others = sorted(counts[:candidate] + counts[candidate + 1:], reverse=True)
        if sum(counts[c] for c in committee) > counts[candidate] + sum(others[: k - 1]):
            return Decision(False, completion, committee, "av-3va-defeat-scan")
    return Decision(True, None, None, "av-3va-defeat-scan")


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
    scores = approval_counts(adversarial)
    better = sum(1 for c in range(profile.m) if scores[c] > scores[candidate])
    if better > k - 1:
        # The lowest-mask winner: the top k by count, ties to the lower id.
        first = sorted(range(profile.m), key=lambda c: (-scores[c], c))[:k]
        return Decision(False, adversarial, frozenset(first), "av-linear-canonical")
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
    if k == profile.m:
        return Decision(True, None, None, "binary-linear-defeat-scan")
    rule = binary_rule(t)
    avoiding = (w for w in committees_by_mask(profile.m, k) if candidate not in w)
    for committee in avoiding:
        completion = threshold_completion(profile, committee, t)
        if defeats(rule, completion, committee, candidate):
            return Decision(False, completion, committee, "binary-linear-defeat-scan")
    return Decision(True, None, None, "binary-linear-defeat-scan")


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
        # Singleton middles make a profile both order-free and totally
        # ordered; the order-free route wins the tie, like classify.
        if f.is_av and is_three_valued(profile):
            return necmem_av_3va(profile, candidate, k)
        if f.is_av and is_linearly_ordered(profile):
            return necmem_av_linear(profile, candidate, k)
        if f.binary_threshold is not None and is_linearly_ordered(profile):
            return necmem_binary_linear(profile, candidate, k, f.binary_threshold)
        if method == "poly":
            raise NoPolyAlgorithmError(
                f"no polynomial route for rule {f.label!r} on this profile"
            )
    commits = list(committees_by_mask(profile.m, k))
    for completion, scores in scored_completions(f, profile, k, cap):
        best = max(scores)
        if not any(s == best and candidate in c for c, s in zip(commits, scores)):
            return Decision(False, completion, commits[scores.index(best)], "brute-force")
    return Decision(True, None, None, "brute-force")
