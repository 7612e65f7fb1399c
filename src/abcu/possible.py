"""Possible-winner queries over incomplete profiles.

A committee W is a possible winner when some completion of the profile
makes it a (co-)winner; a candidate is a possible member when some
completion puts it inside some winning committee. Both questions range
over a completion space that is exponential in general, but for
particular rule/model pairs a single canonical completion decides the
question: per voter, pick the completion that maximizes W's score margin
against every rival simultaneously. The dispatchers below route to those
canonical constructions when the profile's structure allows it and fall
back to capped brute-force enumeration otherwise.
"""

from __future__ import annotations

from typing import Callable

from .errors import ModelMismatchError, NoPolyAlgorithmError
from .model import (
    DEFAULT_CAP,
    ApprovalProfile,
    Decision,
    PartialProfile,
    completion_by,
    is_linearly_ordered,
    is_three_valued,
    mask_of,
    members_of,
)
from .rules import (
    AV,
    Committee,
    ScoringFunction,
    approval_counts,
    av_leader,
    binary_rule,
    check_candidate,
    check_committee_size,
    check_k,
    check_threshold,
    committee_masks,
    completion_winners,
    is_winning_committee,
)


def route(
    query: str, profile: PartialProfile, f: ScoringFunction, method: str
) -> tuple[str, Callable[[Committee], ApprovalProfile] | None] | None:
    """The one route table of poscom, posmem and necmem: method checked,
    then posmem's AV-linear prefix, AV on order-free middles, binary:t on
    totally ordered ones, necmem's AV-linear completion (singleton middles
    are both). A match gives the query's method name and W -> the
    completion maximizing W's margin over every rival, None on AV-linear.
    None means enumerate: "brute", or "auto" with no match ("poly" raises).
    """
    if method not in ("auto", "poly", "brute"):
        raise ValueError(f"unknown method {method!r}")
    if method == "brute":
        return None
    if query == "posmem" and f.is_av and is_linearly_ordered(profile):
        return "av-linear-prefix", None
    # method names by query; posmem iterates poscom's route
    at = ("poscom", "posmem", "necmem").index(query)
    if f.is_av and is_three_valued(profile):
        # Each voter approves its top and exactly its undecided W-members:
        # under the linear-weight rule each adds one to W and at most one to
        # any rival, and each skipped outsider adds zero.
        return (("av-3va-canonical", "poscom-iteration", "av-3va-defeat-scan")[at],
                lambda committee: completion_by(profile, lambda b: b.middle & committee))
    t = f.binary_threshold
    if t is not None and is_linearly_ordered(profile):
        # The cheapest completion pushing each voter's overlap with W to t,
        # which under a 0/1 step weight maximizes every voter's margin for W
        # against every rival at once. A voter whose top already reaches t,
        # or whose whole middle cannot, approves no middle candidate; any
        # other approves the shortest prefix of its ranking closing the gap,
        # above() of the W-member whose above() holds need members of W.
        def canonical_for(committee: Committee) -> ApprovalProfile:
            wmask = mask_of(committee)

            def pick(b):
                need = t - len(b.top & committee)
                inside = b.middle & committee
                if 0 < need <= len(inside):
                    for c in inside:
                        prefix = b.above(1 << c)
                        if (prefix & wmask).bit_count() == need:
                            return members_of(prefix)
                return ()

            return completion_by(profile, pick)

        return (("binary-linear-prefix", "poscom-iteration", "binary-linear-defeat-scan")[at],
                canonical_for)
    if query == "necmem" and f.is_av and is_linearly_ordered(profile):
        return "av-linear-canonical", None
    if method == "poly":
        raise NoPolyAlgorithmError(f"no polynomial route for rule {f.label!r} on this profile")
    return None


def poscom_av_3va(profile: PartialProfile, committee: Committee) -> Decision:
    """Possible winner under the linear-weight rule, order-free middles."""
    if not is_three_valued(profile):
        raise ModelMismatchError("profile carries order constraints")
    return poscom(profile, committee, AV, len(committee), method="poly")


def poscom_binary_linear(
    profile: PartialProfile, committee: Committee, t: int
) -> Decision:
    """Possible winner under a 0/1 threshold rule, totally ordered middles."""
    if not is_linearly_ordered(profile):
        raise ModelMismatchError("profile middles are not totally ordered")
    k = len(committee)
    check_committee_size(committee, k, profile.m)
    check_threshold(t, k)
    return poscom(profile, committee, binary_rule(t), k, method="poly")


def poscom_brute(
    profile: PartialProfile,
    committee: Committee,
    f: ScoringFunction,
    k: int,
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Possible winner by enumerating completions, capped.

    Completions stream voter-major; the first one where W is a co-winner
    becomes the witness. The cap is checked on the full completion count
    before any enumeration work.

    Under a Thiele rule whose weights are defined up to k, each voter's
    options shrink to one completion per overlap R = A ∩ W: the narrowest
    one, A_min(R) = top ∪ closure(R), the intersection of every
    completion with that R. completion_options builds these options
    from the ballot, so the work follows their number, at most
    2^|middle ∩ W|, and not the voter's completion count. W's score
    reads A ∩ W only and a rival's score never drops as A grows, so
    replacing each ballot of a completion where W wins by its A_min
    keeps W a co-winner. A_min(R) lies inside every completion with that
    R, so it has the lowest mask among them and comes first in ballot
    order, and the reduced completions are a subsequence of
    enumerate_completions order. The first witness F there reduces to a
    witness F' that is no later than F voter by voter, hence F' = F: the
    first reduced witness is the first witness of the full scan. sav and
    table2d rules read the ballot size, which a larger ballot can raise
    or lower, and a short weight table raises where the full scan
    reaches a missing entry, so those keep every completion.
    """
    check_committee_size(committee, k, profile.m)
    target = mask_of(committee)
    by_overlap = f.is_thiele and (f.weight.kind != "table" or len(f.weight.values) > k)
    scan = completion_winners(f, profile, k, cap, committee if by_overlap else None)
    for ballots, winners in scan:
        if target in winners:
            return Decision(True, ApprovalProfile(profile.registry, ballots), committee,
                            "brute-force")
    return Decision(False, None, None, "brute-force")


def poscom(
    profile: PartialProfile,
    committee: Committee,
    f: ScoringFunction,
    k: int,
    method: str = "auto",
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Possible-winner query with rule/model dispatch.

    method "auto" judges W in its canonical completion when route finds
    one for the rule and the profile's structure, and falls back to
    capped enumeration; "poly" refuses the fallback; "brute" forces it.
    """
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    picked = route("poscom", profile, f, method)
    if picked is None:
        return poscom_brute(profile, committee, f, k, cap)
    name, canonical_for = picked
    canonical = canonical_for(committee)
    if is_winning_committee(f, canonical, committee):
        return Decision(True, canonical, committee, name)
    return Decision(False, None, None, name)


def posmem_av_linear(profile: PartialProfile, candidate: int, k: int) -> Decision:
    """Possible member under the linear-weight rule, totally ordered middles.

    One canonical completion is best possible for the candidate: voters
    who can approve it do so as cheaply as possible (the prefix ending at
    the candidate), everyone else approves no middle candidate. The
    candidate can then join a winning committee exactly when at most k-1
    candidates score strictly higher there.
    """
    if not is_linearly_ordered(profile):
        raise ModelMismatchError("profile middles are not totally ordered")
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)

    bit = 1 << candidate
    canonical = completion_by(
        profile, lambda b: members_of(b.above(bit)) if candidate in b.middle else ())
    counts = approval_counts(canonical)
    held, leader = av_leader(counts, k, candidate)
    if held < av_leader(counts, k)[0]:
        return Decision(False, None, None, "av-linear-prefix")
    return Decision(True, canonical, leader, "av-linear-prefix")


def posmem(
    profile: PartialProfile,
    candidate: int,
    f: ScoringFunction,
    k: int,
    method: str = "auto",
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Possible-member query: route's AV-linear prefix, or its possible-winner
    route tried on each committee holding the candidate, or enumeration."""
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    check_threshold(f.binary_threshold, k)
    bit = 1 << candidate
    picked = route("posmem", profile, f, method)
    if picked is not None:
        name, canonical_for = picked
        if canonical_for is None:
            return posmem_av_linear(profile, candidate, k)
        for mask in committee_masks(profile.m, k):
            if mask & bit:
                committee = members_of(mask)
                canonical = canonical_for(committee)
                if is_winning_committee(f, canonical, committee):
                    return Decision(True, canonical, committee, name)
        return Decision(False, None, None, name)
    for ballots, winners in completion_winners(f, profile, k, cap):
        holder = next((w for w in winners if w & bit), None)
        if holder is not None:
            witness = ApprovalProfile(profile.registry, ballots)
            return Decision(True, witness, members_of(holder), "brute-force")
    return Decision(False, None, None, "brute-force")
