"""The plain scans, kept as a reference for the reduced ones.

Each completion scan walks every joint completion, in
enumerate_completions order, and stops at the first witness: the first
completion where the committee wins, or where the axiom's verdict is the
one looked for. No option is dropped and no score is carried from one
completion to the next. The cap check counts every completion first, as
the library does. Only the data classes, the completion counts, the
per-ballot completion lists and the single-profile checks are shared
with the library.

overlap_options groups a ballot's completions, listed by the
definition in oracles.py, by their overlap with a committee.

completion_winners is the product-stream scan that rules.completion_winners
replaced, kept verbatim: it streams enumerate_completions and finds the
voters that changed by comparing ballots by identity. posmem_scan and
necmem_scan are the brute posmem and necmem on every completion, with
winners from winning_committees.

neccom_scan is neccom on candidate sets: every rival, every distinct
ballot's scan over the subsets of its contested middle, no bound.
threshold_completion is the binary-linear route's canonical completion
cut from each ballot's middle_sequence.
"""

from __future__ import annotations

from itertools import compress, product
from operator import add

from abcu import (
    DEFAULT_CAP,
    ApprovalBallot,
    ApprovalProfile,
    CapExceededError,
    Decision,
    check_axiom,
    completions_of_ballot,
    count_completions,
    enumerate_completions,
    is_winning_committee,
    winning_committees,
)
from abcu.model import check_candidate, mask_of
from abcu.rules import (
    check_committee_size,
    check_k,
    check_threshold,
    committee_masks,
    committees_by_mask,
    entry_table,
)
from oracles import ballot_options


def all_completions(profile, cap: int = DEFAULT_CAP):
    total = count_completions(profile)
    if total > cap:
        raise CapExceededError(f"{total} completions exceed the cap of {cap}")
    per_voter = [completions_of_ballot(b) for b in profile.ballots]
    for choice in product(*per_voter):
        yield ApprovalProfile(profile.registry, choice)


def overlap_options(ballot, committee, widest: bool) -> list[frozenset]:
    """One completion per overlap R = A ∩ W, groups in the order of their
    first member by ascending middle mask: the intersection of the group,
    or with ``widest`` its union."""
    def middle_mask(approved):
        return sum(1 << c for c in approved - ballot.top)

    pick = frozenset.union if widest else frozenset.intersection
    groups: dict[frozenset, list[frozenset]] = {}
    for approved in sorted(ballot_options(ballot), key=middle_mask):
        groups.setdefault(approved & committee, []).append(approved)
    return [pick(*group) for group in groups.values()]


def poscom_scan(profile, committee, f, k, cap: int = DEFAULT_CAP) -> Decision:
    """poscom_brute: the first completion where the committee co-wins."""
    check_committee_size(committee, k, profile.m)
    for completion in all_completions(profile, cap):
        if is_winning_committee(f, completion, committee):
            return Decision(True, completion, committee, "brute-force")
    return Decision(False, None, None, "brute-force")


def axiom_scan(profile, committee, k, axiom, stop_on: bool, cap: int = DEFAULT_CAP):
    """possible_axiom_by_scan (stop_on True), necessary_axiom_by_scan
    (stop_on False): the first completion whose verdict is ``stop_on``."""
    check_committee_size(committee, k, profile.m)
    for completion in all_completions(profile, cap):
        satisfied, _ = check_axiom(completion, committee, k, axiom)
        if satisfied == stop_on:
            return Decision(stop_on, completion, committee, "experimental-completion-scan")
    return Decision(not stop_on, None, None, "experimental-completion-scan")


def _winners(masks: list[int], scores: list[int]) -> list[int]:
    """The masks reaching the best score, in the masks' order."""
    best = max(scores)
    return list(compress(masks, map(best.__eq__, scores)))


def completion_winners(f, profile, k, cap, committee=None):
    """Every completion with its size-k winners as ascending bitmasks.

    Completions stream from enumerate_completions, with one option per
    voter and overlap with ``committee`` when one is given; its cap check
    runs before any committee is listed. Each distinct approval set's
    score row is computed once. Consecutive completions share their
    leading voters' ballot objects, so the running sums over those
    voters carry over and only the changed suffix is added again. Voters
    with one option never change, so they are summed first.
    """
    entries = entry_table(f, k, profile.m)
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
                a, size = b.mask, len(b.approved)
                row = rows[b.approved] = [entries[(a & mask).bit_count(), size] for mask in masks]
            sums.append(list(map(add, sums[-1], row)))
        last = ballots
        yield completion, _winners(masks, sums[-1])


def _brute_checks(profile, candidate, f, k):
    check_candidate(candidate, profile.m)
    check_k(k, profile.m)
    check_threshold(f.binary_threshold, k)


def posmem_scan(profile, candidate, f, k, cap: int = DEFAULT_CAP) -> Decision:
    """Brute posmem: the first completion with a winner holding the
    candidate, and the lowest-mask such winner."""
    _brute_checks(profile, candidate, f, k)
    for completion in all_completions(profile, cap):
        holders = [w for w in winning_committees(f, completion, k) if candidate in w]
        if holders:
            return Decision(True, completion, min(holders, key=mask_of), "brute-force")
    return Decision(False, None, None, "brute-force")


def necmem_scan(profile, candidate, f, k, cap: int = DEFAULT_CAP) -> Decision:
    """Brute necmem: the first completion where no winner holds the
    candidate, and its lowest-mask winner."""
    _brute_checks(profile, candidate, f, k)
    for completion in all_completions(profile, cap):
        winners = winning_committees(f, completion, k)
        if not any(candidate in w for w in winners):
            return Decision(False, completion, min(winners, key=mask_of), "brute-force")
    return Decision(True, None, None, "brute-force")


def _scan(f, entries, ballot, committee, rival):
    """One voter's first best (scaled difference, closure, free, j)."""
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
            diff = entries[in_r, size + j] - entries[in_w, size + j]
            if best is None or diff > best[0]:
                best = (diff, closure, free, j)
    return best


def _witness_ballot(ballot, pick):
    _diff, closure, free, j = pick
    chosen, remaining = set(closure), set(free)
    for _ in range(j):
        c = min(x for x in remaining if not (ballot.forced_by(x) & remaining) - {x})
        chosen.add(c)
        remaining.remove(c)
    return ApprovalBallot(ballot.top | chosen)


def neccom_scan(f, profile, committee, k) -> Decision:
    """neccom: the first rival in mask order with a positive total, and
    the completion of each voter's first best pick."""
    check_committee_size(committee, k, profile.m)
    check_threshold(f.binary_threshold, k)
    entries = entry_table(f, k, profile.m)
    distinct = dict.fromkeys(profile.ballots)
    for rival in committees_by_mask(profile.m, k):
        if rival == committee:
            continue
        picks = {b: _scan(f, entries, b, committee, rival) for b in distinct}
        if sum(picks[b][0] for b in profile.ballots) > 0:
            built = {b: _witness_ballot(b, pick) for b, pick in picks.items()}
            witness = ApprovalProfile(profile.registry, tuple(built[b] for b in profile.ballots))
            return Decision(False, witness, rival, "max-score-difference")
    return Decision(True, None, None, "max-score-difference")


def threshold_completion(profile, committee, t) -> ApprovalProfile:
    """Cheapest completion pushing each voter's overlap with W to t.

    A voter whose top already reaches t, or whose full middle cannot,
    approves no middle candidate at all. Otherwise it approves the
    shortest prefix of its ranking that closes the gap.
    """

    def pick(b):
        need = t - len(b.top & committee)
        if not 0 < need <= len(b.middle & committee):
            return []
        sequence = b.middle_sequence()
        ends = [i for i, c in enumerate(sequence) if c in committee]
        return sequence[: ends[need - 1] + 1]

    return ApprovalProfile(
        profile.registry, tuple(ApprovalBallot(b.top.union(pick(b))) for b in profile.ballots)
    )
