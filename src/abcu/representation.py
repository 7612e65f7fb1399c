"""Justified-representation audits, complete and incomplete profiles.

A group of voters deserves representation when it is large (at least
l * n / k voters) and cohesive (jointly approves at least l candidates).
The axioms differ in what counts as being served: justified
representation (l = 1) wants someone in the group to approve a committee
member; its proportional strengthening bounds how many committee members
the whole group touches; the extended form wants some group member to
approve at least l committee members.

The checks below scan candidate subsets rather than voter subsets. That
is an exact reformulation, not a heuristic: a violating group may sit
strictly inside the set of all voters approving its common candidates
(adding one well-served voter to a violating group hides the violation),
so the one scan bounds each voter's satisfaction explicitly, and the
proportional check then bounds the committee members the group may touch
inside each group that scan yields. The definition-level
scan over all voter groups is kept alongside as the adjudicating oracle
for small electorates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BadEditError, TooManyVotersError, UnknownCandidateError
from .model import (
    DEFAULT_CAP,
    ApprovalBallot,
    ApprovalProfile,
    Decision,
    PartialProfile,
    completion_by,
    enumerate_completions,
    mask_of,
    members_of,
)
from .rules import Committee, check_candidate, check_committee_size


@dataclass(frozen=True)
class GroupWitness:
    """A voter group violating a representation axiom.

    ``common`` is a set of ``level`` candidates the whole group approves;
    ``allowed`` (proportional checks only) is the small committee part
    the group's ballots are confined to.
    """

    voters: frozenset[int]
    common: frozenset[int]
    level: int
    allowed: frozenset[int] | None = None


def check_jr(
    profile: ApprovalProfile, committee: Committee, k: int
) -> tuple[bool, GroupWitness | None]:
    """Justified representation: no large unrepresented cohesive group.

    This is the extended scan at level 1 alone: violations are scanned
    per candidate in ascending id order, and the witness collects every
    unrepresented voter approving that candidate.
    """
    check_committee_size(committee, k, profile.m)
    witness = _ejr_violation(profile, committee, k, range(1, 2))
    return (witness is None), witness


def _large_groups(profile: ApprovalProfile, committee: Committee, k: int, levels):
    """Yield ``(level, S, group)`` per level and l-set S, in scan order, when
    the voters approving all of S and under l committee members number at
    least l * n / k."""
    n = profile.n
    if n == 0:
        return
    masks = [b.mask for b in profile.ballots]
    wmask = mask_of(committee)
    overlap = [(mask & wmask).bit_count() for mask in masks]
    for level in levels:
        short = [v for v in range(n) if overlap[v] < level]
        if k * len(short) < level * n:
            continue
        for shared in combinations(range(profile.m), level):
            smask = mask_of(shared)
            group = [v for v in short if masks[v] & smask == smask]
            if k * len(group) >= level * n:
                yield level, shared, group


def _ejr_violation(
    profile: ApprovalProfile, committee: Committee, k: int, levels
) -> GroupWitness | None:
    for level, shared, group in _large_groups(profile, committee, k, levels):
        return GroupWitness(frozenset(group), frozenset(shared), level, None)
    return None


def _pjr_violation(
    profile: ApprovalProfile, committee: Committee, k: int, levels
) -> GroupWitness | None:
    """A voter whose committee approvals fit in X, |X| < l, approves under
    l members, so the group for (S, X) is the part of S's large group that
    fits in X, in the same order; a small group has no large part."""
    n = profile.n
    wmask = mask_of(committee)
    served = [b.mask & wmask for b in profile.ballots]
    members = sorted(committee)
    for level, shared, group in _large_groups(profile, committee, k, levels):
        for x_size in range(level):
            for allowed in combinations(members, x_size):
                outside = ~mask_of(allowed)
                fitting = [v for v in group if served[v] & outside == 0]
                if k * len(fitting) >= level * n:
                    return GroupWitness(
                        frozenset(fitting),
                        frozenset(shared),
                        level,
                        frozenset(allowed),
                    )
    return None


def check_pjr(
    profile: ApprovalProfile, committee: Committee, k: int
) -> tuple[bool, GroupWitness | None]:
    """Proportional justified representation, by exhaustive subset scan.

    For every level l, candidate l-set S and committee part X smaller
    than l, the voters approving all of S whose committee approvals stay
    inside X must number under l * n / k.
    """
    check_committee_size(committee, k, profile.m)
    witness = _pjr_violation(profile, committee, k, range(1, k + 1))
    return (witness is None), witness


def check_ejr(
    profile: ApprovalProfile, committee: Committee, k: int
) -> tuple[bool, GroupWitness | None]:
    """Extended justified representation, by exhaustive subset scan.

    For every level l and candidate l-set S, the voters approving all of
    S while approving under l committee members must number under
    l * n / k.
    """
    check_committee_size(committee, k, profile.m)
    witness = _ejr_violation(profile, committee, k, range(1, k + 1))
    return (witness is None), witness


_AXIOM_CHECKS = {"jr": check_jr, "pjr": check_pjr, "ejr": check_ejr}


def check_axiom(
    profile: ApprovalProfile, committee: Committee, k: int, axiom: str
) -> tuple[bool, GroupWitness | None]:
    if axiom not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}")
    return _AXIOM_CHECKS[axiom](profile, committee, k)


def check_axiom_brute(
    profile: ApprovalProfile, committee: Committee, k: int, axiom: str
) -> tuple[bool, GroupWitness | None]:
    """Definition-level scan over every voter group; small n only.

    Groups are bitmask-ascending; per group the jointly approved set,
    the union of approvals and the best committee overlap are built
    incrementally from the group without its lowest voter.
    """
    if axiom not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}")
    check_committee_size(committee, k, profile.m)
    n = profile.n
    if n > 15:
        raise TooManyVotersError(f"group scan limited to 15 voters, got {n}")
    if n == 0:
        return True, None
    masks = [b.mask for b in profile.ballots]
    wmask = mask_of(committee)
    full = (1 << profile.m) - 1
    size = 1 << n
    common = [full] * size
    union = [0] * size
    best_overlap = [0] * size
    for g in range(1, size):
        low = g & -g
        rest = g ^ low
        v = low.bit_length() - 1
        common[g] = common[rest] & masks[v]
        union[g] = union[rest] | masks[v]
        own = (masks[v] & wmask).bit_count()
        best_overlap[g] = max(best_overlap[rest], own) if rest else own
    for level in range(1, k + 1):
        for g in range(1, size):
            voters = g.bit_count()
            if k * voters < level * n:
                continue
            if common[g].bit_count() < level:
                continue
            if axiom == "jr":
                failed = union[g] & wmask == 0
            elif axiom == "pjr":
                failed = (union[g] & wmask).bit_count() < level
            else:
                failed = best_overlap[g] < level
            if failed:
                shared = sorted(members_of(common[g]))[:level]
                allowed = members_of(union[g] & wmask) if axiom == "pjr" else None
                return False, GroupWitness(members_of(g), frozenset(shared), level, allowed)
        if axiom == "jr":
            break
    return True, None


def posjr(profile: PartialProfile, committee: Committee, k: int) -> Decision:
    """Whether some completion satisfies justified representation.

    One completion is friendliest: a voter whose middle touches the
    committee approves the whole middle (becoming represented no matter
    what else is approved), everyone else approves no middle candidate
    (staying out of any would-be cohesive group). The axiom holds in some
    completion exactly when it holds in this one.
    """
    check_committee_size(committee, k, profile.m)
    canonical = completion_by(
        profile, lambda b: b.middle if b.middle & committee else ()
    )
    satisfied, _ = check_jr(canonical, committee, k)
    if satisfied:
        return Decision(True, canonical, committee, "canonical-completion")
    return Decision(False, None, None, "canonical-completion")


def necjr(profile: PartialProfile, committee: Committee, k: int) -> Decision:
    """Whether every completion satisfies justified representation.

    One completion is most adversarial: every voter approves the largest
    upward-closed middle part that avoids the committee entirely, keeping
    the voter unrepresented (when the top allows) with a ballot as wide
    as possible: its widest option with A ∩ W = ∅, the middle without W
    and without everything ranked below a member of W, found in one pass
    over the closed ``precedence``. The axiom holds in every completion
    exactly when it holds in this one.
    """
    check_committee_size(committee, k, profile.m)
    adversarial = completion_by(profile, lambda b: b.middle.difference(
        committee, [y for x, y in b.precedence if x in committee]))
    satisfied, _ = check_jr(adversarial, committee, k)
    if satisfied:
        return Decision(True, None, None, "canonical-completion")
    return Decision(False, adversarial, committee, "canonical-completion")


def jr_modification_check(
    profile: ApprovalProfile, committee: Committee, k: int, edit: tuple
) -> bool:
    """Apply a representation-safe ballot edit and re-check the axiom.

    Two edit shapes are accepted: ("remove", voter, candidate) drops one
    non-committee candidate from one ballot (a no-op when the voter never
    approved it), and ("replace", voter, ballot) swaps in a new approval
    set containing at least one committee member. Anything else raises.
    Callers use this as a harness for edits that provably preserve the
    axiom, so the expected return is True.
    """
    check_committee_size(committee, k, profile.m)
    if not isinstance(edit, tuple) or len(edit) != 3:
        raise BadEditError("edit must be a (kind, voter, payload) triple")
    kind, voter, payload = edit
    if not isinstance(voter, int) or not 0 <= voter < profile.n:
        raise BadEditError(f"voter index {voter!r} out of range")
    ballots = list(profile.ballots)
    if kind == "remove":
        if not isinstance(payload, int):
            raise BadEditError("remove edit needs a candidate id")
        check_candidate(payload, profile.m)
        if payload in committee:
            raise BadEditError("cannot remove a committee member's approval")
        ballots[voter] = ApprovalBallot(ballots[voter].approved - {payload})
    elif kind == "replace":
        try:
            new_ballot = frozenset(payload)
        except TypeError:
            raise BadEditError("replace edit needs a candidate id set") from None
        for cid in new_ballot:
            if not isinstance(cid, int) or not 0 <= cid < profile.m:
                raise UnknownCandidateError(f"candidate id {cid!r} out of range")
        if not new_ballot & committee:
            raise BadEditError("replacement ballot must contain a committee member")
        ballots[voter] = ApprovalBallot(new_ballot)
    else:
        raise BadEditError(f"unknown edit kind {kind!r}")
    edited = ApprovalProfile(profile.registry, tuple(ballots))
    satisfied, _ = check_jr(edited, committee, k)
    return satisfied


def _axiom_scan(
    profile: PartialProfile,
    committee: Committee,
    k: int,
    axiom: str,
    cap: int,
    stop_on: bool,
) -> Decision:
    """Scan completions until the axiom's verdict equals ``stop_on``.

    That completion is the witness and ``stop_on`` the answer; a scan
    that never stops answers the opposite. The cap is checked on the
    full completion count before any enumeration work.

    Each voter's options shrink to one completion per overlap R = A ∩ W.
    A violating group stays violating when its ballots grow at a fixed
    A ∩ W: the candidates it jointly approves only grow, and what it
    approves of W stays the same. So shrinking a ballot at a fixed
    A ∩ W never creates a violation and growing it never removes one.
    The possible direction keeps the narrowest completion per R, the
    necessary direction the widest, and the answer on these options is
    the answer on all completions. enumerate_completions builds the
    options from each ballot's overlap with W, so their work follows
    their number and not the completion count; only the cap check reads
    the full count.

    The narrowest completion per R lies inside every completion with
    that R, so it comes first in ballot order and the reduced
    completions are a subsequence of enumerate_completions order. The
    first satisfying completion F reduces to a satisfying F' that is no
    later than F voter by voter, hence F' = F, and the possible witness
    is the one of the full scan. The widest completions come later, so a
    necessary answer with a witness takes it from the full scan, unless
    the options were every completion already. That holds exactly when
    every middle lies inside W: a middle candidate c outside W has two
    completions with the same overlap, c with everything ranked above
    it, and those candidates without c.
    """
    check_committee_size(committee, k, profile.m)
    if axiom not in _AXIOM_CHECKS:
        raise ValueError(f"unknown axiom {axiom!r}")
    check = _AXIOM_CHECKS[axiom]

    def first(completions):
        return next((c for c in completions if check(c, committee, k)[0] == stop_on), None)

    witness = first(enumerate_completions(profile, cap, committee, widest=not stop_on))
    if witness is None:
        return Decision(not stop_on, None, None, "experimental-completion-scan")
    if not stop_on and any(b.middle - committee for b in profile.ballots):
        witness = first(enumerate_completions(profile, cap))
    return Decision(stop_on, witness, committee, "experimental-completion-scan")


def possible_axiom_by_scan(
    profile: PartialProfile,
    committee: Committee,
    k: int,
    axiom: str,
    cap: int = DEFAULT_CAP,
) -> Decision:
    """Exists-a-completion axiom check by capped enumeration."""
    return _axiom_scan(profile, committee, k, axiom, cap, True)


def necessary_axiom_by_scan(
    profile: PartialProfile,
    committee: Committee,
    k: int,
    axiom: str,
    cap: int = DEFAULT_CAP,
) -> Decision:
    """For-all-completions axiom check by capped enumeration."""
    return _axiom_scan(profile, committee, k, axiom, cap, False)
