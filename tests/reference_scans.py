"""The plain completion scans, kept as a reference for the reduced ones.

Each walks every joint completion, in enumerate_completions order, and
stops at the first witness: the first completion where the committee
wins, or where the axiom's verdict is the one looked for. No option is
dropped and no score is carried from one completion to the next. The
cap check counts every completion first, as the library does. Only the
data classes, the completion counts, the per-ballot completion lists and
the single-profile checks are shared with the library.
"""

from __future__ import annotations

from itertools import product

from abcu import (
    DEFAULT_CAP,
    ApprovalProfile,
    CapExceededError,
    Decision,
    check_axiom,
    completions_of_ballot,
    count_completions,
    is_winning_committee,
)
from abcu.rules import check_committee_size


def all_completions(profile, cap: int = DEFAULT_CAP):
    total = count_completions(profile)
    if total > cap:
        raise CapExceededError(f"{total} completions exceed the cap of {cap}")
    per_voter = [completions_of_ballot(b) for b in profile.ballots]
    for choice in product(*per_voter):
        yield ApprovalProfile(profile.registry, choice)


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
