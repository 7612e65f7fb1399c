"""The fixed-committee scans against the plain full scans they replace.

poscom_brute, possible_axiom_by_scan and necessary_axiom_by_scan decide
on one completion per voter and overlap with the committee. Here every
Decision, witness and method included, must equal the one of the plain
scan in reference_scans.py, and an error must be the same error.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from abcu import (
    AV,
    CC,
    PAV,
    SAV,
    CandidateRegistry,
    CapExceededError,
    ScoringFunction,
    TableOutOfRangeError,
    binary_rule,
    necessary_axiom_by_scan,
    parse_rule_spec,
    poscom_brute,
    possible_axiom_by_scan,
    validate_partial_profile,
)
from abcu.model import enumerate_completions
from profilegen import random_committee, random_partial_profile
from reference_scans import axiom_scan, overlap_options, poscom_scan

KINDS = ("3va", "linear", "poset")
TABLE2D = ScoringFunction.table2d({
    (x, s): Fraction(x * x + x, s + 1) for s in range(7) for x in range(min(s, 3) + 1)
})
RULES = [
    ("av", AV),
    ("pav", PAV),
    ("cc", CC),
    ("binary:2", binary_rule(2)),
    ("table:0,1,3/2,2", parse_rule_spec("table:0,1,3/2,2")),
    ("sav", SAV),
    ("table2d", TABLE2D),
]


def _outcome(decide, *args):
    try:
        return decide(*args)
    except Exception as exc:  # the same error must come out of both
        return type(exc), str(exc)


def _instance(rng, trial):
    kind = KINDS[trial % 3]
    m = rng.randint(1, 6)
    profile = random_partial_profile(
        rng, n=rng.randint(1, 4), m=m, kind=kind, max_middle=rng.randint(1, 3)
    )
    k = rng.randint(1, min(3, m))
    return profile, k, random_committee(rng, m, k)


def test_reduced_poscom_matches_the_full_scan():
    rng = Random(1111)
    mismatches = []
    for trial in range(6000):
        profile, k, committee = _instance(rng, trial)
        name, rule = RULES[trial % len(RULES)]
        if name == "binary:2" and k < 2:
            continue
        got = _outcome(poscom_brute, profile, committee, rule, k)
        want = _outcome(poscom_scan, profile, committee, rule, k)
        if got != want:
            mismatches.append((trial, name, got, want))
    assert not mismatches, mismatches[:3]


def test_reduced_axiom_scans_match_the_full_scan():
    rng = Random(2222)
    mismatches = []
    for trial in range(6000):
        profile, k, committee = _instance(rng, trial)
        axiom = ("jr", "pjr", "ejr")[trial // 3 % 3]
        for scan, stop_on in ((possible_axiom_by_scan, True), (necessary_axiom_by_scan, False)):
            got = _outcome(scan, profile, committee, k, axiom)
            want = _outcome(axiom_scan, profile, committee, k, axiom, stop_on)
            if got != want:
                mismatches.append((trial, axiom, stop_on, got, want))
    assert not mismatches, mismatches[:3]


def _wide_instance(rng):
    """One voter over up to 10 candidates, its middle ordered by a random
    share, from none to all, of the pairs of a random ranking."""
    m = rng.randint(1, 10)
    ids = rng.sample(range(m), m)
    q = rng.randint(0, m)
    ranked, rest = ids[:q], ids[q:]
    cut = rng.randint(0, len(rest))
    density = rng.random()
    edges = [(x, y) for i, x in enumerate(ranked) for y in ranked[i + 1:] if rng.random() < density]
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    profile = validate_partial_profile([(rest[:cut], ranked, rest[cut:], edges)], registry)
    return profile, random_committee(rng, m, rng.randint(0, m))


def test_options_keep_one_completion_per_overlap():
    rng = Random(3333)
    instances = [_instance(rng, trial)[::2] for trial in range(300)]
    instances += [_wide_instance(rng) for _ in range(300)]
    for profile, committee in instances:
        for widest in (False, True):
            kept = [overlap_options(b, committee, widest) for b in profile.ballots]
            want = [list(choice) for choice in product(*kept)]
            got = [
                [b.approved for b in c.ballots]
                for c in enumerate_completions(profile, 1 << 20, committee, widest)
            ]
            assert got == want
        # The narrowest options are a subsequence of the full stream.
        full = iter(enumerate_completions(profile, 1 << 20))
        for c in enumerate_completions(profile, 1 << 20, committee):
            assert any(c == d for d in full)


def test_the_cap_counts_every_completion():
    # No voter's middle meets W, so each keeps one option, yet the full
    # space of 2^4 completions exceeds the cap.
    registry = CandidateRegistry(("a", "b", "c", "d"))
    profile = validate_partial_profile([([0], [2, 3], [1]), ([], [2, 3], [0, 1])], registry)
    committee = frozenset({0, 1})
    with pytest.raises(CapExceededError):
        poscom_brute(profile, committee, PAV, 2, cap=15)
    for scan in (possible_axiom_by_scan, necessary_axiom_by_scan):
        with pytest.raises(CapExceededError):
            scan(profile, committee, 2, "ejr", cap=15)
    assert poscom_brute(profile, committee, PAV, 2, cap=16) == poscom_scan(
        profile, committee, PAV, 2
    )


def test_a_short_weight_table_keeps_the_full_scan():
    # table:0,1 has no w(2). The first completion leaves W = {c, d}
    # behind {a, c}; the full scan then reaches the ballot {a, b} and
    # raises, where one option per overlap would have answered false.
    registry = CandidateRegistry(("a", "b", "c", "d"))
    profile = validate_partial_profile([([0], [1], [2, 3]), ([2], [], [0, 1, 3])], registry)
    with pytest.raises(TableOutOfRangeError):
        poscom_brute(profile, frozenset({2, 3}), parse_rule_spec("table:0,1"), 2)
