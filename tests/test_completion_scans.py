"""The completion scans against the plain full scans they replace.

poscom_brute, possible_axiom_by_scan and necessary_axiom_by_scan decide
on one completion per voter and overlap with the committee, and the
brute posmem and necmem walk rules.completion_winners' odometer. Here
every Decision, witness and method included, must equal the one of the
plain scan in reference_scans.py, and an error must be the same error.
The odometer's stream must equal that of the product-stream scan it
replaced, item by item, up to the same error.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    necmem,
    parse_rule_spec,
    poscom_brute,
    posmem,
    possible_axiom_by_scan,
    validate_partial_profile,
)
from abcu.model import enumerate_completions
from abcu.rules import completion_winners
from profilegen import random_committee, random_partial_profile
from reference_scans import (
    axiom_scan,
    necmem_scan,
    overlap_options,
    poscom_scan,
    posmem_scan,
)
from reference_scans import completion_winners as product_stream_winners

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


def test_brute_membership_scans_match_the_full_scan():
    rng = Random(4444)
    mismatches = []
    for trial in range(3000):
        profile, k, _ = _instance(rng, trial)
        name, rule = RULES[trial % len(RULES)]
        if name == "binary:2" and k < 2:
            continue
        candidate = rng.randrange(profile.m)
        for brute, scan in ((posmem, posmem_scan), (necmem, necmem_scan)):
            got = _outcome(brute, profile, candidate, rule, k, "brute")
            want = _outcome(scan, profile, candidate, rule, k)
            if got != want:
                mismatches.append((trial, name, brute.__name__, got, want))
    assert not mismatches, mismatches[:3]


# Rules whose short tables raise where a scan first reaches a missing
# entry: table:0,1 has no w(2), and this table2d has no (1, 2) entry and
# no ballot size above 4.
STREAM_RULES = ["av", "pav", "cc", "binary:2", "sav", "table:0,1", "table:0,1,3/2", "table2d"]
HOLED_TABLE2D = ScoringFunction.table2d({
    (x, s): Fraction(x, max(s, 1)) for s in range(5) for x in range(s + 1) if (x, s) != (1, 2)
})


def _stream(scan, *args):
    """The (approval sets, winners) items of a scan, ending in the
    (type, message) of the error it raises, if any."""
    items = []
    try:
        for completion, winners in scan(*args):
            ballots = getattr(completion, "ballots", completion)
            items.append(([b.approved for b in ballots], winners))
    except Exception as exc:  # the same error at the same item
        items.append((type(exc), str(exc)))
    return items


@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(KINDS),
    n=st.integers(0, 4),
    m=st.integers(1, 5),
    max_middle=st.integers(0, 3),
    rule=st.sampled_from(STREAM_RULES),
    with_committee=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_the_odometer_streams_what_the_product_scan_did(
        seed, kind, n, m, max_middle, rule, with_committee):
    rng = Random(seed)
    profile = random_partial_profile(rng, n=n, m=m, kind=kind, max_middle=max_middle)
    k = rng.randint(1, m)
    f = HOLED_TABLE2D if rule == "table2d" else parse_rule_spec(rule)
    committee = random_committee(rng, m, k) if with_committee else None
    args = (f, profile, k, 1 << 20, committee)
    assert _stream(completion_winners, *args) == _stream(product_stream_winners, *args)


def test_the_odometer_stream_covers_its_edge_cases():
    # n = 0 yields the one empty completion, every committee winning;
    # one-option voters yield one completion; a table2d hole raises at
    # the fourth completion, the first holding the ballot {b, c}, after
    # the three before it.
    registry = CandidateRegistry(("a", "b", "c"))
    empty = validate_partial_profile([], registry)
    fixed = validate_partial_profile([([0], [], [1, 2]), ([1, 2], [], [0])], registry)
    holed = validate_partial_profile([([0], [], [1, 2]), ([], [1, 2], [0])], registry)
    for profile, f, k in ((empty, AV, 2), (fixed, PAV, 2), (holed, HOLED_TABLE2D, 1)):
        args = (f, profile, k, 1 << 20, None)
        want = _stream(product_stream_winners, *args)
        assert _stream(completion_winners, *args) == want
    assert want[-1] == (TableOutOfRangeError, "no score entry for overlap 1, ballot size 2")
    assert len(want) == 4
    assert _stream(completion_winners, AV, empty, 2, 1 << 20, None) == [([], [3, 5, 6])]


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
