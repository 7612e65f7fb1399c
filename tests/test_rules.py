"""Weight functions, committee scores, winner scans, rule parsing."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcu import (
    AV,
    BadKError,
    CC,
    CandidateInCommitteeError,
    CandidateRegistry,
    PAV,
    SAV,
    ScoringFunction,
    TableOutOfRangeError,
    UnknownCandidateError,
    WeightFunction,
    as_partial,
    ballot_score,
    binary_rule,
    committees_by_mask,
    complete_profile,
    defeats,
    eval_weight,
    is_winning_committee,
    necmem_av_3va,
    necmem_av_linear,
    parse_rule_spec,
    poscom_av_3va,
    profile_score,
    winning_committees,
)
from abcu.model import ApprovalBallot
from abcu.rules import (
    Scorer,
    approval_counts,
    av_leader,
    best_committees,
    check_committee_size,
    mask_of,
)
from conftest import A, B, C, D
from oracles import SCORERS, committees, table_score, winners

R2 = CandidateRegistry(("a", "b"))


def test_linear_weight():
    assert eval_weight(WeightFunction.av(), 0) == 0
    assert eval_weight(WeightFunction.av(), 3) == 3


def test_harmonic_weight():
    w = WeightFunction.pav()
    assert eval_weight(w, 1) == 1
    assert eval_weight(w, 2) == Fraction(3, 2)
    assert eval_weight(w, 3) == Fraction(11, 6)


def test_step_weights():
    assert [eval_weight(WeightFunction.cc(), x) for x in range(3)] == [0, 1, 1]
    assert [eval_weight(WeightFunction.binary(2), x) for x in range(4)] == [0, 0, 1, 1]


def test_table_weight():
    w = WeightFunction.table([0, 1, Fraction(3, 2)])
    assert eval_weight(w, 2) == Fraction(3, 2)
    with pytest.raises(TableOutOfRangeError):
        eval_weight(w, 3)


def test_weight_argument_must_be_non_negative():
    with pytest.raises(ValueError):
        eval_weight(WeightFunction.av(), -1)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction("bogus")
    with pytest.raises(ValueError):
        WeightFunction("binary", threshold=0)
    with pytest.raises(ValueError):
        WeightFunction.table([1, 2])
    with pytest.raises(ValueError):
        WeightFunction.table([0, 2, 1])
    with pytest.raises(ValueError):
        WeightFunction.table([])


def test_scoring_validation():
    with pytest.raises(ValueError):
        ScoringFunction("bogus")
    with pytest.raises(ValueError):
        ScoringFunction("thiele")
    with pytest.raises(ValueError):
        ScoringFunction("table2d")
    with pytest.raises(ValueError):
        # overlap 1 scoring below overlap 0 at the same ballot size
        ScoringFunction.table2d({(0, 1): Fraction(1), (1, 1): Fraction(0)})


def test_rule_flags_and_labels():
    assert AV.is_av and AV.is_thiele and AV.label == "av"
    assert CC.binary_threshold == 1 and CC.label == "coverage"
    assert binary_rule(3).binary_threshold == 3
    assert binary_rule(3).label == "binary(3)"
    assert PAV.binary_threshold is None and PAV.label == "pav"
    assert not SAV.is_thiele and SAV.label == "sav"


def test_ballot_scores():
    both = ApprovalBallot(frozenset({A, B}))
    nothing = ApprovalBallot(frozenset())
    target = frozenset({A})
    assert ballot_score(AV, both, target) == 1
    assert ballot_score(SAV, both, target) == Fraction(1, 2)
    assert ballot_score(SAV, nothing, target) == 0
    assert ballot_score(CC, both, target) == 1
    assert ballot_score(PAV, both, frozenset({A, B})) == Fraction(3, 2)


def test_table2d_reads_both_arguments():
    f = ScoringFunction.table2d(
        {(0, 1): Fraction(0), (1, 1): Fraction(2), (1, 2): Fraction(1)}
    )
    one = ApprovalBallot(frozenset({A}))
    two = ApprovalBallot(frozenset({A, B}))
    assert ballot_score(f, one, frozenset({A})) == 2
    assert ballot_score(f, two, frozenset({A})) == 1
    with pytest.raises(TableOutOfRangeError):
        ballot_score(f, two, frozenset({A, B}))


def test_profile_scores(quad_profile):
    assert profile_score(AV, quad_profile, frozenset({A, B})) == 2
    assert profile_score(CC, quad_profile, frozenset({A, C})) == 3


def test_winning_pairs(quad_profile):
    assert winning_committees(AV, quad_profile, 2) == {
        frozenset({A, C}),
        frozenset({B, C}),
    }
    assert is_winning_committee(AV, quad_profile, frozenset({A, C}))
    assert not is_winning_committee(AV, quad_profile, frozenset({A, B}))


def test_winning_committees_checks_k(quad_profile):
    with pytest.raises(BadKError):
        winning_committees(AV, quad_profile, 0)
    with pytest.raises(BadKError):
        winning_committees(AV, quad_profile, 5)


def test_defeats(quad_profile):
    assert defeats(CC, quad_profile, frozenset({A, C}), D)
    tie = complete_profile(R2, [{A}, {B}])
    assert not defeats(AV, tie, frozenset({A}), B)


def test_defeats_argument_checks(quad_profile):
    with pytest.raises(CandidateInCommitteeError):
        defeats(AV, quad_profile, frozenset({A, C}), A)
    with pytest.raises(UnknownCandidateError):
        defeats(AV, quad_profile, frozenset({A, C}), 9)
    # Every member must be a candidate under every rule: a stray id is
    # refused, not scored as a candidate no voter approves.
    rules = (AV, PAV, CC, SAV, parse_rule_spec("table:0,2,3"))
    for f in rules:
        for stray in (9, -1):
            with pytest.raises(UnknownCandidateError):
                defeats(f, quad_profile, frozenset({A, stray}), C)
            with pytest.raises(UnknownCandidateError):
                is_winning_committee(f, quad_profile, frozenset({A, stray}))
    # A stray id can make W larger than the candidate list, with no rival.
    pair = complete_profile(R2, [{A}, {B}])
    for f in rules:
        with pytest.raises(UnknownCandidateError):
            is_winning_committee(f, pair, frozenset({A, B, 5}))


def test_profile_score_refuses_ids_that_name_no_candidate(quad_profile):
    for stray in (quad_profile.m, -1):
        with pytest.raises(UnknownCandidateError):
            profile_score(AV, quad_profile, frozenset({A, stray}))


def test_committee_size_checks():
    with pytest.raises(BadKError):
        check_committee_size(frozenset({A}), 2, 4)
    with pytest.raises(BadKError):
        check_committee_size(frozenset(), 0, 4)
    with pytest.raises(UnknownCandidateError):
        check_committee_size(frozenset({9}), 1, 4)


TABLE_VALUES = "0,2,3,7/2,4,4,9/2"
TABLE2D_ENTRIES = {
    (x, y): Fraction(x * (x + 1), 2 * y + 1) for y in range(7) for x in range(y + 1)
}
# Nonzero at overlap 0, so every committee also collects a constant term.
OFFSET_ENTRIES = {
    (x, y): Fraction(x * x + y, y + 1) for y in range(7) for x in range(y + 1)
}


def _table2d_rule(entries):
    return (
        ScoringFunction.table2d(entries),
        lambda approved, committee: entries[len(approved & committee), len(approved)],
    )


KERNEL_RULES = [(parse_rule_spec(name), score) for name, score in SCORERS.items()] + [
    (parse_rule_spec("table:" + TABLE_VALUES), table_score(TABLE_VALUES.split(","))),
    _table2d_rule(TABLE2D_ENTRIES),
    _table2d_rule(OFFSET_ENTRIES),
]
KERNEL_IDS = list(SCORERS) + ["table", "table2d", "table2d-offset"]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_fraction_oracle(data):
    if data.draw(st.booleans()):
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m))
        # Drawing voters from a small pool makes repeated ballots common
        # and mostly keeps the grouped scan.
        pool = data.draw(
            st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=4)
        )
        rows = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    else:
        # More distinct ballots than 2^k, each cast at least once, let the
        # co-approval table pay for rules that read 2^k entries too.
        m = data.draw(st.integers(4, 6))
        k = data.draw(st.integers(2, 3))
        pool = data.draw(
            st.lists(
                st.frozensets(st.integers(0, m - 1)),
                min_size=2**k + 1,
                max_size=2**m,
                unique=True,
            )
        )
        rows = pool + data.draw(st.lists(st.sampled_from(pool), max_size=8))
    profile = complete_profile(CandidateRegistry(tuple("abcdef"[:m])), rows)
    for rule, score in KERNEL_RULES:
        totals = {
            committee: sum((score(a, committee) for a in rows), Fraction(0))
            for committee in committees(m, k)
        }
        for scorer in (
            Scorer(rule, k, m, profile.ballots),
            Scorer(rule, k, m, profile.ballots, math.comb(m, k)),
        ):
            for committee, total in totals.items():
                assert Fraction(scorer.score(mask_of(committee)), scorer.scale) == total

        expected = winners(score, rows, m, k)
        assert winning_committees(rule, profile, k) == expected
        for committee in committees(m, k):
            assert is_winning_committee(rule, profile, committee) == (
                committee in expected
            )
            for cid in set(range(m)) - committee:
                beaten = all(
                    totals[rival] < totals[committee]
                    for rival in committees(m, k)
                    if cid in rival
                )
                assert defeats(rule, profile, committee, cid) == beaten


@pytest.mark.parametrize("rule, score", KERNEL_RULES, ids=KERNEL_IDS)
@pytest.mark.parametrize("k", [2, 3])
def test_scorer_reads_the_table_only_when_it_pays(rule, score, k):
    every = [frozenset(c) for size in range(7) for c in combinations(range(6), size)]
    # Every approval set of six candidates pays for the table; k distinct
    # ballots never do, since an additive rule still reads k entries.
    for rows, tabled in ((every, True), (every[-k:], False)):
        profile = complete_profile(CandidateRegistry(tuple("abcdef")), rows)
        scorer = Scorer(rule, k, 6, profile.ballots, math.comb(6, k))
        assert (scorer._weights is not None) == tabled
        for committee in committees(6, k):
            total = sum((score(a, committee) for a in rows), Fraction(0))
            assert Fraction(scorer.score(mask_of(committee)), scorer.scale) == total


def test_thiele_entries_are_shared_across_ballot_sizes():
    # A Thiele entry reads the overlap only; a short table still raises at
    # every read past its end, at any ballot size, and stores nothing there.
    scorer = Scorer(parse_rule_spec("table:0,1,3/2"), 3, 6)
    assert scorer.scale == 2
    assert [scorer[x, size] for x in range(3) for size in (2, 5)] == [0, 0, 2, 2, 3, 3]
    for size in (3, 4, 3):
        with pytest.raises(TableOutOfRangeError, match="^weight table has no entry for x = 3$"):
            scorer[3, size]
    assert (3, 0) not in scorer and (3, 3) not in scorer
    pav = Scorer(PAV, 3, 6)
    assert {pav[2, size] for size in range(2, 7)} == {pav.scale * 3 // 2}


def test_missing_table_entry_raises_only_where_a_scan_reaches_it():
    a, b, c, d, e, f = range(6)
    rows = [{a, b}, {a}, {b}, {d}, {e}, {d, e}, {e, f}]
    profile = complete_profile(CandidateRegistry(tuple("abcdef")), rows)
    # With w(2) present, these ballots are enough for the table to pay.
    full = Scorer(parse_rule_spec("table:0,1,1"), 2, 6, profile.ballots, math.comb(5, 1))
    assert full._weights is not None
    # table:0,1 lacks w(2). No ballot holds c, so no committee holding c
    # reaches overlap 2 and the defeat scan answers; {d, f} ties {c, e}.
    short = parse_rule_spec("table:0,1")
    assert not defeats(short, profile, frozenset({d, f}), c)
    # The full scan reaches {a, b}, which the ballot {a, b} overlaps twice.
    with pytest.raises(TableOutOfRangeError):
        winning_committees(short, profile, 2)


def _check_av_count_judgements(profile, k):
    """The AV count judgements, in rules and in the routes, against the
    committee scans.

    On a complete profile every AV canonical completion is the profile
    itself, so each route's answer is its count judgement alone.
    """
    m = profile.m
    partial = as_partial(profile)
    # Scores like AV, but the untagged table takes the committee scan.
    scanned_av = ScoringFunction.thiele(WeightFunction.table(range(k + 1)))
    counts = approval_counts(profile)
    assert counts == [profile_score(AV, profile, frozenset({c})) for c in range(m)]
    winners_ = winning_committees(AV, profile, k)
    for committee in committees_by_mask(m, k):
        assert poscom_av_3va(partial, committee).answer == (committee in winners_)
        assert is_winning_committee(AV, profile, committee) == is_winning_committee(
            scanned_av, profile, committee
        )
        for cid in set(range(m)) - committee:
            assert defeats(AV, profile, committee, cid) == defeats(
                scanned_av, profile, committee, cid
            )
    first = min(winners_, key=mask_of)

    def total(w):
        return sum(counts[c] for c in w)

    assert av_leader(counts, k) == (total(first), first)
    for cid in range(m):
        # The first holder in mask order among those with the best total.
        holders = [w for w in committees_by_mask(m, k) if cid in w]
        held = max(map(total, holders))
        lowest = next(w for w in holders if total(w) == held)
        assert av_leader(counts, k, cid) == (held, lowest)
        defeating = next(
            (
                w
                for w in committees_by_mask(m, k)
                if cid not in w and defeats(scanned_av, profile, w, cid)
            ),
            None,
        )
        assert necmem_av_3va(partial, cid, k).witness_committee == defeating
        decision = necmem_av_linear(partial, cid, k)
        assert decision.answer == any(cid in w for w in winners_)
        assert decision.witness_committee == (None if decision.answer else first)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_av_count_judgements_match_committee_scans(data):
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, m))
    # A small ballot pool makes tied approval counts common.
    pool = data.draw(
        st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=3)
    )
    rows = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    _check_av_count_judgements(
        complete_profile(CandidateRegistry(tuple("abcdef"[:m])), rows), k
    )


@pytest.mark.parametrize("m", [1, 2, 4])
def test_av_count_judgements_without_voters_and_at_k_equal_m(m):
    registry = CandidateRegistry(tuple("abcd"[:m]))
    for k in range(1, m + 1):
        _check_av_count_judgements(complete_profile(registry, []), k)
    tied = complete_profile(registry, [range(m), range(m), [0]])
    _check_av_count_judgements(tied, m)


def test_winner_scan_memory_grows_with_ties_not_committees():
    # C(18, 9) = 48,620 committees: a list of every mask and every score
    # would hold megabytes, the streamed scan only the running ties.
    rng = Random(18)
    rows = [rng.sample(range(18), 6) for _ in range(8)]
    profile = complete_profile(CandidateRegistry(tuple("abcdefghijklmnopqr")), rows)
    tracemalloc.start()
    try:
        best, winners = best_committees(PAV, profile, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert winners and all(profile_score(PAV, profile, w) == best for w in winners)
    assert [mask_of(w) for w in winners] == sorted(map(mask_of, winners))


def test_mask_order_small_case():
    got = list(committees_by_mask(5, 2))
    assert got[:4] == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({0, 3}),
    ]
    assert len(got) == 10


@given(st.integers(1, 8), st.data())
@settings(max_examples=80)
def test_mask_order_properties(m, data):
    k = data.draw(st.integers(0, m))
    got = list(committees_by_mask(m, k))
    masks = [sum(1 << c for c in s) for s in got]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)
    assert set(got) == {frozenset(c) for c in combinations(range(m), k)}


@given(st.integers(0, 10))
@settings(max_examples=30)
def test_weights_are_non_decreasing(x):
    for w in (
        WeightFunction.av(),
        WeightFunction.pav(),
        WeightFunction.cc(),
        WeightFunction.binary(4),
    ):
        assert eval_weight(w, x + 1) >= eval_weight(w, x)


def test_parse_rule_spec():
    assert parse_rule_spec("av") is AV
    assert parse_rule_spec("CC ") is CC
    assert parse_rule_spec("pav") is PAV
    assert parse_rule_spec("sav") is SAV
    assert parse_rule_spec("binary:2").binary_threshold == 2
    table = parse_rule_spec("table:0,1,3/2")
    assert table.weight.values == (0, 1, Fraction(3, 2))


@pytest.mark.parametrize(
    "spec",
    ["", "plurality", "binary:x", "binary:", "table:1,2", "table:0,1/0", "table:"],
)
def test_parse_rule_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_rule_spec(spec)
