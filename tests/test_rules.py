"""Weight functions, committee scores, winner scans, rule parsing."""

import sys
import threading
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
from abcu import rules
from abcu.model import ApprovalBallot, members_of
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


def test_pav_weights_stay_exact_under_threads():
    # Each kept harmonic number depends on x alone, so threads that fill
    # the cache at once cannot store a wrong one for later scores to read.
    pav = WeightFunction.pav()
    exact = [Fraction(0)]
    for i in range(1, 151):
        exact.append(exact[-1] + Fraction(1, i))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rules._harmonic.cache_clear()
            got = []
            threads = [
                threading.Thread(target=lambda: got.append(eval_weight(pav, 150)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [exact[150]] * 4
            assert [eval_weight(pav, x) for x in range(151)] == exact
    finally:
        sys.setswitchinterval(interval)


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
        # More distinct ballots than 2^k, each cast at least once, so
        # voters reach every counter level.
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
        scorer = Scorer(rule, k, m, profile.ballots)
        for committee, total in totals.items():
            assert Fraction(scorer.score(mask_of(committee)), scorer.scale) == total
        walked = {members_of(mask): score for mask, score in scorer.walk()}
        assert walked.keys() == totals.keys()
        for committee, total in totals.items():
            assert Fraction(walked[committee], scorer.scale) == total

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
    # The table is now the scorer's level counters, which pay only for a
    # row whose steps differ. av and sav add one step per member at every
    # ballot size, so each committee reads its members' totals and no
    # counter. Every other rule here keeps the counters up to its last
    # nonzero step: level t for a 0/1 step at t, level k otherwise, as
    # every row set holds a ballot of at least k candidates.
    levels = 0 if rule in (AV, SAV) else rule.binary_threshold or k
    for rows in (every, every[-k:]):
        profile = complete_profile(CandidateRegistry(tuple("abcdef")), rows)
        scorer = Scorer(rule, k, 6, profile.ballots)
        assert len(scorer._start) == levels + 1
        assert scorer._guards == []
        for committee in committees(6, k):
            total = sum((score(a, committee) for a in rows), Fraction(0))
            assert Fraction(scorer.score(mask_of(committee)), scorer.scale) == total


# Linear in the overlap at every ballot size, with a constant term.
ADDITIVE_ENTRIES = {
    (x, y): Fraction(2 * x + y, y + 1) for y in range(9) for x in range(y + 1)
}
# The kernel rules, an additive table2d and a short table. table2d and
# table2d-offset have no entries for ballots of 7 or 8 candidates.
CONTRACT_RULES = KERNEL_RULES + [
    _table2d_rule(ADDITIVE_ENTRIES),
    (parse_rule_spec("table:0,1,3/2"), table_score(["0", "1", "3/2"])),
]


def _oracle(rule, score, rows, committee):
    """The committee's exact score, or the message a scan over the rows
    raises at the first row whose entry is missing."""
    total = Fraction(0)
    for a in rows:
        try:
            total += score(a, committee)
        except (IndexError, KeyError):
            with pytest.raises(TableOutOfRangeError) as caught:
                ballot_score(rule, ApprovalBallot(a), committee)
            return str(caught.value)
    return total


@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, m), st.integers(0, m - 1),
    st.lists(st.frozensets(st.integers(0, m - 1)), max_size=10))))
@settings(max_examples=80, deadline=None)
def test_walk_and_score_match_the_fraction_oracle(case):
    # The walk's leaves are committee_masks, or those holding the held
    # candidate, and every score equals the oracle's. Where a row's entry
    # is missing, score(mask) raises the scan's message, and so does the
    # walk when it reaches that committee, having yielded every earlier
    # one; av, pav and cc miss no entry, so their walks reach the end.
    m, k, held, rows = case
    profile = complete_profile(CandidateRegistry(tuple("abcdefgh"[:m])), rows)
    masks = list(rules.committee_masks(m, k))
    for rule, score in CONTRACT_RULES:
        scorer = Scorer(rule, k, m, profile.ballots)
        expected = {mask: _oracle(rule, score, rows, members_of(mask)) for mask in masks}
        for mask, want in expected.items():
            if isinstance(want, str):
                with pytest.raises(TableOutOfRangeError) as caught:
                    scorer.score(mask)
                assert str(caught.value) == want
            else:
                assert Fraction(scorer.score(mask), scorer.scale) == want
        for chosen in (None, held):
            walk = scorer.walk(chosen)
            for mask in masks:
                if chosen is not None and not mask >> chosen & 1:
                    continue
                want = expected[mask]
                if isinstance(want, str):
                    with pytest.raises(TableOutOfRangeError) as caught:
                        next(walk)
                    assert str(caught.value) == want
                    break
                leaf, got = next(walk)
                assert leaf == mask and Fraction(got, scorer.scale) == want
            else:
                assert next(walk, None) is None


def test_thiele_entries_are_shared_across_ballot_sizes():
    # A Thiele entry reads the overlap only; a short table still raises at
    # every read past its end, at any ballot size, and stores nothing there.
    table = rules.entry_table(parse_rule_spec("table:0,1,3/2"), 3, 6)
    assert table.scale == 2
    assert [table[x, size] for x in range(3) for size in (2, 5)] == [0, 0, 2, 2, 3, 3]
    for size in (3, 4, 3):
        with pytest.raises(TableOutOfRangeError, match="^weight table has no entry for x = 3$"):
            table[3, size]
    assert (3, 0) not in table and (3, 3) not in table
    pav = rules.entry_table(PAV, 3, 6)
    assert {pav[2, size] for size in range(2, 7)} == {pav.scale * 3 // 2}


def test_missing_table_entry_raises_only_where_a_scan_reaches_it():
    a, b, c, d, e, f = range(6)
    rows = [{a, b}, {a}, {b}, {d}, {e}, {d, e}, {e, f}]
    profile = complete_profile(CandidateRegistry(tuple("abcdef")), rows)
    # With w(2) present no committee needs the scan over the ballots.
    full = Scorer(parse_rule_spec("table:0,1,1"), 2, 6, profile.ballots)
    assert full._guards == []
    # table:0,1 lacks w(2), so a committee whose counters reach level 2
    # is scored by the scan over the ballots. No ballot holds c, so no
    # committee holding c reaches overlap 2 and the defeat scan answers;
    # {d, f} ties {c, e}.
    short = parse_rule_spec("table:0,1")
    assert Scorer(short, 2, 6, profile.ballots)._guards == [(2, (1 << len(rows)) - 1)]
    assert not defeats(short, profile, frozenset({d, f}), c)
    # The full scan reaches {a, b}, which the ballot {a, b} overlaps twice.
    with pytest.raises(TableOutOfRangeError):
        winning_committees(short, profile, 2)


# One rule of each kind an entry table is built for.
ENTRY_RULES = [
    AV, PAV, CC, binary_rule(2), parse_rule_spec("table:0,1,3/2"), SAV,
    ScoringFunction.table2d(TABLE2D_ENTRIES),
]


def test_scorer_entries_equal_a_fresh_computation():
    # Each entry read from a rule's shared table, cold and then warm, is
    # the rule's exact entry times its scale, computed afresh; a missing
    # entry raises the fresh computation's message and is never stored.
    rules._cached_table.cache_clear()
    for rule in ENTRY_RULES:
        for m in range(1, 6):
            for k in range(1, m + 1):
                scale = rules._scale(rule, k, m)
                for _ in range(2):
                    table = rules.entry_table(rule, k, m)
                    assert table.scale == scale
                    for size in range(m, -1, -1):
                        for x in range(k + 1):
                            try:
                                want = int(rules._entry(rule, x, size) * scale)
                            except TableOutOfRangeError as exc:
                                with pytest.raises(TableOutOfRangeError) as caught:
                                    table[x, size]
                                assert str(caught.value) == str(exc)
                                assert (x, size) not in table
                            else:
                                assert table[x, size] == want, (rule.label, k, m, x, size)


def test_equal_table2d_rules_share_one_table():
    first = ScoringFunction.table2d(TABLE2D_ENTRIES)
    second = ScoringFunction.table2d(dict(reversed(TABLE2D_ENTRIES.items())))
    assert first.entries is not second.entries
    assert rules.entry_table(first, 2, 5) is rules.entry_table(second, 2, 5)
    assert rules.entry_table(first, 2, 5) is not rules.entry_table(first, 3, 5)


def test_a_changed_table2d_rule_gets_its_new_entries():
    entries = {(x, y): Fraction(x) for y in range(4) for x in range(y + 1)}
    rule = ScoringFunction.table2d(entries)
    few = complete_profile(CandidateRegistry(tuple("abc")), [{A}, {A}, {B, C}])
    more = complete_profile(CandidateRegistry(tuple("abc")), [{A}, {A}, {B, C}, {A, B, C}])
    assert best_committees(rule, few, 1) == (2, [frozenset({A})])
    # A rule's dict is plain, so it can change after a query; the rule
    # then reads its new entries.
    for x in (1, 2, 3):
        rule.entries[x, 3] = Fraction(5)
    assert best_committees(rule, more, 1) == (7, [frozenset({A})])
    # A rule with the first entries still reads them, also an entry that
    # the table keyed by them had not read before the change.
    assert best_committees(ScoringFunction.table2d(entries), more, 1) == (3, [frozenset({A})])


@pytest.mark.parametrize("rule, score", [
    (parse_rule_spec("table:0,1"), table_score(["0", "1"])),
    _table2d_rule({(x, y): Fraction(x, y) for y in range(1, 7) for x in range(2)}),
], ids=["table", "table2d"])
def test_a_missing_entry_raises_where_a_scan_reaches_it_from_a_cold_or_warm_table(rule, score):
    # The walk yields every committee before the first one a scan over
    # the rows cannot score, then raises the message of that scan's first
    # row without the entry, whether the shared table is new or already
    # holds every entry the rows have.
    a, b, c, d, e, f = range(6)
    rows = [{a}, {d}, {c, d, e, f}, {a, e}, {c, d}, {e, f}]
    profile = complete_profile(CandidateRegistry(tuple("abcdef")), rows)
    masks = list(rules.committee_masks(6, 2))
    faults = [(i, _oracle(rule, score, rows, members_of(mask))) for i, mask in enumerate(masks)]
    first, message = next((i, want) for i, want in faults if isinstance(want, str))
    rules._cached_table.cache_clear()
    for _ in range(2):
        walked = []
        with pytest.raises(TableOutOfRangeError) as caught:
            for mask, _score in Scorer(rule, 2, 6, profile.ballots).walk():
                walked.append(mask)
        assert (walked, str(caught.value)) == (masks[:first], message)
        with pytest.raises(TableOutOfRangeError) as caught:
            winning_committees(rule, profile, 2)
        assert str(caught.value) == message
        warm = rules.entry_table(rule, 2, 6)
        for key in [(x, size) for size in range(7) for x in range(3)]:
            try:
                warm[key]
            except TableOutOfRangeError:
                pass
    assert first == 5


def test_the_entry_cache_holds_at_most_its_fixed_size():
    rules._cached_table.cache_clear()
    assert rules._cached_table.cache_info().maxsize == rules._TABLES
    for i in range(rules._TABLES + 20):
        rules.entry_table(parse_rule_spec(f"table:0,1,{i + 1}"), 2, 3)
        assert rules._cached_table.cache_info().currsize <= rules._TABLES
    assert rules._cached_table.cache_info().currsize == rules._TABLES


def test_scores_stay_exact_when_threads_build_tables_at_once():
    # An entry depends on its rule, k, m and key alone, so threads that
    # build and fill the same tables at once store equal ints: every
    # thread's scores equal the serial ones. At most 8 threads run.
    rows = [frozenset(c) for size in range(6) for c in combinations(range(5), size)][::2]
    profile = complete_profile(CandidateRegistry(tuple("abcde")), rows)
    jobs = [(rule, k) for rule in ENTRY_RULES for k in (1, 2)]

    def scores(rule, k):
        return list(Scorer(rule, k, 5, profile.ballots).walk())

    rules._cached_table.cache_clear()
    serial = [scores(rule, k) for rule, k in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            rules._cached_table.cache_clear()
            got = {}

            def work(t):
                order = [(i + t) % len(jobs) for i in range(len(jobs))]
                got[t] = {i: scores(*jobs[i]) for i in order}

            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [got.get(t) for t in range(8)] == [dict(enumerate(serial))] * 8
    finally:
        sys.setswitchinterval(interval)


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
