"""Largest score differences and necessary-winner queries."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcu import (
    AV,
    ApprovalBallot,
    ApprovalProfile,
    BadKError,
    BadThresholdError,
    CandidateRegistry,
    CC,
    ModelMismatchError,
    NoPolyAlgorithmError,
    PAV,
    SAV,
    ScoringFunction,
    TableOutOfRangeError,
    UnknownCandidateError,
    ballot_score,
    binary_rule,
    committees_by_mask,
    is_completion,
    make_partial_ballot,
    max_diff_ballot,
    max_diff_profile,
    neccom,
    necmem,
    necmem_av_3va,
    necmem_binary_linear,
    parse_rule_spec,
    poscom_av_3va,
    poscom_binary_linear,
    profile_score,
    validate_partial_profile,
)
from conftest import A, B, C
from oracles import SCORERS, decide_all, max_diff, sav_score
from profilegen import random_committee, random_partial_profile
from reference_scans import neccom_scan
from test_possible import RULES, outcome

R3 = CandidateRegistry(("a", "b", "c"))
R4 = CandidateRegistry(("a", "b", "c", "d"))


def rows(profile):
    return [b.approved for b in profile.ballots]


def test_single_voter_extremes(pair_profile):
    undecided = pair_profile.ballots[1]
    diff, witness = max_diff_ballot(AV, undecided, frozenset({A}), frozenset({B}))
    assert diff == 1 and witness.approved == {B}
    fixed = pair_profile.ballots[0]
    diff, witness = max_diff_ballot(AV, fixed, frozenset({A}), frozenset({B}))
    assert diff == -1 and witness.approved == {A}


def test_score_differences_refuse_ids_that_name_no_candidate(pair_profile):
    # The ballot's three parts give max_diff_ballot the candidate count.
    ballot = pair_profile.ballots[1]
    for stray in (pair_profile.m, -1):
        for w, rival in ((frozenset({A}), frozenset({stray})), (frozenset({stray}), frozenset({B}))):
            with pytest.raises(UnknownCandidateError):
                max_diff_ballot(AV, ballot, w, rival)
            with pytest.raises(UnknownCandidateError):
                max_diff_profile(AV, pair_profile, w, rival)


def test_profile_maximum_decomposes(pair_profile):
    report = max_diff_profile(AV, pair_profile, frozenset({A}), frozenset({B}))
    assert report.per_voter == (Fraction(-1), Fraction(1))
    assert report.total == 0
    assert sum(report.per_voter) == report.total
    assert rows(report.witness) == [frozenset({A}), frozenset({B})]


def test_size_mismatch_is_rejected(pair_profile):
    with pytest.raises(BadKError):
        max_diff_profile(AV, pair_profile, frozenset({A}), frozenset({A, B}))


def test_order_constraints_restrict_the_maximum():
    # b can only be approved together with a, so b never gains on {a}
    ballot = make_partial_ballot([], [A, B], [C], R3, [(A, B)])
    diff, _ = max_diff_ballot(AV, ballot, frozenset({A}), frozenset({B}))
    assert diff == 0


def test_ballot_size_sensitive_rules_scan_prefix_lengths():
    # a fixed approval of the committee is best diluted by the whole
    # free middle: 0 - 1/3 beats the shorter ballots' -1 and -1/2
    ballot = make_partial_ballot([B], [C, 3], [A], R4)
    diff, witness = max_diff_ballot(SAV, ballot, frozenset({B}), frozenset({A}))
    assert diff == Fraction(-1, 3)
    assert witness.approved == {B, C, 3}


def test_overlap_only_rules_ignore_prefix_padding():
    ballot = make_partial_ballot([B], [C, 3], [A], R4)
    diff, witness = max_diff_ballot(AV, ballot, frozenset({B}), frozenset({A}))
    assert diff == -1
    assert witness.approved == {B}


def test_necessary_winner_on_the_pair(pair_profile):
    sure = neccom(AV, pair_profile, frozenset({A}), 1)
    assert sure.answer and sure.method_used == "max-score-difference"
    shaky = neccom(AV, pair_profile, frozenset({B}), 1)
    assert not shaky.answer
    assert shaky.witness_committee == frozenset({A})
    assert rows(shaky.witness) == [frozenset({A}), frozenset()]


def test_full_committee_is_always_necessary(trio_profile):
    decision = neccom(PAV, trio_profile, frozenset({A, B, C}), 3)
    assert decision.answer


def test_neccom_counterexamples_verify(pair_profile, trio_profile):
    for profile, f in ((pair_profile, AV), (trio_profile, PAV), (trio_profile, SAV)):
        for committee in ({A}, {B}):
            decision = neccom(f, profile, frozenset(committee), 1)
            if not decision.answer:
                assert is_completion(decision.witness, profile)
                assert profile_score(
                    f, decision.witness, decision.witness_committee
                ) > profile_score(f, decision.witness, frozenset(committee))


def test_necessary_members_on_the_pair(pair_profile):
    assert necmem(pair_profile, A, AV, 1).answer
    lost = necmem(pair_profile, B, AV, 1)
    assert not lost.answer
    assert rows(lost.witness) == [frozenset({A}), frozenset()]
    assert lost.witness_committee == frozenset({A})


def test_unordered_route_agrees_with_enumeration():
    wide = validate_partial_profile(
        [([], [A, B], [C]), ([C], [B], [A])], R3
    )
    for cid in (A, B, C):
        direct = necmem_av_3va(wide, cid, 1)
        brute = necmem(wide, cid, AV, 1, method="brute")
        assert direct.answer == brute.answer
        assert direct.method_used == "av-3va-defeat-scan"


def test_ordered_route_under_step_rules(trio_profile):
    decision = necmem(trio_profile, C, CC, 1)
    assert decision.answer
    assert decision.method_used == "binary-linear-defeat-scan"


def test_member_brute_route(trio_profile):
    keeps = necmem(trio_profile, C, SAV, 1)
    assert keeps.answer and keeps.method_used == "brute-force"
    drops = necmem(trio_profile, A, SAV, 1)
    assert not drops.answer
    assert rows(drops.witness) == [frozenset({A, B}), frozenset({C})]


def necmem_cell(t):
    """necmem's per-cell entry point for threshold t (None for av), and
    the dispatcher call it stands for."""
    if t is None:
        return (lambda p, c, k: necmem_av_3va(p, c, k),
                lambda p, c, k: necmem(p, c, AV, k, method="poly"))
    return (lambda p, c, k: necmem_binary_linear(p, c, k, t),
            lambda p, c, k: necmem(p, c, binary_rule(t), k, method="poly"))


@pytest.mark.parametrize("kind", ["3va", "linear"])
def test_necmem_entry_points_equal_the_dispatcher(kind):
    # Same Decision on random profiles of the cell, and the same error on
    # each single fault: a candidate id out of range, k out of range, a
    # threshold above k.
    rng = Random(29)
    answers = set()
    for _ in range(120):
        m = rng.randint(2, 6)
        profile = random_partial_profile(rng, rng.randint(1, 5), m, kind, 4)
        k = rng.randint(1, m)
        t = None if kind == "3va" else rng.randint(1, k)
        entry, dispatch = necmem_cell(t)
        c = rng.randrange(m)
        for case in ((c, k), (m, k), (-1, k), (c, 0), (c, m + 1)):
            got = outcome(lambda: entry(profile, *case))
            assert got == outcome(lambda: dispatch(profile, *case))
            if case == (c, k):
                answers.add(got.answer)
        if t is not None:
            entry, dispatch = necmem_cell(k + 1)
            got = outcome(lambda: entry(profile, c, k))
            assert got == outcome(lambda: dispatch(profile, c, k))
            assert got[0] is BadThresholdError
    assert answers == {True, False}


def test_entry_points_refuse_the_wrong_structure_first(trio_profile):
    # The dispatchers route such a profile elsewhere; the entry points
    # refuse it ahead of every argument check. The binary ones check
    # their arguments before building binary:t, so with a stray id and
    # t = 0 the id fault comes first.
    loose = validate_partial_profile([([], [A, B], [C])], R3)
    ordered, unordered = "profile carries order constraints", "profile middles are not totally ordered"
    faults = [
        (lambda: poscom_av_3va(trio_profile, frozenset({A, 9})), ordered),
        (lambda: necmem_av_3va(trio_profile, 9, 0), ordered),
        (lambda: poscom_binary_linear(loose, frozenset({A, 9}), 0), unordered),
        (lambda: necmem_binary_linear(loose, 9, 0, 5), unordered),
    ]
    for call, message in faults:
        assert outcome(call) == (ModelMismatchError, message)
    assert outcome(lambda: poscom_binary_linear(trio_profile, frozenset({A, 9}), 0)) == (
        UnknownCandidateError, "candidate id 9 out of range")
    assert outcome(lambda: necmem_binary_linear(trio_profile, B, 9, 0)) == (
        BadKError, "k = 9 out of range for 3 candidates")


def test_member_poly_refusal():
    wide = validate_partial_profile([([], [A, B], [C])], R3)
    with pytest.raises(NoPolyAlgorithmError, match="pav"):
        necmem(wide, A, PAV, 1, method="poly")


def test_random_maximum_agrees_with_enumeration():
    rng = Random(977)
    for trial in range(40):
        kind = ("3va", "linear", "poset")[trial % 3]
        name = list(SCORERS)[trial % len(SCORERS)]
        profile = random_partial_profile(
            rng, n=rng.randint(1, 3), m=rng.randint(2, 4), kind=kind, max_middle=2
        )
        k = rng.randint(1, min(2, profile.m))
        committee = random_committee(rng, profile.m, k)
        rival = random_committee(rng, profile.m, k)
        report = max_diff_profile(RULES[name], profile, committee, rival)
        assert report.total == max_diff(profile, SCORERS[name], committee, rival)
        assert is_completion(report.witness, profile)


def test_random_necessary_agreement_with_sweep_oracle():
    rng = Random(6310)
    for trial in range(60):
        kind = ("3va", "linear", "poset")[trial % 3]
        name = list(RULES)[trial % len(RULES)]
        least_m = 2 if name == "binary:2" else 1
        profile = random_partial_profile(
            rng, n=rng.randint(1, 3), m=rng.randint(least_m, 4), kind=kind,
            max_middle=2,
        )
        k = 2 if name == "binary:2" else rng.randint(1, min(2, profile.m))
        _pos, nec, _member_pos, member_nec = decide_all(
            profile, SCORERS[name], k
        )
        for committee, expected in nec.items():
            got = neccom(RULES[name], profile, committee, k)
            assert got.answer == expected, (trial, name, committee)
        for cid, expected in member_nec.items():
            got = necmem(profile, cid, RULES[name], k)
            assert got.answer == expected, (trial, name, cid)


def test_sav_prefix_lengths_affect_the_profile_maximum():
    # same contested picture, two free candidates; the assembled witness
    # must keep each voter's own best prefix length
    profile = validate_partial_profile(
        [([B], [C, 3], [A]), ([], [A], [B, C, 3])], R4
    )
    report = max_diff_profile(SAV, profile, frozenset({B}), frozenset({A}))
    assert report.per_voter == (Fraction(-1, 3), Fraction(1))
    assert report.total == max_diff(
        profile, sav_score, frozenset({B}), frozenset({A})
    )


def _topological_reference(ballot, elems):
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


def _reference_max_diff_ballot(f, ballot, committee, rival):
    """The Fraction per-voter scan max_diff_ballot replaced, kept verbatim."""
    contested = sorted(ballot.middle & (committee | rival))
    best = None
    best_ballot = None
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
        order = _topological_reference(ballot, free)
        base = ballot.top | closure | approved
        for j in range(len(order) + 1):
            candidate_ballot = ApprovalBallot(frozenset(base | set(order[:j])))
            diff = ballot_score(f, candidate_ballot, rival) - ballot_score(
                f, candidate_ballot, committee
            )
            if best is None or diff > best:
                best = diff
                best_ballot = candidate_ballot
    return best, best_ballot


REFERENCE_RULES = [
    *RULES.values(),
    parse_rule_spec("table:0,1,3/2,7/4,2,9/4,5/2"),
    ScoringFunction.table2d(
        {(x, y): Fraction(x * (x + 1), 2 * y + 1) for y in range(7) for x in range(y + 1)}
    ),
]


@st.composite
def scan_cases(draw):
    """One ballot with an order-free, linear or poset middle, and two
    committees whose sizes may differ."""
    m = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(m)))
    q = draw(st.integers(0, m))
    ranked, rest = ids[:q], ids[q:]
    cut = draw(st.integers(0, len(rest)))
    kind = draw(st.sampled_from(["3va", "linear", "poset"]))
    if kind == "3va":
        edges = []
    elif kind == "linear":
        edges = list(zip(ranked, ranked[1:]))
    else:
        pairs = [
            (ranked[i], ranked[j])
            for i in range(len(ranked))
            for j in range(i + 1, len(ranked))
        ]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    ballot = make_partial_ballot(rest[:cut], ranked, rest[cut:], registry, edges)
    committee = draw(st.frozensets(st.integers(0, m - 1)))
    rival = draw(st.frozensets(st.integers(0, m - 1)))
    return ballot, committee, rival


@given(scan_cases())
@settings(max_examples=300, deadline=None)
def test_integer_scan_matches_the_fraction_reference(case):
    ballot, committee, rival = case
    for f in REFERENCE_RULES:
        expected = _reference_max_diff_ballot(f, ballot, committee, rival)
        assert max_diff_ballot(f, ballot, committee, rival) == expected, f


NECCOM_RULES = [
    AV, PAV, CC, SAV, binary_rule(2),
    # entries for x = 0..2 only, so k >= 3 can reach a missing one
    parse_rule_spec("table:0,1,3/2"),
    # entries for ballots of at most 4 candidates only, peaking at size 2,
    # so the best padding can stop short of the whole free part
    ScoringFunction.table2d(
        {(x, y): Fraction(x * (3 if y == 2 else 1), y + 1) for y in range(5) for x in range(y + 1)}
    ),
]


def _outcome(query, *args):
    """A query's Decision, or the type and message of what it raised."""
    try:
        return query(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def neccom_cases(draw):
    """A profile of 1-6 voters drawn from 1-3 ballots of one structure
    (so ballots repeat), a committee size and a committee."""
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["3va", "linear", "poset"]))
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.permutations(range(m)))
        q = draw(st.integers(0, m))
        ranked, rest = ids[:q], ids[q:]
        cut = draw(st.integers(0, len(rest)))
        pairs = [(ranked[i], ranked[j]) for i in range(q) for j in range(i + 1, q)]
        if kind == "3va" or not pairs:
            edges = []
        elif kind == "linear":
            edges = list(zip(ranked, ranked[1:]))
        else:
            edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        pool.append((rest[:cut], ranked, rest[cut:], edges))
    voters = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    profile = validate_partial_profile(voters, registry)
    k = draw(st.integers(1, m))
    committee = draw(st.frozensets(st.integers(0, m - 1), min_size=k, max_size=k))
    return profile, committee, k


@given(neccom_cases())
@settings(max_examples=300, deadline=None)
def test_neccom_matches_the_set_reference(case):
    profile, committee, k = case
    rival = next((r for r in committees_by_mask(profile.m, k) if r != committee), None)
    for f in NECCOM_RULES:
        expected = _outcome(neccom_scan, f, profile, committee, k)
        assert _outcome(neccom, f, profile, committee, k) == expected, f
        if rival is None:
            continue
        # Each voter's entry and witness ballot is its own max_diff_ballot,
        # whether or not another voter casts the same ballot.
        report = _outcome(max_diff_profile, f, profile, committee, rival)
        voters = [_outcome(max_diff_ballot, f, b, committee, rival) for b in profile.ballots]
        failures = [v for v in voters if isinstance(v[0], type)]
        if failures:
            assert report == failures[0], f
        else:
            assert report.per_voter == tuple(diff for diff, _ in voters), f
            assert report.witness.ballots == tuple(ballot for _, ballot in voters), f
            assert report.total == sum(report.per_voter), f


def test_a_bound_reading_a_missing_entry_leaves_the_error_to_the_scan():
    # The first rival {0, 1, 2} scans exactly and loses; the bound of the
    # next one, {0, 1, 3}, would read w(3), which the table lacks.
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(7)))
    everyone = set(range(7))
    records = [([0, 1], [], everyone - {0, 1}), ([0, 3], [1], everyone - {0, 1, 3})]
    records += [(list(pair), [], everyone - set(pair)) for pair in ((4, 5), (5, 6), (4, 6))]
    profile = validate_partial_profile(records, registry)
    rule = parse_rule_spec("table:0,1,3/2")
    committee = frozenset({4, 5, 6})
    expected = _outcome(neccom_scan, rule, profile, committee, 3)
    assert expected == (TableOutOfRangeError, "weight table has no entry for x = 3")
    assert _outcome(neccom, rule, profile, committee, 3) == expected


def near_tie(m, k, extra=()):
    """W = {0..k-1} against chains "w above o" for every member w and
    outsider o, plus k - 1 voters approving each member alone, plus the
    ``extra`` tops. Every rival's bound is positive, since the widest
    completion approves every chain; without ``extra`` every rival's
    exact maximum is at most 0, since approving o brings its w along."""
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    everyone = set(range(m))
    records = [
        ([], [w, o], everyone - {w, o}, [(w, o)]) for w in range(k) for o in range(k, m)
    ]
    records += [([w], [], everyone - {w}) for w in range(k) for _ in range(k - 1)]
    records += [(list(top), [], everyone - set(top)) for top in extra]
    return validate_partial_profile(records, registry), frozenset(range(k))


def _bounded_rivals(f, profile, committee, k):
    """The rivals whose bound (widest completion against narrowest) is positive."""
    def completion(part):
        return ApprovalProfile(
            profile.registry, tuple(ApprovalBallot(b.top | part(b)) for b in profile.ballots)
        )
    floor = profile_score(f, completion(lambda b: frozenset()), committee)
    widest = completion(lambda b: b.middle)
    return [
        r for r in committees_by_mask(profile.m, k)
        if r != committee and profile_score(f, widest, r) > floor
    ]


@pytest.mark.parametrize("f", [AV, PAV])
def test_near_ties_scan_every_rival_the_bound_keeps(f):
    m, k = 9, 3
    rivals = math.comb(m, k) - 1
    for extra, answer in (((), True), (((m - 2, m - 1),) * 2, False)):
        profile, committee = near_tie(m, k, extra)
        assert len(_bounded_rivals(f, profile, committee, k)) == rivals
        decision = neccom(f, profile, committee, k)
        assert decision == neccom_scan(f, profile, committee, k)
        assert decision.answer is answer
