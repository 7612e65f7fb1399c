"""Possible-winner and possible-member queries."""

import re
from random import Random

import pytest

from abcu import (
    AV,
    BadThresholdError,
    CandidateRegistry,
    CapExceededError,
    CC,
    ModelMismatchError,
    NoPolyAlgorithmError,
    PAV,
    SAV,
    UnknownCandidateError,
    binary_rule,
    is_completion,
    is_linearly_ordered,
    is_three_valued,
    is_winning_committee,
    necmem,
    poscom,
    poscom_av_3va,
    poscom_binary_linear,
    poscom_brute,
    posmem,
    posmem_av_linear,
    validate_partial_profile,
)
from abcu.model import PartialBallot, PartialProfile, completion_by
from abcu.possible import route
from conftest import A, B, C
from oracles import SCORERS, decide_all
from profilegen import random_committee, random_partial_profile
from reference_scans import threshold_completion

RULES = {
    "av": AV,
    "pav": PAV,
    "cc": CC,
    "sav": SAV,
    "binary:2": binary_rule(2),
}


def rows(profile):
    return [b.approved for b in profile.ballots]


def test_undecided_voter_makes_both_singletons_possible(pair_profile):
    top = poscom(pair_profile, frozenset({A}), AV, 1)
    assert top.answer and top.method_used == "av-3va-canonical"
    assert rows(top.witness) == [frozenset({A}), frozenset()]
    other = poscom(pair_profile, frozenset({B}), AV, 1)
    assert other.answer
    assert rows(other.witness) == [frozenset({A}), frozenset({B})]


def test_witnesses_are_completions_where_the_committee_wins(pair_profile):
    decision = poscom(pair_profile, frozenset({B}), AV, 1)
    assert is_completion(decision.witness, pair_profile)
    assert is_winning_committee(AV, decision.witness, frozenset({B}))


def test_av_linear_routes_walk_the_ballots_once(trio_profile, monkeypatch):
    # route and the AV-linear route it picks read the answers kept on the
    # profile, so each ballot's structure is read once per profile; the
    # kept answers take no part in eq, hash or repr.
    fresh = PartialProfile(trio_profile.registry, trio_profile.ballots)
    reads = []
    for name in ("is_three_valued", "is_totally_ordered"):
        method = getattr(PartialBallot, name)
        monkeypatch.setattr(PartialBallot, name,
                            lambda b, method=method, name=name: reads.append(name) or method(b))
    assert posmem(trio_profile, A, AV, 1).method_used == "av-linear-prefix"
    assert posmem(trio_profile, A, AV, 1, method="poly").method_used == "av-linear-prefix"
    assert necmem(trio_profile, A, AV, 1).method_used == "av-linear-canonical"
    assert reads.count("is_totally_ordered") == trio_profile.n
    assert reads.count("is_three_valued") <= trio_profile.n
    assert vars(trio_profile).keys() >= {"three_valued", "linearly_ordered"}
    assert trio_profile == fresh and hash(trio_profile) == hash(fresh)
    assert repr(trio_profile) == repr(fresh)


def test_ordered_profile_routes_binary_rules(trio_profile):
    decision = poscom(trio_profile, frozenset({A}), CC, 1)
    assert decision.answer
    assert decision.method_used == "binary-linear-prefix"


def test_singleton_middles_take_the_documented_routes(pair_profile):
    # Middles of at most one candidate are both order-free and totally
    # ordered: poscom and necmem take the order-free AV route, posmem
    # its direct AV prefix route, and cc the totally ordered ones.
    assert is_three_valued(pair_profile) and is_linearly_ordered(pair_profile)
    expected = {
        AV: ("av-3va-canonical", "av-linear-prefix", "av-3va-defeat-scan"),
        CC: ("binary-linear-prefix", "poscom-iteration", "binary-linear-defeat-scan"),
    }
    for rule, methods in expected.items():
        got = (
            poscom(pair_profile, frozenset({A}), rule, 1).method_used,
            posmem(pair_profile, A, rule, 1).method_used,
            necmem(pair_profile, A, rule, 1).method_used,
        )
        assert got == methods


def test_ordered_profile_falls_back_to_enumeration(trio_profile):
    decision = poscom(trio_profile, frozenset({B}), AV, 1)
    assert decision.answer
    assert decision.method_used == "brute-force"
    # the tie needs v1's first two ranks approved
    assert rows(decision.witness) == [frozenset({A, B}), frozenset({C})]


def test_poly_refusal_names_the_rule(trio_profile):
    with pytest.raises(NoPolyAlgorithmError, match="av"):
        poscom(trio_profile, frozenset({B}), AV, 1, method="poly")
    with pytest.raises(NoPolyAlgorithmError, match="pav"):
        posmem(trio_profile, B, PAV, 1, method="poly")


def test_direct_routes_reject_wrong_structure(pair_profile, trio_profile):
    with pytest.raises(ModelMismatchError):
        poscom_av_3va(trio_profile, frozenset({A}))
    loose = validate_partial_profile(
        [([], [A, B], [C])], CandidateRegistry(("a", "b", "c"))
    )
    with pytest.raises(ModelMismatchError):
        poscom_binary_linear(loose, frozenset({A}), 1)
    with pytest.raises(ModelMismatchError):
        posmem_av_linear(loose, A, 1)


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def poscom_cell(t):
    """poscom's per-cell entry point for threshold t (None for av), and
    the dispatcher call it stands for."""
    if t is None:
        return (lambda p, w: poscom_av_3va(p, w),
                lambda p, w: poscom(p, w, AV, len(w), method="poly"))
    return (lambda p, w: poscom_binary_linear(p, w, t),
            lambda p, w: poscom(p, w, binary_rule(t), len(w), method="poly"))


@pytest.mark.parametrize("kind", ["3va", "linear"])
def test_poscom_entry_points_equal_the_dispatcher(kind):
    # Same Decision on random profiles of the cell, and the same error on
    # each single fault: an id that names no candidate, k out of range,
    # a threshold above k.
    rng = Random(23)
    answers = set()
    for _ in range(120):
        m = rng.randint(2, 6)
        profile = random_partial_profile(rng, rng.randint(1, 5), m, kind, 4)
        k = rng.randint(1, m)
        t = None if kind == "3va" else rng.randint(1, k)
        entry, dispatch = poscom_cell(t)
        w = random_committee(rng, m, k)
        for case in (w, frozenset({0, m}), frozenset({0, -1}), frozenset()):
            got = outcome(lambda: entry(profile, case))
            assert got == outcome(lambda: dispatch(profile, case))
            if case is w:
                answers.add(got.answer)
        if t is not None:
            entry, dispatch = poscom_cell(k + 1)
            got = outcome(lambda: entry(profile, w))
            assert got == outcome(lambda: dispatch(profile, w))
            assert got[0] is BadThresholdError
    assert answers == {True, False}


def test_canonical_routes_build_the_reference_completions():
    # The binary-linear route cuts each ranking where middle_sequence
    # would; the order-free av route approves each voter's undecided
    # W-members.
    rng = Random(31)
    for _ in range(200):
        m = rng.randint(1, 6)
        k = rng.randint(1, min(3, m))
        t = rng.randint(1, k)
        w = random_committee(rng, m, k)
        linear = random_partial_profile(rng, rng.randint(1, 5), m, "linear", 5)
        name, build = route("poscom", linear, binary_rule(t), "auto")
        assert name == "binary-linear-prefix"
        assert build(w) == threshold_completion(linear, w, t)
        flat = random_partial_profile(rng, rng.randint(1, 5), m, "3va", 5)
        name, build = route("poscom", flat, AV, "auto")
        assert name == "av-3va-canonical"
        assert build(w) == completion_by(flat, lambda b: b.middle & w)


def test_threshold_above_committee_size_is_rejected(trio_profile):
    with pytest.raises(BadThresholdError):
        poscom(trio_profile, frozenset({A}), binary_rule(2), 1)
    # same refusal on a profile that would have taken the brute route
    loose = validate_partial_profile(
        [([], [A, B], [C])], CandidateRegistry(("a", "b", "c"))
    )
    with pytest.raises(BadThresholdError):
        poscom(loose, frozenset({A}), binary_rule(2), 1, method="brute")


def test_brute_respects_the_cap(pair_profile):
    with pytest.raises(CapExceededError):
        poscom(pair_profile, frozenset({A}), AV, 1, method="brute", cap=1)


def test_method_argument_is_checked(pair_profile):
    with pytest.raises(ValueError):
        poscom(pair_profile, frozenset({A}), AV, 1, method="fast")


def test_possible_members_on_ordered_profile(trio_profile):
    for cid in (A, B, C):
        decision = posmem(trio_profile, cid, AV, 1)
        assert decision.answer
        assert decision.method_used == "av-linear-prefix"
        assert cid in decision.witness_committee
    with pytest.raises(UnknownCandidateError):
        posmem(trio_profile, 7, AV, 1)


def test_member_query_iterates_possible_winner_calls():
    registry = CandidateRegistry(("a", "b", "c"))
    open_pair = validate_partial_profile([([], [A, B], [C])], registry)
    decision = posmem(open_pair, A, AV, 1)
    assert decision.answer
    assert decision.method_used == "poscom-iteration"
    assert decision.witness_committee == frozenset({A})


def test_member_query_brute_route(trio_profile):
    decision = posmem(trio_profile, B, SAV, 1)
    assert decision.method_used == "brute-force"
    # v2's whole ballot is {c}, worth a full point no ballot of v1 can
    # match for b: b peaks at 1/2 while c holds at least 1
    assert not decision.answer
    alt = posmem(trio_profile, C, SAV, 1)
    assert alt.answer and alt.witness_committee == frozenset({C})


def test_random_agreement_with_sweep_oracle():
    rng = Random(4021)
    for trial in range(60):
        kind = ("3va", "linear", "poset")[trial % 3]
        name = list(RULES)[trial % len(RULES)]
        # a step rule needs a committee its threshold can reach
        least_m = 2 if name == "binary:2" else 1
        profile = random_partial_profile(
            rng, n=rng.randint(1, 3), m=rng.randint(least_m, 4), kind=kind,
            max_middle=2,
        )
        k = 2 if name == "binary:2" else rng.randint(1, min(2, profile.m))
        pos, _nec, member_pos, _member_nec = decide_all(
            profile, SCORERS[name], k
        )
        for committee, expected in pos.items():
            got = poscom(profile, committee, RULES[name], k)
            assert got.answer == expected, (trial, name, committee)
            if got.answer:
                assert is_completion(got.witness, profile)
                assert is_winning_committee(RULES[name], got.witness, committee)
        for cid, expected in member_pos.items():
            got = posmem(profile, cid, RULES[name], k)
            assert got.answer == expected, (trial, name, cid)


def test_brute_witness_is_first_in_voter_major_order(pair_profile):
    decision = poscom_brute(pair_profile, frozenset({B}), AV, 1)
    # v2 = {} already ties b with a at 0? no: a scores 1, so the witness
    # must be the second completion, v2 = {b}
    assert rows(decision.witness) == [frozenset({A}), frozenset({B})]


def test_every_query_keeps_the_route_contract():
    # poscom, posmem and necmem alike: "poly" answers as "auto" on every
    # route and refuses exactly where "auto" enumerates; "brute" always
    # enumerates and answers as "auto"; any other method is refused.
    rng = Random(2026)
    shapes = (("3va", 3), ("linear", 3), ("poset", 3), ("3va", 1))  # last: singleton middles
    seen = set()
    for trial in range(120):
        kind, max_middle = shapes[trial % len(shapes)]
        name = list(RULES)[trial // len(shapes) % len(RULES)]
        f = RULES[name]
        least_m = 2 if name == "binary:2" else 1
        profile = random_partial_profile(
            rng, n=rng.randint(1, 3), m=rng.randint(least_m, 4), kind=kind,
            max_middle=max_middle,
        )
        if max_middle == 1:
            assert is_three_valued(profile) and is_linearly_ordered(profile)
        k = 2 if name == "binary:2" else rng.randint(1, min(2, profile.m))
        committee = random_committee(rng, profile.m, k)
        candidate = rng.randrange(profile.m)
        for query in (
            lambda method: poscom(profile, committee, f, k, method=method),
            lambda method: posmem(profile, candidate, f, k, method=method),
            lambda method: necmem(profile, candidate, f, k, method=method),
        ):
            auto, brute = query("auto"), query("brute")
            seen.add(auto.method_used)
            assert brute.method_used == "brute-force"
            assert brute.answer == auto.answer, (trial, name)
            if auto.method_used == "brute-force":
                assert brute == auto
                refusal = f"no polynomial route for rule {f.label!r} on this profile"
                with pytest.raises(NoPolyAlgorithmError, match=re.escape(refusal)):
                    query("poly")
            else:
                assert query("poly") == auto
            with pytest.raises(ValueError, match="unknown method 'fast'"):
                query("fast")
    assert seen == {
        "av-3va-canonical", "binary-linear-prefix", "av-linear-prefix", "poscom-iteration",
        "av-3va-defeat-scan", "binary-linear-defeat-scan", "av-linear-canonical",
        "brute-force",
    }
