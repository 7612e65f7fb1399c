"""Covering-problem gadgets, their solvers and the weight translation."""

from fractions import Fraction
from random import Random

import pytest

from abcu import (
    CandidateRegistry,
    DivisibilityError,
    OneInThreeInstance,
    PartialBallot,
    PartialProfile,
    ProfileSyntaxError,
    TooLargeError,
    WeightFunction,
    X3CInstance,
    build_cc_3va,
    build_linear_x3c,
    eval_weight,
    pad_profile,
    parse_one_in_three,
    parse_rule_spec,
    parse_x3c,
    poscom,
    solve_one_in_three_brute,
    solve_x3c_brute,
    verify_weight_relation,
)
from abcu.reductions import SOLVER_LIMIT
from profilegen import random_one_in_three, random_x3c

T1, T2 = frozenset({0, 1, 2}), frozenset({3, 4, 5})
OVERLAPPING = frozenset({2, 3, 4})


@pytest.mark.parametrize(
    "size,triples",
    [
        (0, ()),
        (4, ()),
        (6, (frozenset({0, 1}),)),
        (6, (frozenset({0, 1, 6}),)),
    ],
)
def test_cover_instances_are_validated(size, triples):
    with pytest.raises(ValueError):
        X3CInstance(size, triples)


@pytest.mark.parametrize(
    "count,clauses",
    [
        (-1, ()),
        (3, (frozenset({0, 1}),)),
        (3, (frozenset({0, 1, 3}),)),
    ],
)
def test_clause_instances_are_validated(count, clauses):
    with pytest.raises(ValueError):
        OneInThreeInstance(count, clauses)


def test_cover_solver():
    assert solve_x3c_brute(X3CInstance(6, (T1, T2)))
    assert not solve_x3c_brute(X3CInstance(6, (T1, OVERLAPPING)))
    assert not solve_x3c_brute(X3CInstance(6, (T1,)))
    padded = (T1,) * (SOLVER_LIMIT + 1)
    with pytest.raises(TooLargeError):
        solve_x3c_brute(X3CInstance(3, padded))


def test_clause_solver():
    assert solve_one_in_three_brute(OneInThreeInstance(0, ()))
    assert solve_one_in_three_brute(OneInThreeInstance(3, (frozenset({0, 1, 2}),)))
    spread = tuple(frozenset(c) for c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert not solve_one_in_three_brute(OneInThreeInstance(4, spread))
    with pytest.raises(TooLargeError):
        solve_one_in_three_brute(OneInThreeInstance(SOLVER_LIMIT + 1, ()))


def test_clause_gadget_shape():
    instance = OneInThreeInstance(3, (frozenset({0, 1, 2}),))
    out = build_cc_3va(instance)
    assert out.rule_spec == "cc"
    assert out.k == 2
    assert out.profile.registry.names == ("S1", "w1", "w2")
    assert out.target == {1, 2}
    assert out.profile.n == instance.num_elements + 6
    # element voters keep the target pair open with no internal order
    for b in out.profile.ballots[: instance.num_elements]:
        assert b.middle == out.target and not b.precedence


def test_clause_gadget_tracks_solvability():
    yes = OneInThreeInstance(3, (frozenset({0, 1, 2}),))
    spread = tuple(frozenset(c) for c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    no = OneInThreeInstance(4, spread)
    for instance in (yes, no):
        out = build_cc_3va(instance)
        decision = poscom(out.profile, out.target, out.rule, out.k, method="brute")
        assert decision.answer == solve_one_in_three_brute(instance)


def test_cover_gadget_shape():
    out = build_linear_x3c(X3CInstance(6, (T1, T2)), Fraction(1))
    assert out.k == 2
    assert out.rule_spec == "table:0,1,2"
    names = out.profile.registry.names
    assert names[:6] == ("u1", "u2", "u3", "u4", "u5", "u6")
    assert names[6:] == ("c", "d", "z")
    assert out.target == {6, 7}
    first = out.profile.ballots[0]
    assert first.middle == T1 | {6}
    # the triple is chained below c, so approving c approves everything
    assert first.forced_by(6) == T1 | {6}


def test_cover_gadget_ballots_are_closed_and_complete():
    out = build_linear_x3c(X3CInstance(6, (T1, OVERLAPPING)), Fraction(1))
    c = 6
    # Each set voter ranks its triple in id order above c, transitively closed.
    assert out.profile.ballots[0].precedence == {
        (0, 1), (0, 2), (0, c), (1, 2), (1, c), (2, c),
    }
    assert out.profile.ballots[1].precedence == {
        (2, 3), (2, 4), (2, c), (3, 4), (3, c), (4, c),
    }
    everyone = frozenset(range(9))
    for ballot in out.profile.ballots:
        assert ballot.top | ballot.middle | ballot.bottom == everyone
    assert all(not b.precedence for b in out.profile.ballots[2:])


def test_cover_gadget_tracks_solvability():
    yes = X3CInstance(6, (T1, T2))
    no = X3CInstance(6, (T1, OVERLAPPING))
    for x in (Fraction(1), Fraction(2)):
        for instance in (yes, no):
            out = build_linear_x3c(instance, x)
            decision = poscom(out.profile, out.target, out.rule, out.k)
            assert decision.answer == solve_x3c_brute(instance), (x, instance)


def test_cover_gadget_rule_spec_round_trips():
    out = build_linear_x3c(X3CInstance(6, (T1, T2)), Fraction(1, 2))
    assert out.rule_spec == "table:0,1,3/2"
    parsed = parse_rule_spec(out.rule_spec)
    assert parsed.label == out.rule.label


def test_cover_gadget_divisibility_guards():
    odd = X3CInstance(3, (T1,))
    with pytest.raises(DivisibilityError):
        build_linear_x3c(odd, Fraction(1))
    with pytest.raises(DivisibilityError):
        build_linear_x3c(odd, Fraction(2))
    with pytest.raises(ValueError):
        build_linear_x3c(odd, Fraction(0))


def test_random_gadgets_match_their_solvers():
    rng = Random(3517)
    for _ in range(10):
        instance = random_one_in_three(rng, max_elements=5, max_clauses=3)
        out = build_cc_3va(instance)
        decision = poscom(out.profile, out.target, out.rule, out.k, method="brute")
        assert decision.answer == solve_one_in_three_brute(instance)
    for trial in range(8):
        instance = random_x3c(rng, universe_size=6, max_sets=4)
        x = Fraction(1) if trial % 2 else Fraction(2)
        out = build_linear_x3c(instance, x)
        decision = poscom(out.profile, out.target, out.rule, out.k)
        assert decision.answer == solve_x3c_brute(instance)


def test_weight_offset_relation():
    cc = WeightFunction.cc()
    b2 = WeightFunction.binary(2)
    assert verify_weight_relation(cc, b2, Fraction(1), 1, 2)
    assert not verify_weight_relation(WeightFunction.av(), b2, Fraction(1), 1, 2)
    half = WeightFunction.table((Fraction(0), Fraction(1, 2)))
    assert verify_weight_relation(half, b2, Fraction(1, 2), 1, 1)
    with pytest.raises(ValueError):
        verify_weight_relation(cc, b2, Fraction(1), -1, 2)
    with pytest.raises(ValueError):
        verify_weight_relation(cc, b2, Fraction(1), 1, -2)


def test_padding_appends_universally_approved_candidates(trio_profile):
    padded = pad_profile(trio_profile, 2)
    assert padded.registry.names == trio_profile.registry.names + ("pad1", "pad2")
    for old, new in zip(trio_profile.ballots, padded.ballots):
        assert new.top == old.top | {3, 4}
        assert new.middle == old.middle
        assert new.precedence == old.precedence
    assert pad_profile(trio_profile, 0).registry.names == trio_profile.registry.names
    with pytest.raises(ValueError):
        pad_profile(trio_profile, -1)


def test_padding_avoids_name_collisions():
    registry = CandidateRegistry(("pad1", "b"))
    ballot = PartialBallot(frozenset({0}), frozenset(), frozenset({1}), frozenset())
    profile = PartialProfile(registry, (ballot,))
    padded = pad_profile(profile, 1)
    assert padded.registry.names == ("pad1", "b", "pad1_")


def test_padding_transfers_coverage_queries(trio_profile):
    # committee score under the plain coverage weight equals the padded
    # profile's score under the two-step weight, shifted by one pad seat
    assert verify_weight_relation(
        WeightFunction.cc(), WeightFunction.binary(2), Fraction(1), 1, 3
    )
    from abcu import CC, binary_rule

    padded = pad_profile(trio_profile, 1)
    pad_id = trio_profile.m
    plain = poscom(trio_profile, frozenset({0}), CC, 1, method="brute")
    lifted = poscom(
        padded, frozenset({0, pad_id}), binary_rule(2), 2, method="brute"
    )
    assert plain.answer == lifted.answer is True


def test_cover_file_format():
    instance = parse_x3c("6\n1 2 3\n# a comment\n\n4 5 6\n")
    assert instance.universe_size == 6
    assert instance.triples == (T1, T2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment",
        "abc",
        "6\n1 2",
        "6\n1 2 x",
        "6\n0 1 2",
        "6\n1 2 7",
        "6\n1 1 2",
        "4\n1 2 3",
    ],
)
def test_cover_file_errors(text):
    with pytest.raises(ProfileSyntaxError):
        parse_x3c(text)


def test_clause_file_format():
    instance = parse_one_in_three("4\n1 2 3\n2 3 4\n")
    assert instance.num_elements == 4
    assert instance.clauses == (frozenset({0, 1, 2}), frozenset({1, 2, 3}))
    assert parse_one_in_three("0").clauses == ()
    with pytest.raises(ProfileSyntaxError):
        parse_one_in_three("3\n1 2 4")


def test_weight_table_matches_solver_calibration():
    # the two-step table used by the cover gadget really is 0, 1, 1 + x
    out = build_linear_x3c(X3CInstance(6, (T1, T2)), Fraction(2))
    w = out.rule.weight
    assert [eval_weight(w, i) for i in range(3)] == [0, 1, 3]
