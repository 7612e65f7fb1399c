"""Representation axioms: complete checks, incomplete queries, edits."""

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcu import (
    BadEditError,
    CandidateRegistry,
    CapExceededError,
    GroupWitness,
    TooManyVotersError,
    UnknownCandidateError,
    check_axiom,
    check_axiom_brute,
    check_ejr,
    check_jr,
    check_pjr,
    complete_profile,
    enumerate_completions,
    is_completion,
    jr_modification_check,
    necessary_axiom_by_scan,
    necjr,
    posjr,
    possible_axiom_by_scan,
    validate_partial_profile,
)
from abcu.representation import _ejr_violation, _pjr_violation
from abcu.rules import mask_of
from conftest import A, B, C, D
from oracles import all_completions, axiom_holds
from profilegen import random_committee, random_complete_profile, random_partial_profile

AB = frozenset({A, B})
AC = frozenset({A, C})
E = 4


def assert_valid_witness(profile, committee, k, axiom, witness):
    n = profile.n
    assert k * len(witness.voters) >= witness.level * n
    assert len(witness.common) == witness.level
    for v in witness.voters:
        assert witness.common <= profile.ballots[v].approved
    if axiom == "jr":
        assert all(
            not (profile.ballots[v].approved & committee) for v in witness.voters
        )
    elif axiom == "pjr":
        union = frozenset().union(
            *(profile.ballots[v].approved for v in witness.voters)
        )
        assert witness.allowed == union & committee
        assert len(witness.allowed) < witness.level
    else:
        assert all(
            len(profile.ballots[v].approved & committee) < witness.level
            for v in witness.voters
        )


def test_unrepresented_pair_of_voters(quad_profile):
    satisfied, witness = check_jr(quad_profile, AB, 2)
    assert not satisfied
    assert witness.voters == {0, 1}
    assert witness.common == {C}
    assert witness.level == 1
    assert_valid_witness(quad_profile, AB, 2, "jr", witness)


def test_covering_committee_satisfies(quad_profile):
    satisfied, witness = check_jr(quad_profile, AC, 2)
    assert satisfied and witness is None


def test_proportional_and_extended_checks(quad_profile):
    for axiom, check in (("pjr", check_pjr), ("ejr", check_ejr)):
        satisfied, witness = check(quad_profile, AB, 2)
        assert not satisfied
        assert witness.common == {C} and witness.level == 1
        assert_valid_witness(quad_profile, AB, 2, axiom, witness)
        assert check(quad_profile, AC, 2)[0]


def test_axiom_dispatch(quad_profile):
    assert check_axiom(quad_profile, AB, 2, "jr")[0] is False
    with pytest.raises(ValueError):
        check_axiom(quad_profile, AB, 2, "majority")
    with pytest.raises(ValueError):
        check_axiom_brute(quad_profile, AB, 2, "majority")


def test_group_scan_agrees_on_the_quad(quad_profile):
    for axiom in ("jr", "pjr", "ejr"):
        fast = check_axiom(quad_profile, AB, 2, axiom)[0]
        slow, witness = check_axiom_brute(quad_profile, AB, 2, axiom)
        assert fast == slow is False
        assert_valid_witness(quad_profile, AB, 2, axiom, witness)
        assert check_axiom_brute(quad_profile, AC, 2, axiom)[0]


def test_group_scan_refuses_large_electorates():
    registry = CandidateRegistry(("a", "b"))
    big = complete_profile(registry, [{A}] * 16)
    with pytest.raises(TooManyVotersError):
        check_axiom_brute(big, frozenset({A}), 1, "jr")


def test_no_voters_is_vacuously_fine():
    registry = CandidateRegistry(("a", "b"))
    empty = complete_profile(registry, [])
    for axiom in ("jr", "pjr", "ejr"):
        assert check_axiom(empty, frozenset({A}), 1, axiom) == (True, None)
        assert check_axiom_brute(empty, frozenset({A}), 1, axiom) == (True, None)


def naive_maximal_group_check(profile, committee, k, axiom):
    """Check only the full approver set of each candidate group.

    This is the tempting shortcut the real checks must not take: one
    served voter, added to a violating group, masks the violation for
    the whole maximal group. Kept here as a foil.
    """
    n = profile.n
    for level in range(1, k + 1):
        for shared in combinations(range(profile.m), level):
            need = frozenset(shared)
            group = [
                v for v in range(n) if need <= profile.ballots[v].approved
            ]
            if not group or k * len(group) < level * n:
                continue
            union = frozenset().union(*(profile.ballots[v].approved for v in group))
            overlaps = [len(profile.ballots[v].approved & committee) for v in group]
            if axiom == "pjr" and len(union & committee) < level:
                return False
            if axiom == "ejr" and max(overlaps) < level:
                return False
    return True


def test_served_voters_mask_subgroup_violations():
    # three voters back x, one of them also approves a; the two voters
    # backing only x deserve a seat and get none, yet the maximal
    # x-group touches the committee through the third voter
    registry = CandidateRegistry(("a", "b", "x"))
    profile = complete_profile(registry, [{C}, {C}, {C, A}, {A}])
    committee = AB
    for axiom in ("pjr", "ejr"):
        assert naive_maximal_group_check(profile, committee, 2, axiom)
        satisfied, witness = check_axiom(profile, committee, 2, axiom)
        assert not satisfied, f"{axiom} must see the masked subgroup"
        assert witness.voters == {0, 1}
        brute = check_axiom_brute(profile, committee, 2, axiom)
        assert not brute[0]
    assert not check_jr(profile, committee, 2)[0]


@st.composite
def complete_instances(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    rows = [
        draw(st.sets(st.integers(0, m - 1))) for _ in range(n)
    ]
    k = draw(st.integers(1, m))
    committee = frozenset(draw(st.permutations(range(m)))[:k])
    return complete_profile(registry, rows), committee, k


@given(complete_instances())
@settings(max_examples=150, deadline=None)
def test_axiom_strength_chain(drawn):
    profile, committee, k = drawn
    ejr_ok = check_ejr(profile, committee, k)[0]
    pjr_ok = check_pjr(profile, committee, k)[0]
    jr_ok = check_jr(profile, committee, k)[0]
    if ejr_ok:
        assert pjr_ok
    if pjr_ok:
        assert jr_ok
    for axiom, got in (("jr", jr_ok), ("pjr", pjr_ok), ("ejr", ejr_ok)):
        assert got == check_axiom_brute(profile, committee, k, axiom)[0]


def _jr_per_candidate(profile, committee, k):
    """The per-candidate JR scan, kept as the reference for check_jr."""
    n = profile.n
    for cid in range(profile.m):
        group = [
            v
            for v, b in enumerate(profile.ballots)
            if cid in b.approved and not (b.approved & committee)
        ]
        if group and k * len(group) >= n:
            return False, GroupWitness(frozenset(group), frozenset({cid}), 1, None)
    return True, None


@given(complete_instances())
@settings(max_examples=150, deadline=None)
def test_jr_witnesses_match_the_per_candidate_scan(drawn):
    profile, committee, k = drawn
    assert check_jr(profile, committee, k) == _jr_per_candidate(profile, committee, k)


def _pjr_own_pass(profile, committee, k, levels):
    """The proportional scan with its own pass over every (S, X), kept as
    the reference for the one that searches inside the extended groups."""
    n = profile.n
    if n == 0:
        return None
    masks = [mask_of(b.approved) for b in profile.ballots]
    wmask = mask_of(committee)
    members = sorted(committee)
    for level in levels:
        for shared in combinations(range(profile.m), level):
            smask = mask_of(shared)
            for x_size in range(level):
                for allowed in combinations(members, x_size):
                    amask = mask_of(allowed)
                    group = [
                        v
                        for v in range(n)
                        if masks[v] & smask == smask
                        and masks[v] & wmask & ~amask == 0
                    ]
                    if group and k * len(group) >= level * n:
                        return GroupWitness(
                            frozenset(group),
                            frozenset(shared),
                            level,
                            frozenset(allowed),
                        )
    return None


def _ejr_by_definition(profile, committee, k, levels):
    """The first large group of voters approving an l-set S and under l
    committee members, over sets rather than masks."""
    n = profile.n
    for level in levels:
        for shared in combinations(range(profile.m), level):
            group = [
                v
                for v, b in enumerate(profile.ballots)
                if set(shared) <= b.approved and len(b.approved & committee) < level
            ]
            if group and k * len(group) >= level * n:
                return GroupWitness(frozenset(group), frozenset(shared), level, None)
    return None


def assert_scans_match_references(profile, committee, k):
    for levels in [range(1, k + 1), *([level] for level in range(1, k + 1))]:
        assert _pjr_violation(profile, committee, k, levels) == _pjr_own_pass(
            profile, committee, k, levels
        )
        assert _ejr_violation(profile, committee, k, levels) == _ejr_by_definition(
            profile, committee, k, levels
        )
    pjr = _pjr_own_pass(profile, committee, k, range(1, k + 1))
    ejr = _ejr_by_definition(profile, committee, k, range(1, k + 1))
    assert check_pjr(profile, committee, k) == (pjr is None, pjr)
    assert check_ejr(profile, committee, k) == (ejr is None, ejr)


@given(complete_instances())
@settings(max_examples=150, deadline=None)
def test_group_scans_match_their_references(drawn):
    assert_scans_match_references(*drawn)


def test_proportional_witness_may_lie_past_the_first_extended_group():
    # (A) EJR fails at S = {b, d}, but no part of that group is confined
    # to fewer than two committee members, so PJR holds.
    registry = CandidateRegistry(tuple("abcd"))
    profile = complete_profile(registry, [{A, B, D}, {B, C, D}])
    committee = frozenset({A, C})
    assert_scans_match_references(profile, committee, 2)
    assert check_ejr(profile, committee, 2) == (
        False, GroupWitness(frozenset({0, 1}), frozenset({B, D}), 2, None)
    )
    assert check_pjr(profile, committee, 2) == (True, None)
    # (B) The first large extended group, S = {b, c} with voters {0, 2},
    # has no fitting part; the PJR witness is the next group, S = {b, d}.
    registry = CandidateRegistry(tuple("abcde"))
    profile = complete_profile(registry, [{B, C, D}, {B, D}, {A, B, C}])
    committee = frozenset({A, D, E})
    assert_scans_match_references(profile, committee, 3)
    assert check_ejr(profile, committee, 3) == (
        False, GroupWitness(frozenset({0, 2}), frozenset({B, C}), 2, None)
    )
    assert check_pjr(profile, committee, 3) == (
        False, GroupWitness(frozenset({0, 1}), frozenset({B, D}), 2, frozenset({D}))
    )


@given(complete_instances())
@settings(max_examples=100, deadline=None)
def test_single_seat_collapses_the_axioms(drawn):
    profile, _committee, _k = drawn
    for cid in range(profile.m):
        committee = frozenset({cid})
        jr_ok = check_jr(profile, committee, 1)[0]
        assert check_pjr(profile, committee, 1)[0] == jr_ok
        assert check_ejr(profile, committee, 1)[0] == jr_ok


def test_friendliest_completion_decides_possibility(pair_profile):
    decision = posjr(pair_profile, frozenset({A}), 1)
    assert decision.answer
    assert [b.approved for b in decision.witness.ballots] == [
        frozenset({A}),
        frozenset(),
    ]


def test_complete_violations_leave_no_room(quad_profile):
    from abcu import as_partial

    frozen = as_partial(quad_profile)
    assert not posjr(frozen, AB, 2).answer
    assert not necjr(frozen, AB, 2).answer
    assert posjr(frozen, AC, 2).answer
    assert necjr(frozen, AC, 2).answer


def test_adversarial_completion_decides_necessity(pair_profile):
    assert necjr(pair_profile, frozenset({B}), 1).answer
    registry = CandidateRegistry(("a", "b"))
    leaning = validate_partial_profile(
        [([], [B], [A]), ([], [B], [A])], registry
    )
    decision = necjr(leaning, frozenset({A}), 1)
    assert not decision.answer
    assert [b.approved for b in decision.witness.ballots] == [
        frozenset({B}),
        frozenset({B}),
    ]


def test_order_constraints_shield_the_committee():
    # approving b forces a, and a sits on the committee, so no
    # completion assembles an unrepresented pair around b
    registry = CandidateRegistry(("a", "b"))
    profile = validate_partial_profile(
        [([], [A, B], [], [(A, B)]), ([B], [], [A])], registry
    )
    committee = frozenset({A})
    assert necjr(profile, committee, 1).answer
    assert necessary_axiom_by_scan(profile, committee, 1, "jr").answer


def test_canonical_routes_agree_with_completion_scans():
    rng = Random(2718)
    for trial in range(80):
        kind = ("3va", "linear", "poset")[trial % 3]
        profile = random_partial_profile(
            rng, n=rng.randint(1, 4), m=rng.randint(1, 4), kind=kind, max_middle=2
        )
        k = rng.randint(1, min(2, profile.m))
        committee = random_committee(rng, profile.m, k)
        exists = any(
            axiom_holds(rows, profile.m, committee, k, "jr")
            for rows in all_completions(profile)
        )
        always = all(
            axiom_holds(rows, profile.m, committee, k, "jr")
            for rows in all_completions(profile)
        )
        assert posjr(profile, committee, k).answer == exists, trial
        assert necjr(profile, committee, k).answer == always, trial


def test_necjr_decides_on_each_voters_widest_option_avoiding_w():
    """necjr's adversarial completion is, by definition, the first one the
    widest enumeration yields for W: each voter's widest option with
    A ∩ W = ∅. Its answer is JR's there, and a false answer returns it."""
    rng = Random(1729)
    falses = 0
    for trial in range(600):
        kind = ("3va", "linear", "poset")[trial % 3]
        profile = random_partial_profile(
            rng, n=rng.randint(1, 4), m=rng.randint(1, 7), kind=kind, max_middle=5
        )
        k = rng.randint(1, min(3, profile.m))
        committee = random_committee(rng, profile.m, k)
        widest = next(enumerate_completions(profile, committee=committee, widest=True))
        decision = necjr(profile, committee, k)
        assert decision.answer == check_jr(widest, committee, k)[0], trial
        if not decision.answer:
            falses += 1
            assert decision.witness == widest, trial
            assert is_completion(decision.witness, profile), trial
    assert falses >= 100


def test_experimental_scans_cover_the_other_axioms():
    rng = Random(514)
    for trial in range(40):
        kind = ("3va", "linear", "poset")[trial % 3]
        axiom = ("pjr", "ejr")[trial % 2]
        profile = random_partial_profile(
            rng, n=rng.randint(1, 3), m=rng.randint(1, 4), kind=kind, max_middle=2
        )
        k = rng.randint(1, min(2, profile.m))
        committee = random_committee(rng, profile.m, k)
        exists = any(
            axiom_holds(rows, profile.m, committee, k, axiom)
            for rows in all_completions(profile)
        )
        always = all(
            axiom_holds(rows, profile.m, committee, k, axiom)
            for rows in all_completions(profile)
        )
        maybe = possible_axiom_by_scan(profile, committee, k, axiom)
        assert maybe.answer == exists, (trial, axiom)
        assert maybe.method_used == "experimental-completion-scan"
        assert necessary_axiom_by_scan(profile, committee, k, axiom).answer == always


def test_scans_validate_and_respect_caps(pair_profile):
    with pytest.raises(ValueError):
        possible_axiom_by_scan(pair_profile, frozenset({A}), 1, "majority")
    with pytest.raises(CapExceededError):
        necessary_axiom_by_scan(pair_profile, frozenset({A}), 1, "jr", cap=1)


def test_safe_edits(quad_profile):
    assert jr_modification_check(quad_profile, AC, 2, ("remove", 0, D))
    assert jr_modification_check(quad_profile, AC, 2, ("remove", 3, B))
    assert jr_modification_check(quad_profile, AC, 2, ("replace", 3, {A}))
    assert jr_modification_check(quad_profile, AC, 2, ("replace", 3, {A, D}))


@pytest.mark.parametrize(
    "edit",
    [
        "remove",
        ("remove", 0),
        ("rename", 0, D),
        ("remove", 9, D),
        ("remove", "v0", D),
        ("remove", 0, A),
        ("remove", 0, None),
        ("replace", 0, 7),
        ("replace", 0, {B, D}),
    ],
)
def test_malformed_edits_are_rejected(quad_profile, edit):
    with pytest.raises(BadEditError):
        jr_modification_check(quad_profile, AC, 2, edit)


def test_edits_check_candidate_ids(quad_profile):
    with pytest.raises(UnknownCandidateError):
        jr_modification_check(quad_profile, AC, 2, ("replace", 0, {A, 9}))
    with pytest.raises(UnknownCandidateError):
        jr_modification_check(quad_profile, AC, 2, ("remove", 0, 9))


def test_random_edits_preserve_the_axiom():
    rng = Random(88)
    done = 0
    while done < 120:
        profile = random_complete_profile(rng, rng.randint(1, 6), rng.randint(2, 5))
        k = rng.randint(1, min(3, profile.m))
        committee = random_committee(rng, profile.m, k)
        if not check_jr(profile, committee, k)[0]:
            continue
        outside = [c for c in range(profile.m) if c not in committee]
        voter = rng.randrange(profile.n)
        if rng.random() < 0.5 and outside:
            edit = ("remove", voter, rng.choice(outside))
        else:
            fresh = {rng.choice(sorted(committee))} | {
                c for c in range(profile.m) if rng.random() < 0.3
            }
            edit = ("replace", voter, fresh)
        assert jr_modification_check(profile, committee, k, edit), edit
        done += 1
