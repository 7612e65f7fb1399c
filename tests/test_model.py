"""Ballot validation, classification and completion enumeration."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcu import (
    ApprovalBallot,
    CandidateRegistry,
    PartialBallot,
    CapExceededError,
    CycleDetectedError,
    EdgeOutsideMiddleError,
    ModelClass,
    PartitionIncompleteError,
    PartitionOverlapError,
    PartialProfile,
    ShapeMismatchError,
    UnknownCandidateError,
    as_partial,
    classify,
    complete_profile,
    completions_of_ballot,
    count_ballot_completions,
    count_completions,
    enumerate_completions,
    is_completion,
    is_linearly_ordered,
    is_three_valued,
    make_partial_ballot,
    validate_partial_profile,
)
from abcu.model import mask_of
from conftest import A, B, C
from oracles import ballot_options
import reference_loader

R2 = CandidateRegistry(("a", "b"))
R3 = CandidateRegistry(("a", "b", "c"))
R4 = CandidateRegistry(("a", "b", "c", "d"))


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError):
        CandidateRegistry(("a", "a"))


def test_registry_equality_ignores_its_name_index():
    used, fresh = CandidateRegistry(("a", "b")), CandidateRegistry(("a", "b"))
    assert used.id_of("b") == 1
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == "CandidateRegistry(names=('a', 'b'))"
    assert CandidateRegistry(("b", "a")) != fresh


def test_registry_lookup_errors():
    with pytest.raises(UnknownCandidateError):
        R2.id_of("z")
    with pytest.raises(UnknownCandidateError):
        R2.name_of(5)


def test_ballot_rejects_unknown_id():
    with pytest.raises(UnknownCandidateError):
        make_partial_ballot([0], [7], [1], R2)


def test_enumeration_refuses_committee_ids_that_name_no_candidate(pair_profile):
    # Refused before the cap check, which a cap of 0 would fail.
    for stray in (pair_profile.m, -1):
        with pytest.raises(UnknownCandidateError):
            next(enumerate_completions(pair_profile, 0, frozenset({A, stray})))


def test_ballot_rejects_part_overlap():
    with pytest.raises(PartitionOverlapError):
        make_partial_ballot([A], [A], [B], R2)


def test_ballot_rejects_uncovered_candidate():
    with pytest.raises(PartitionIncompleteError):
        make_partial_ballot([A], [], [], R2)


def test_ballot_rejects_edge_outside_middle():
    with pytest.raises(EdgeOutsideMiddleError):
        make_partial_ballot([A], [B, C], [], R3, [(A, B)])


def test_ballot_rejects_cycles():
    with pytest.raises(CycleDetectedError):
        make_partial_ballot([], [A, B], [C], R3, [(A, B), (B, A)])
    with pytest.raises(CycleDetectedError):
        make_partial_ballot([], [A, B], [C], R3, [(A, A)])
    with pytest.raises(CycleDetectedError):
        make_partial_ballot([], [A, B, C], [], R3, [(A, B), (B, C), (C, A)])


def test_precedence_is_closed_transitively():
    ballot = make_partial_ballot([], [A, B, C], [], R3, [(A, B), (B, C)])
    assert (A, C) in ballot.precedence
    assert ballot.forced_by(C) == {A, B, C}
    assert ballot.forced_by(A) == {A}


def test_classify(pair_profile, trio_profile):
    assert classify(pair_profile) is ModelClass.THREE_VALUED
    assert classify(trio_profile) is ModelClass.LINEAR
    poset = validate_partial_profile(
        [([], [A, B, C], [], [(A, B)])], R3
    )
    assert classify(poset) is ModelClass.POSET


def test_small_middles_count_as_both_capabilities(pair_profile):
    # one undecided candidate is vacuously ordered
    assert is_three_valued(pair_profile)
    assert is_linearly_ordered(pair_profile)
    assert classify(pair_profile) is ModelClass.THREE_VALUED


def test_completions_of_undecided_singleton(pair_profile):
    assert completions_of_ballot(pair_profile.ballots[1]) == [
        ApprovalBallot(frozenset()),
        ApprovalBallot(frozenset({B})),
    ]


def test_completions_of_ordered_middle_are_prefixes(trio_profile):
    assert completions_of_ballot(trio_profile.ballots[0]) == [
        ApprovalBallot(frozenset({A})),
        ApprovalBallot(frozenset({A, B})),
        ApprovalBallot(frozenset({A, B, C})),
    ]


def test_completion_counts(pair_profile, trio_profile):
    assert count_completions(pair_profile) == 2
    assert count_completions(trio_profile) == 3


def test_count_handles_diamond_order():
    # 0 above 1 and 2, both above 3: six upward-closed subsets
    ballot = make_partial_ballot(
        [], [0, 1, 2, 3], [], R4, [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    assert count_ballot_completions(ballot) == 6
    assert len(completions_of_ballot(ballot)) == 6


def test_enumerate_order_and_cap(pair_profile):
    rows = [
        [b.approved for b in completion.ballots]
        for completion in enumerate_completions(pair_profile, cap=10)
    ]
    assert rows == [
        [frozenset({A}), frozenset()],
        [frozenset({A}), frozenset({B})],
    ]
    with pytest.raises(CapExceededError):
        list(enumerate_completions(pair_profile, cap=1))


def test_is_completion(pair_profile, trio_profile):
    good = complete_profile(R2, [{A}, {B}])
    empty = complete_profile(R2, [{A}, set()])
    bad = complete_profile(R2, [{A}, {A}])
    assert is_completion(good, pair_profile)
    assert is_completion(empty, pair_profile)
    assert not is_completion(bad, pair_profile)
    # c approved while b, ranked above it, is not
    broken = complete_profile(R3, [{A, C}, {C}])
    assert not is_completion(broken, trio_profile)


def test_is_completion_shape_checks(pair_profile):
    with pytest.raises(ShapeMismatchError):
        is_completion(complete_profile(R2, [{A}]), pair_profile)
    with pytest.raises(ShapeMismatchError):
        is_completion(complete_profile(R3, [{A}, {B}]), pair_profile)


def test_as_partial_round_trip(quad_profile):
    partial = as_partial(quad_profile)
    assert count_completions(partial) == 1
    assert list(enumerate_completions(partial)) == [quad_profile]


@st.composite
def partial_ballots(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    parts = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    top = [c for c in range(m) if parts[c] == 0]
    middle = [c for c in range(m) if parts[c] == 1]
    bottom = [c for c in range(m) if parts[c] == 2]
    ranked = draw(st.permutations(middle))
    pairs = [
        (ranked[i], ranked[j])
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    return registry, make_partial_ballot(top, middle, bottom, registry, edges)


@given(partial_ballots())
@settings(max_examples=200)
def test_completions_match_subset_filter(drawn):
    registry, ballot = drawn
    got = [b.approved for b in completions_of_ballot(ballot)]
    assert len(got) == len(set(got))
    assert set(got) == set(ballot_options(ballot))
    assert count_ballot_completions(ballot) == len(got)


@given(partial_ballots())
@settings(max_examples=100)
def test_every_completion_validates(drawn):
    registry, ballot = drawn
    profile = PartialProfile(registry, (ballot,))
    for completion in enumerate_completions(profile):
        assert is_completion(completion, profile)


@given(partial_ballots())
@settings(max_examples=100)
def test_completion_mask_order_is_ascending(drawn):
    registry, ballot = drawn
    mids = sorted(ballot.middle)
    position = {c: i for i, c in enumerate(mids)}
    masks = [
        sum(1 << position[c] for c in b.approved - ballot.top)
        for b in completions_of_ballot(ballot)
    ]
    assert masks == sorted(masks)


def _mask_filter_completions(ballot):
    """The reference enumeration: every middle mask, upward-closed kept."""
    mids = sorted(ballot.middle)
    out = []
    for mask in range(1 << len(mids)):
        chosen = frozenset(c for i, c in enumerate(mids) if mask >> i & 1)
        if all(x in chosen for x, y in ballot.precedence if y in chosen):
            out.append(frozenset(ballot.top | chosen))
    return out


@st.composite
def wide_posets(draw, max_middle=7):
    m = draw(st.integers(1, max_middle + 2))
    ids = draw(st.permutations(range(m)))
    q = draw(st.integers(0, min(m, max_middle)))
    ranked, rest = ids[:q], ids[q:]
    cut = draw(st.integers(0, len(rest)))
    pairs = [
        (ranked[i], ranked[j])
        for i in range(len(ranked))
        for j in range(i + 1, len(ranked))
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    return make_partial_ballot(rest[:cut], ranked, rest[cut:], registry, edges)


@given(wide_posets())
@settings(max_examples=200, deadline=None)
def test_completions_follow_the_mask_filter_order(ballot):
    got = [b.approved for b in completions_of_ballot(ballot)]
    assert got == _mask_filter_completions(ballot)


def test_long_chain_enumerates_in_time_with_its_completions():
    # A chain of q candidates has q + 1 completions among 2^q middle
    # masks. Shorter chains go first, so a scan over every mask fails at
    # 20 (about a million masks) instead of hanging at 40. At 400 the
    # cap check's count must not rescan the q^2 / 2 order pairs per
    # candidate either.
    # Validation closes the chain's order: at 800 that is 319,600 pairs,
    # which a closure by repeated set unions needs seconds to reach.
    for q in (10, 20, 40, 400, 800):
        registry = CandidateRegistry(tuple(f"c{i}" for i in range(q)))
        chain = [(i, i + 1) for i in range(q - 1)]
        start = time.perf_counter()
        ballot = make_partial_ballot([], range(q), [], registry, chain)
        assert time.perf_counter() - start < 1, q
        assert ballot.precedence == {(i, j) for i in range(q) for j in range(i + 1, q)}
        start = time.perf_counter()
        completions = list(
            enumerate_completions(PartialProfile(registry, (ballot,)), cap=q + 1)
        )
        assert time.perf_counter() - start < 1, q
        assert [c.ballots[0].approved for c in completions] == [
            frozenset(range(j)) for j in range(q + 1)
        ]


def test_classify_ignores_voter_order():
    flat = make_partial_ballot([], [A, B], [C], R3)
    chained = make_partial_ballot([C], [A, B], [], R3, [(A, B)])
    forward = PartialProfile(R3, (flat, chained))
    backward = PartialProfile(R3, (chained, flat))
    assert classify(forward) is ModelClass.POSET
    assert classify(forward) is classify(backward)


def test_linear_completions_are_ranking_prefixes(trio_profile):
    ballot = trio_profile.ballots[0]
    seq = ballot.middle_sequence()
    assert seq == [B, C]
    prefixes = {
        frozenset(ballot.top | set(seq[:i])) for i in range(len(seq) + 1)
    }
    assert {b.approved for b in completions_of_ballot(ballot)} == prefixes


@st.composite
def edge_sets(draw, max_q=7):
    """Order edges over a middle of q ids out of q + 2: a DAG (edges follow a
    random ranking), any edge set on the middle, which may hold self-loops
    and cycles of any length, or any edge set at all."""
    q = draw(st.integers(1, max_q))
    ids = draw(st.permutations(range(q + 2)))
    middle = ids[:q]
    kind = draw(st.sampled_from(("dag", "middle", "any")))
    if kind == "dag":
        pairs = [(x, y) for i, x in enumerate(middle) for y in middle[i + 1:]]
    else:
        ends = middle if kind == "middle" else ids
        pairs = [(x, y) for x in ends for y in ends]
    edges = draw(st.lists(st.sampled_from(pairs))) if pairs else []
    return middle, edges


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@given(edge_sets())
@settings(max_examples=500, deadline=None)
def test_order_closure_matches_the_reference_closure(drawn):
    middle, edges = drawn
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(len(middle) + 2)))
    rest = sorted(set(range(len(middle) + 2)) - set(middle))
    got = _outcome(lambda: make_partial_ballot(rest[:1], middle, rest[1:], registry, edges))
    want = _outcome(lambda: reference_loader.make_partial_ballot(
        rest[:1], middle, rest[1:], registry, edges))
    assert got == want
    raw = set(edges)
    closed = reference_loader.transitive_closure(raw)
    cyclic = any(x == y for x, y in raw) or any((y, x) in closed for x, y in closed)
    if not {x for edge in raw for x in edge} <= set(middle):
        assert got[0] is EdgeOutsideMiddleError
    elif cyclic:
        assert got == (CycleDetectedError, "order constraints are cyclic")
    else:
        assert got.precedence == closed


def _check_cached_masks(ballot):
    """The masks a ballot carries equal those built from its sets, and
    reading them leaves eq, hash and repr as they were."""
    shown, hashed = repr(ballot), hash(ballot)
    if isinstance(ballot, ApprovalBallot):
        assert ballot.mask == mask_of(ballot.approved)
        twin = ApprovalBallot(ballot.approved)
    else:
        assert ballot.top_mask == mask_of(ballot.top)
        assert ballot.middle_mask == mask_of(ballot.middle)
        for c in ballot.middle:
            bit = 1 << c
            assert ballot.up.get(bit, bit) == mask_of(ballot.forced_by(c))
            below = {c} | {y for x, y in ballot.precedence if x == c}
            assert ballot.down.get(bit, bit) == mask_of(below)
        bits = {1 << c for c in ballot.middle}
        assert set(ballot.up) <= bits and set(ballot.down) <= bits
        twin = PartialBallot(ballot.top, ballot.middle, ballot.bottom, ballot.precedence)
    assert (repr(ballot), hash(ballot)) == (shown, hashed)
    assert ballot == twin and twin == ballot and hash(twin) == hashed
    assert repr(twin) == shown


@given(st.one_of(partial_ballots().map(lambda drawn: drawn[1]), wide_posets()))
@settings(max_examples=200, deadline=None)
def test_cached_masks_agree_with_the_sets(ballot):
    # Built by make_partial_ballot, then by the dataclass constructor (as
    # reductions.pad_profile builds them), then as_partial's views of its
    # completions.
    _check_cached_masks(ballot)
    plain = PartialBallot(ballot.top, ballot.middle, ballot.bottom, ballot.precedence)
    _check_cached_masks(plain)
    completions = completions_of_ballot(plain)
    m = len(ballot.top | ballot.middle | ballot.bottom)
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    complete = complete_profile(registry, [b.approved for b in completions])
    for b in completions + list(complete.ballots) + list(as_partial(complete).ballots):
        _check_cached_masks(b)


@given(st.one_of(partial_ballots().map(lambda drawn: drawn[1]), wide_posets()), st.data())
@settings(max_examples=300, deadline=None)
def test_above_and_avoiding_follow_their_definitions(ballot, data):
    # above(S): S and everything ranked above a member of S, the OR of
    # the members' forced_by sets; avoiding(S): the middle without S and
    # without everything ranked below a member of S; overlaps(I): each
    # completion's overlap with I, ascending, once each.
    m = len(ballot.top | ballot.middle | ballot.bottom)
    mask = data.draw(st.integers(0, (1 << m) - 1))
    ids = {c for c in range(m) if mask >> c & 1}
    assert ballot.above(mask) == mask_of(set().union(*(ballot.forced_by(c) for c in ids)))
    below = {y for x, y in ballot.precedence if x in ids}
    assert ballot.avoiding(mask) == mask_of(ballot.middle - ids - below)
    inside = ballot.middle_mask & mask
    assert ballot.overlaps(inside) == sorted({mask_of(a) & inside for a in ballot_options(ballot)})


@given(st.one_of(partial_ballots(max_m=6).map(lambda drawn: drawn[1]), wide_posets(max_middle=4)))
@settings(max_examples=200, deadline=None)
def test_is_completion_accepts_exactly_the_ballot_options(ballot):
    m = len(ballot.top | ballot.middle | ballot.bottom)
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    profile = PartialProfile(registry, (ballot,))
    options = set(ballot_options(ballot))
    mids = sorted(ballot.middle)
    for mask in range(1 << len(mids)):
        approved = ballot.top | {c for i, c in enumerate(mids) if mask >> i & 1}
        assert is_completion(complete_profile(registry, [approved]), profile) == (
            approved in options
        )
