"""Profile document parsing and result rendering."""

import gc
import json
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcu import (
    AV,
    CandidateRegistry,
    UnknownCandidateError,
    check_jr,
    check_pjr,
    complete_profile,
    make_partial_ballot,
    necjr,
    poscom,
)
from abcu import io as abcu_io
from abcu.errors import (
    CycleDetectedError,
    EdgeOutsideMiddleError,
    PartitionIncompleteError,
    PartitionOverlapError,
    ProfileSyntaxError,
)
from abcu.io import (
    completion_rows,
    decision_document,
    group_witness_document,
    parse_profile,
    profile_document,
    serialize_profile,
    serialize_result,
)
import reference_loader
from conftest import A, B
from profilegen import random_partial_profile


def test_documents_round_trip(trio_profile, pair_profile, quad_profile):
    from abcu import as_partial

    for profile in (trio_profile, pair_profile, as_partial(quad_profile)):
        text = serialize_profile(profile, 2)
        parsed, k = parse_profile(text)
        assert parsed == profile
        assert k == 2
    parsed, k = parse_profile(serialize_profile(trio_profile))
    assert parsed == trio_profile and k is None


def test_missing_bottom_defaults_to_the_rest():
    doc = {
        "candidates": ["a", "b", "c"],
        "voters": [{"top": ["a"]}, {"middle": ["b"]}],
    }
    profile, k = parse_profile(json.dumps(doc))
    assert k is None
    assert profile.ballots[0].bottom == {1, 2}
    assert profile.ballots[1].top == frozenset()
    assert profile.ballots[1].bottom == {0, 2}


def test_order_pairs_serialize_as_their_closure():
    doc = {
        "candidates": ["a", "b", "c"],
        "voters": [
            {"top": [], "middle": ["a", "b", "c"], "order": [["a", "b"], ["b", "c"]]}
        ],
    }
    profile, _ = parse_profile(json.dumps(doc))
    assert profile.ballots[0].precedence == {(0, 1), (1, 2), (0, 2)}
    out = profile_document(profile)
    assert out["voters"][0]["order"] == [["a", "b"], ["a", "c"], ["b", "c"]]
    reparsed, _ = parse_profile(serialize_profile(profile))
    assert reparsed == profile


def test_orderless_voters_have_no_order_key(trio_profile):
    doc = profile_document(trio_profile, 1)
    assert list(doc) == ["candidates", "k", "voters"]
    assert "order" in doc["voters"][0]
    assert "order" not in doc["voters"][1]


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"candidates": ["a"], "voters": [], "extra": 1}',
        '{"candidates": "ab", "voters": []}',
        '{"candidates": ["a", 1], "voters": []}',
        '{"candidates": ["a", "a"], "voters": []}',
        '{"candidates": [], "voters": []}',
        '{"candidates": ["a"], "k": true, "voters": []}',
        '{"candidates": ["a"], "k": 0, "voters": []}',
        '{"candidates": ["a"], "k": "2", "voters": []}',
        '{"candidates": ["a"]}',
        '{"candidates": ["a"], "voters": [[]]}',
        '{"candidates": ["a"], "voters": [{"best": ["a"]}]}',
        '{"candidates": ["a"], "voters": [{"top": "a"}]}',
        '{"candidates": ["a"], "voters": [{"order": ["a", "b"]}]}',
        '{"candidates": ["a", "b"], "voters": [{"order": [["a", "b", "b"]]}]}',
    ],
)
def test_malformed_documents_are_rejected(text):
    with pytest.raises(ProfileSyntaxError):
        parse_profile(text)


def test_unknown_names_are_rejected():
    doc = {"candidates": ["a"], "voters": [{"top": ["z"]}]}
    with pytest.raises(UnknownCandidateError):
        parse_profile(json.dumps(doc))


@pytest.mark.parametrize(
    "voter, error, message",
    [
        ({"top": ["z"]}, UnknownCandidateError, "unknown candidate 'z'"),
        ({"middle": ["a", "y"]}, UnknownCandidateError, "unknown candidate 'y'"),
        ({"bottom": ["a", "b", "c", "x"]}, UnknownCandidateError, "unknown candidate 'x'"),
        ({"middle": ["a", "b"], "order": [["a", "w"]]}, UnknownCandidateError,
         "unknown candidate 'w'"),
        ({"top": ["c", "a"], "middle": ["a", "c"], "bottom": ["b"]}, PartitionOverlapError,
         "candidates in more than one part (voter 1): a, c"),
        ({"top": ["c"], "bottom": []}, PartitionIncompleteError,
         "candidates in no part (voter 1): a, b"),
        ({"top": ["c"], "middle": ["a", "b"], "order": [["c", "a"]]}, EdgeOutsideMiddleError,
         "order edge (0, 1) leaves the middle (voter 1)"),
        ({"middle": ["c", "a", "b"], "order": [["c", "a"], ["a", "b"], ["b", "c"]]},
         CycleDetectedError, "order constraints are cyclic (voter 1)"),
        ({"middle": ["a"], "order": [["a", "a"]]}, CycleDetectedError,
         "order constraints are cyclic (voter 1)"),
    ],
)
def test_validation_errors_keep_their_type_and_message(voter, error, message):
    # Ids follow the candidate list (c=0, a=1, b=2); messages list names sorted.
    doc = {"candidates": ["c", "a", "b"], "voters": [{"top": ["a"]}, voter]}
    with pytest.raises(error) as caught:
        parse_profile(json.dumps(doc))
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_decision_documents(pair_profile):
    decision = poscom(pair_profile, frozenset({A}), AV, 1)
    doc = decision_document(
        "poscom", decision, pair_profile.registry, extra={"rule": "av", "k": 1}
    )
    assert list(doc) == ["query", "answer", "method", "rule", "k", "witness_committee"]
    assert doc["answer"] is True
    assert doc["witness_committee"] == ["a"]
    assert "witness" not in doc
    full = decision_document(
        "poscom", decision, pair_profile.registry, include_witness=True
    )
    assert full["witness"] == [["a"], []]


def test_negative_decisions_may_carry_no_witness(pair_profile):
    decision = necjr(pair_profile, frozenset({B}), 1)
    doc = decision_document("necjr", decision, pair_profile.registry, True)
    assert doc == {"query": "necjr", "answer": True, "method": "canonical-completion"}


def test_group_witness_documents(quad_profile):
    registry = quad_profile.registry
    _, jr_witness = check_jr(quad_profile, frozenset({A, B}), 2)
    doc = group_witness_document(jr_witness, registry)
    assert doc == {"voters": [0, 1], "common": ["c"], "level": 1}
    _, pjr_witness = check_pjr(quad_profile, frozenset({A, B}), 2)
    doc = group_witness_document(pjr_witness, registry)
    assert list(doc) == ["voters", "common", "level", "allowed"]
    assert doc["allowed"] == []


def test_result_rendering_keeps_order_and_exact_values():
    doc = {
        "zeta": Fraction(3, 2),
        "alpha": [Fraction(1, 3), {"inner": Fraction(4)}],
        "plain": "text",
    }
    text = serialize_result(doc)
    loaded = json.loads(text)
    assert list(loaded) == ["zeta", "alpha", "plain"]
    assert loaded["zeta"] == "3/2"
    assert loaded["alpha"] == ["1/3", {"inner": "4"}]


def _reference_serialize(doc):
    """The rendering serialize_result must match byte for byte."""

    def normalize(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, dict):
            return {key: normalize(inner) for key, inner in value.items()}
        if isinstance(value, (list, tuple)):
            return [normalize(inner) for inner in value]
        return value

    return json.dumps(normalize(doc), indent=2)


_LEAVES = st.one_of(
    st.fractions(), st.integers(), st.booleans(), st.text(max_size=5), st.none()
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200)
@given(st.dictionaries(st.text(max_size=5), _VALUES, max_size=5))
def test_result_rendering_matches_the_reference(doc):
    assert serialize_result(doc) == _reference_serialize(doc)


def test_shared_rows_render_at_every_depth():
    row = ["a", "b"]
    doc = {
        "completions": [[row, row, ["b"]], [row, []]],
        "row": row,
        "deep": {"rows": [row, [row, [row]]]},
        "tuple": ("a", "b"),
    }
    assert serialize_result(doc) == _reference_serialize(doc)


@pytest.mark.parametrize(
    "name",
    ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "caf\u00e9", "\u2603 \U0001f600",
     "lone \ud800 surrogate", "", "/"],
)
def test_names_escape_as_json_dumps_escapes_them(name):
    doc = {name: [name, name], "row": [name], "rows": [[name, "x"], [name]], "leaf": name}
    assert serialize_result(doc) == _reference_serialize(doc)


def test_empty_containers_and_mixed_leaves_at_depth():
    doc = {
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], [{}]]},
        "flags": [True, 1, False, 0, None, -7, 10**30],
        "rationals": [Fraction(1, 3), [Fraction(-5, 2), Fraction(4)], {"x": Fraction(0)}],
        "floats": [1.5, -0.0, 1e300, 3.0, float("inf"), float("nan")],
        "float": 0.1,
    }
    assert serialize_result(doc) == _reference_serialize(doc)


def test_result_rendering_rejects_other_objects():
    for doc in ({"bad": frozenset({1})}, {"nested": [{"bad": frozenset()}]}):
        with pytest.raises(TypeError):
            _reference_serialize(doc)
        with pytest.raises(TypeError):
            serialize_result(doc)


class _Opaque:
    pass


@pytest.mark.parametrize("leaf", [_Opaque(), {1, 2}, object()])
def test_unrenderable_leaf_raises_json_dumps_own_error(leaf):
    with pytest.raises(TypeError) as expected:
        json.dumps(leaf)
    with pytest.raises(TypeError) as got:
        serialize_result({"nested": [{"bad": leaf}]})
    assert str(got.value) == str(expected.value)


def test_completion_rows(quad_profile):
    assert completion_rows(quad_profile) == [["c"], ["c"], ["a"], ["b"]]


_NAMES = ("c", "a", "e", "b", "d")
_PARTS = ("top", "middle", "bottom")


@st.composite
def _voter_records(draw, names):
    """A valid voter record: a shuffled partition, a DAG on the middle,
    and keys left to their defaults when that means the same."""
    parts = draw(st.lists(st.sampled_from(_PARTS), min_size=len(names), max_size=len(names)))
    record = {
        part: draw(st.permutations([n for n, p in zip(names, parts) if p == part]))
        for part in _PARTS
    }
    rank = draw(st.permutations(record["middle"]))
    pairs = [[x, y] for i, x in enumerate(rank) for y in rank[i + 1:]]
    record["order"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    for key in ("top", "middle", "order"):
        if not record[key] and draw(st.booleans()):
            del record[key]
    if draw(st.booleans()):
        del record["bottom"]
    return record


@st.composite
def _documents(draw):
    names = list(_NAMES[: draw(st.integers(1, len(_NAMES)))])
    doc = {"candidates": names, "voters": draw(st.lists(_voter_records(names), max_size=4))}
    if draw(st.booleans()):
        doc["k"] = draw(st.integers(1, len(names)))
    return doc


_NON_NAMES = (1, 1.5, True, None, ["a"], {"a": 1})
_NON_ARRAYS = ("a", "ab", None, 3, {"a": 1})
_NON_PAIRS = ("ab", ["a"], ["a", "b", "c"], ["a", 1], [None, "a"], [["a"], "b"], None, {"a": "b"})


def _fault(draw, voter, names):
    """Break one voter record in one of the ways a document can be wrong.

    Every kind leaves the record faulty, also on a record an earlier draw
    broke: names are only added where one is already placed, so that it
    then stands twice, and only removed where it stands once, so that it
    then stands nowhere. A kind that finds nothing to work on falls back
    to an unknown name.
    """
    if not isinstance(voter, dict):
        return voter
    kind = draw(st.sampled_from((
        "overlap", "gap", "edge-outside", "self-loop", "cycle", "repeat",
        "unknown-name", "unknown-edge-name", "non-name", "not-array", "bad-pair",
        "unknown-key", "not-object",
    )))
    voter = {key: list(value) if isinstance(value, list) else value
             for key, value in voter.items()}
    part = draw(st.sampled_from(_PARTS))
    names_in = voter.setdefault(part, [])
    order = voter.setdefault("order", [])
    if not isinstance(names_in, list) or not isinstance(order, list):
        return voter  # an earlier fault already broke this record
    placed = [name for p in _PARTS if isinstance(voter.get(p), list)
              for name in voter[p] if name in names]
    middle = voter.get("middle")
    outside = [name for name in names if not isinstance(middle, list) or name not in middle]
    once = [name for name in names_in if name in names and placed.count(name) == 1]
    if (kind == "repeat" and not names_in or kind == "overlap" and not placed
            or kind == "gap" and not once or kind == "edge-outside" and not outside):
        kind = "unknown-name"
    if kind == "not-object":
        return draw(st.sampled_from(([], "top", 3, None)))
    if kind == "unknown-key":
        voter[draw(st.sampled_from(("extra", "Top", "")))] = []
    elif kind == "not-array":
        voter[draw(st.sampled_from((*_PARTS, "order")))] = draw(st.sampled_from(_NON_ARRAYS))
    elif kind == "non-name":
        names_in.insert(draw(st.integers(0, len(names_in))), draw(st.sampled_from(_NON_NAMES)))
    elif kind == "unknown-name":
        names_in.insert(draw(st.integers(0, len(names_in))), "zz")
    elif kind == "repeat":
        names_in.append(draw(st.sampled_from(names_in)))
    elif kind == "overlap":
        names_in.append(draw(st.sampled_from(placed)))
    elif kind == "gap":
        names_in.remove(draw(st.sampled_from(once)))
        voter.setdefault("bottom", [])
    elif kind == "bad-pair":
        order.append(draw(st.sampled_from(_NON_PAIRS)))
    elif kind == "unknown-edge-name":
        order.append(draw(st.permutations([draw(st.sampled_from(names)), "zz"])))
    elif kind == "edge-outside":
        order.append(
            draw(st.permutations([draw(st.sampled_from(outside)), draw(st.sampled_from(names))]))
        )
    elif kind == "self-loop":
        x = draw(st.sampled_from(names))
        order.append([x, x])
    elif kind == "cycle":
        loop = draw(st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True)) \
            if len(names) > 1 else list(names)
        order.extend(
            [x, y] for x, y in zip(loop, loop[1:] + loop[:1])
        )
    return voter


@st.composite
def _malformed_documents(draw):
    doc = draw(_documents())
    voters = doc["voters"]
    if not voters:
        voters.append({})
    for i in draw(st.lists(st.integers(0, len(voters) - 1), min_size=1, max_size=3)):
        voters[i] = _fault(draw, voters[i], doc["candidates"])
    return doc


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_malformed_documents())
def test_every_malformed_document_drawn_fails_to_load(doc):
    # _fault breaks every record it is given, so no example of the test
    # below is spent on a document that loads.
    assert isinstance(_outcome(reference_loader.parse_profile, json.dumps(doc))[0], type)


# Each text is parsed twice: the second call reads what the first kept
# by the text, and must give the reference loader's outcome all the same.
@settings(max_examples=300, deadline=None)
@given(_documents())
def test_valid_documents_load_as_the_reference_loads_them(doc):
    text = json.dumps(doc)
    expected = reference_loader.parse_profile(text)
    assert parse_profile(text) == expected
    assert text in abcu_io._kept
    assert parse_profile(text) == expected


@settings(max_examples=500, deadline=None)
@given(_malformed_documents())
def test_malformed_documents_fail_as_the_reference_fails(doc):
    # Both loaders report every voter's syntax faults before any voter's
    # validation faults; the first fault found names the error.
    text = json.dumps(doc)
    expected = _outcome(reference_loader.parse_profile, text)
    for _ in range(2):
        assert _outcome(parse_profile, text) == expected
        # Only a document that loads is kept; a fault is raised anew.
        assert (text in abcu_io._kept) is not isinstance(expected[0], type)


# The records a one-pass loader most easily accepts by mistake: a null or
# empty-object order, a null part, a string where an array belongs, a
# voter that is no object, and the order shapes the closure must tell
# apart. Then order pairs of three names, of a non-name and of none, a
# repeated bottom name, and a record whose middle holds a non-name while
# its top holds an unknown name: the middle's fault, a syntax error, is
# the one reported. Last, the order of faults within one record: top's
# and middle's syntax before their names, their names before bottom's
# syntax and bottom's names before the order's, and each order pair's
# names before the next pair's shape. Ids follow the candidate list
# (c=0, a=1, b=2, d=3).
@pytest.mark.parametrize(
    "voter, outcome",
    [
        ({"top": [], "order": None}, ProfileSyntaxError),
        ({"top": ["a"], "order": {}}, ProfileSyntaxError),
        ({"top": ["a"], "bottom": None}, ProfileSyntaxError),
        ({"top": "a"}, ProfileSyntaxError),
        (["top", "a"], ProfileSyntaxError),
        ({"middle": ["d", "b", "a"], "order": [["d", "b"], ["b", "a"]]},
         {(3, 2), (2, 1), (3, 1)}),
        ({"middle": ["a", "b", "d"], "order": [["a", "b"], ["b", "d"], ["a", "d"]]},
         {(1, 2), (2, 3), (1, 3)}),
        ({"top": ["c"], "middle": ["a", "b"], "order": [["c", "a"], ["b", "d"]]},
         EdgeOutsideMiddleError),
        ({"middle": ["a", "b", "d"], "order": [["a", "b"], ["b", "d"], ["d", "a"]]},
         CycleDetectedError),
        ({"middle": ["a", "b", "d"], "order": [["a", "b", "d"]]}, ProfileSyntaxError),
        ({"middle": ["a", "b"], "order": [["a", 1]]}, ProfileSyntaxError),
        ({"top": ["a"], "bottom": ["b", "b"]}, ProfileSyntaxError),
        ({"top": ["zz"], "middle": ["a", 1]}, ProfileSyntaxError),
        ({"middle": ["a", "b"], "order": [[]]}, ProfileSyntaxError),
        ({"top": ["zz", "a", "a"]}, ProfileSyntaxError),
        ({"top": ["zz"], "middle": ["a", "a"]}, ProfileSyntaxError),
        ({"top": ["zz"], "bottom": "a"}, UnknownCandidateError),
        ({"bottom": ["zz"], "order": 3}, UnknownCandidateError),
        ({"middle": ["a", "b"], "order": [["a", "zz"], ["b"]]}, UnknownCandidateError),
    ],
)
def test_tricky_records_load_as_the_reference_loads_them(voter, outcome):
    doc = {"candidates": ["c", "a", "b", "d"], "voters": [{"top": ["a"]}, voter]}
    text = json.dumps(doc)
    got = _outcome(parse_profile, text)
    assert got == _outcome(reference_loader.parse_profile, text)
    if isinstance(outcome, set):
        assert got[0].ballots[1].precedence == outcome
    else:
        assert got[0] is outcome


# Ids follow the candidate list (c=0, a=1, b=2, d=3). A validation fault
# waits for every voter's syntax: a later voter's syntax fault wins over
# it, and of two validation faults the earlier voter's is raised.
@pytest.mark.parametrize(
    "voters, error, message",
    [
        ([{"top": ["a"], "middle": ["a"]}, {"top": ["b"]}, {"top": ["z"]}],
         UnknownCandidateError, "unknown candidate 'z'"),
        ([{"top": ["a"]}, {"middle": ["a", "b"], "order": [["a", "b"], ["b", "a"]]},
          {"top": ["c"]}, {"top": ["d"], "bottom": ["c", "a", "b", "d"]}],
         CycleDetectedError, "order constraints are cyclic (voter 1)"),
    ],
)
def test_validation_faults_wait_for_every_voters_syntax(voters, error, message):
    text = json.dumps({"candidates": ["c", "a", "b", "d"], "voters": voters})
    got = _outcome(parse_profile, text)
    assert got == _outcome(reference_loader.parse_profile, text)
    assert got == (error, message)


def test_ids_from_outside_the_registry_are_range_checked():
    # {99} plus every id but one has m members, all disjoint, so a check
    # by sizes and disjointness alone would take it for a partition.
    registry = CandidateRegistry(("c", "a", "b", "d"))
    args = ([99], [], [0, 1, 2], registry)
    got = _outcome(lambda a: make_partial_ballot(*a), args)
    assert got == _outcome(lambda a: reference_loader.make_partial_ballot(*a), args)
    assert got == (UnknownCandidateError, "candidate id 99 out of range")


def _bench_shaped_document(rng, n, m):
    """A document written as the benchmark writes its profiles: every part
    spelled out, sorted keys, and 3va, linear and poset voters mixed."""
    names = [f"c{i}" for i in range(m)]
    voters = []
    for v in range(n):
        ids = rng.sample(range(m), m)
        q = 1 + rng.randrange(4)
        middle, rest = ids[:q], ids[q:]
        top = {c for c in rest if rng.random() < 0.25}
        kind = v % 3
        if kind == 0:
            edges = []
        elif kind == 1:
            edges = list(zip(middle, middle[1:]))
        else:
            edges = [(x, y) for i, x in enumerate(middle) for y in middle[i + 1:]
                     if rng.random() < 0.5]
        record = {
            "top": [names[c] for c in sorted(top)],
            "middle": [names[c] for c in sorted(middle)],
            "bottom": [names[c] for c in range(m) if c not in top and c not in middle],
        }
        if edges:
            record["order"] = [[names[x], names[y]] for x, y in edges]
        voters.append(record)
    return json.dumps({"candidates": names, "k": 3, "voters": voters}, indent=2, sort_keys=True)


@pytest.mark.parametrize("seed", range(5))
def test_bench_shaped_documents_load_as_the_reference_loads_them(seed):
    text = _bench_shaped_document(Random(seed), 150, 14)
    profile, k = parse_profile(text)
    assert (profile, k) == reference_loader.parse_profile(text)
    assert {b.is_three_valued() for b in profile.ballots} == {True, False}


def test_large_documents_load_in_linear_time():
    # 20,000 voters over 14 candidates, half of them with a chain of two
    # to four middle candidates whose order the loader has to close. A
    # loader that does quadratic work in the voters fails the budget.
    rng = Random(20000)
    names = [f"c{i}" for i in range(14)]
    voters = []
    for v in range(20_000):
        ids = rng.sample(range(14), 14)
        q = 2 + rng.randrange(3)
        middle, rest = ids[:q], ids[q:]
        record = {
            "top": [names[c] for c in rest if rng.random() < 0.25],
            "middle": [names[c] for c in middle],
        }
        if v % 2:
            record["order"] = [[names[x], names[y]] for x, y in zip(middle, middle[1:])]
        voters.append(record)
    text = json.dumps({"candidates": names, "k": 3, "voters": voters})
    start = time.perf_counter()
    profile, k = parse_profile(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, elapsed
    assert (profile.n, profile.m, k) == (20_000, 14, 3)
    assert sum(b.is_totally_ordered() and len(b.middle) > 1 for b in profile.ballots) == 10_000
    assert profile.ballots[1].middle_sequence() == [int(c[1:]) for c in voters[1]["middle"]]
    # 20,000 complete voters with every part spelled out, as documents
    # written by serialize_profile are.
    complete = []
    for _ in range(20_000):
        top = {c for c in range(14) if rng.random() < 0.3}
        complete.append({
            "top": [names[c] for c in sorted(top)],
            "middle": [],
            "bottom": [names[c] for c in range(14) if c not in top],
        })
    text = json.dumps({"candidates": names, "voters": complete}, sort_keys=True)
    start = time.perf_counter()
    profile, k = parse_profile(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, elapsed
    assert (profile.n, profile.m, k) == (20_000, 14, None)
    assert [sorted(b.top) for b in profile.ballots[:3]] == [
        [int(name[1:]) for name in record["top"]] for record in complete[:3]]
    assert all(not b.middle and len(b.top) + len(b.bottom) == 14 for b in profile.ballots)


# parse_profile keeps each document it loads by the document's text. The
# tests below each start from an empty store, restored afterwards.
@pytest.fixture
def kept(monkeypatch):
    monkeypatch.setattr(abcu_io, "_kept", {})
    monkeypatch.setattr(abcu_io, "_kept_text", 0)
    monkeypatch.setattr(abcu_io, "_kept_parts", {})
    return abcu_io


def _doc_text(voters, candidates=("c", "a", "b", "d")):
    return json.dumps({"candidates": list(candidates), "voters": voters})


# Ids follow the candidate list (c=0, a=1, b=2, d=3). Pass 1 accepts
# each of these records; pass 2 raises at voter 1, the first of the two
# voters holding it. The second and the fifth make a complete document,
# the others a partial one.
@pytest.mark.parametrize(
    "voter, error, message",
    [
        ({"top": ["a"], "middle": ["a"]}, PartitionOverlapError,
         "candidates in more than one part (voter 1): a"),
        ({"top": ["a"], "bottom": ["b"]}, PartitionIncompleteError,
         "candidates in no part (voter 1): c, d"),
        ({"top": ["c"], "middle": ["a", "b"], "order": [["c", "a"]]}, EdgeOutsideMiddleError,
         "order edge (0, 1) leaves the middle (voter 1)"),
        ({"middle": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}, CycleDetectedError,
         "order constraints are cyclic (voter 1)"),
        ({"top": ["a"], "middle": ["c"], "bottom": ["b"]}, PartitionIncompleteError,
         "candidates in no part (voter 1): d"),
    ],
)
def test_validation_faults_raise_on_every_call(kept, voter, error, message):
    # Nothing is kept of a document whose pass 2 faults, so every call
    # runs both passes again and raises the same fault.
    text = _doc_text([{"top": ["a"]}, voter, voter])
    expected = _outcome(reference_loader.parse_profile, text)
    assert expected == (error, message)
    for _ in range(3):
        assert _outcome(parse_profile, text) == expected
        assert text not in kept._kept


# Ids follow the candidate list (c=0, a=1, b=2, d=3).
@pytest.mark.parametrize(
    "voter, error, message",
    [
        ({"top": ["a"], "bottom": ["b"]}, PartitionIncompleteError,
         "candidates in no part (voter 2): c, d"),
        ({"top": ["a"], "bottom": ["a", "b", "c", "d"]}, PartitionOverlapError,
         "candidates in more than one part (voter 2): a"),
    ],
)
def test_a_faulty_complete_document_is_never_kept_as_a_profile(kept, voter, error, message):
    # Every record is complete, so pass 2 builds the complete view; it
    # faults at voter 2, and no call leaves an entry for the text.
    text = _doc_text([{"top": ["a"]}, {"top": ["b"]}, voter, voter])
    expected = _outcome(reference_loader.parse_profile, text)
    assert expected == (error, message)
    for _ in range(4):
        assert _outcome(parse_profile, text) == expected
        assert text not in kept._kept


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "[]",
        '{"candidates": ["a"], "voters": [], "extra": 1}',
        '{"candidates": ["a"], "k": 0, "voters": []}',
        '{"candidates": ["a"], "voters": {}}',
        _doc_text([{"top": ["a"]}, {"top": ["zz"]}]),
        _doc_text([{"middle": ["a", "b"], "order": [["a"]]}]),
        _doc_text([{"top": ["a", "a"]}]),
    ],
)
def test_syntax_faults_leave_the_kept_texts_as_they_were(kept, text):
    valid = _doc_text([{"top": ["a"]}])
    parse_profile(valid)
    before = dict(kept._kept), kept._kept_text
    expected = _outcome(reference_loader.parse_profile, text)
    assert expected[0] in (ProfileSyntaxError, UnknownCandidateError)
    for _ in range(2):
        assert _outcome(parse_profile, text) == expected
        assert (dict(kept._kept), kept._kept_text) == before


def test_a_partial_document_read_again_is_kept_as_one_profile(kept):
    # Voters 0 and 2 hold one record, their names spelled in different
    # orders; voter 1 holds another. The first read keeps the profile it
    # builds, and every later call returns that profile, its order maps
    # built once.
    text = _doc_text([
        {"top": ["a"], "middle": ["b", "d"], "order": [["b", "d"]]},
        {"top": ["c", "d"], "bottom": ["a", "b"]},
        {"middle": ["d", "b"], "top": ["a"], "order": [["b", "d"]], "bottom": ["c"]},
    ])
    expected = reference_loader.parse_profile(text)
    results = []
    for _ in range(3):
        profile, k = parse_profile(text)
        assert (profile, k) == expected
        results.append(profile)
        assert kept._kept[text][0] is results[0]
    first, second, third = results
    assert first is second is third
    assert first.ballots[0] is first.ballots[2]
    assert first.ballots[0] is not first.ballots[1]
    assert first.ballots[0].up is third.ballots[2].up


def test_kept_documents_share_equal_parts(kept):
    # A part equal to one of a kept document is that document's set.
    first, _ = parse_profile(_doc_text([{"top": ["a"], "middle": ["b", "d"]}]))
    second, _ = parse_profile(_doc_text([{"middle": ["d", "b"], "bottom": ["a", "c"]}]))
    assert second.ballots[0].middle is first.ballots[0].middle
    assert set(kept._kept_parts) == {frozenset(), frozenset({1}), frozenset({2, 3}),
                                     frozenset({0}), frozenset({0, 1})}


# Ids follow the candidate list (c=0, a=1, b=2, d=3). Each document is
# partial and faults in pass 2, after voter 0's ballot is built.
@pytest.mark.parametrize(
    "voters",
    [
        [{"top": ["a"], "middle": ["b"]}, {"top": ["a"], "middle": ["a"]}],
        [{"middle": ["b", "d"]}, {"top": ["c"], "middle": ["a", "b"], "order": [["c", "a"]]}],
        [{"top": ["c"], "middle": ["a", "b"], "order": [["a", "b"]]},
         {"middle": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}],
    ],
)
def test_a_faulty_partial_document_leaves_nothing_kept(kept, voters):
    text = _doc_text(voters)
    for _ in range(2):
        assert _outcome(parse_profile, text) == _outcome(reference_loader.parse_profile, text)
        assert kept._kept == {} and kept._kept_parts == {}
    valid = _doc_text([{"top": ["b"], "middle": ["d"]}])
    parse_profile(valid)
    before = dict(kept._kept), dict(kept._kept_parts)
    assert _outcome(parse_profile, text) == _outcome(reference_loader.parse_profile, text)
    assert (dict(kept._kept), dict(kept._kept_parts)) == before


def test_the_part_table_holds_no_more_than_the_kept_documents(kept, monkeypatch):
    # Distinct partial documents over rotating candidates, cycled through
    # a store that holds about three of them: the table is emptied on each
    # push-out, so it only ever holds parts of kept ballots.
    names = ("c", "a", "b", "d", "e", "f")
    texts = [_doc_text([{"top": [names[i % 6]], "middle": [names[(i + 1) % 6], names[(i + 2) % 6]],
                         "order": [[names[(i + 1) % 6], names[(i + 2) % 6]]]},
                        {"top": [names[(i + 3) % 6], names[i % 6]]}] * (1 + i % 2), names)
             for i in range(8)]
    monkeypatch.setattr(abcu_io, "_KEPT_TEXT", sum(map(len, texts[:3])))
    pushed_out = 0
    for step in range(40):
        text = texts[step * 3 % len(texts)]
        before = list(kept._kept)
        assert parse_profile(text) == reference_loader.parse_profile(text)
        pushed_out += any(t not in kept._kept for t in before)
        held = {part for profile, _ in kept._kept.values()
                for b in profile.ballots for part in (b.top, b.middle, b.bottom)}
        assert set(kept._kept_parts) <= held
        assert all(key is value for key, value in kept._kept_parts.items())
    assert pushed_out > 10


def test_a_complete_document_read_again_is_kept_as_one_profile(kept):
    # Voters 0, 2 and 3 hold one record, spelled three ways; voter 1 holds
    # another. The first read keeps the profile it builds, and every later
    # call returns that profile.
    text = _doc_text([
        {"top": ["a"]},
        {"top": ["c", "d"], "bottom": ["a", "b"]},
        {"top": ["a"], "middle": [], "bottom": ["b", "c", "d"]},
        {"bottom": ["d", "b", "c"], "top": ["a"], "order": []},
    ])
    expected, k = reference_loader.parse_profile(text)
    expected_view = complete_profile(expected.registry, (b.top for b in expected.ballots))
    results = []
    for _ in range(3):
        profile, got_k = parse_profile(text)
        assert (profile, got_k) == (expected, k)
        assert profile.complete_view == expected_view
        results.append(profile)
        assert kept._kept[text][0] is results[0]
    first, second, third = results
    assert first is second is third
    assert first.complete_view is third.complete_view
    view = first.complete_view
    assert first.ballots[0] is first.ballots[2] is first.ballots[3]
    assert view.ballots[0] is view.ballots[2] is view.ballots[3]
    assert view.ballots[0] is not view.ballots[1]
    assert [b.mask for b in view.ballots] == [0b10, 0b1001, 0b10, 0b10]


def test_a_kept_entry_is_never_replaced(kept):
    # Two threads may load one text at once; the first entry kept stays.
    text = _doc_text([{"top": ["a"]}])
    profile, _ = parse_profile(text)
    kept._keep(text, (None, None))
    assert kept._kept[text][0] is profile and kept._kept_text == len(text)
    assert parse_profile(text)[0] is profile


# Bytes a kept partial document holds per character of its text, with
# the masks and order maps queries build on its ballots, measured on the
# document below (tracemalloc, Python 3.11): 3.92. The ceiling is 1.5
# times that, so a change that fattens kept ballots fails here first.
_KEPT_BYTES_PER_CHAR = 1.5 * 3.92


def test_a_kept_partial_document_stays_within_its_bytes_per_character(kept):
    text = serialize_profile(random_partial_profile(Random(30), 300, 10, "poset", 5), 3)
    gc.collect()
    tracemalloc.start()
    try:
        profile, _ = parse_profile(text)
        for b in profile.ballots:
            b.top_mask, b.above(b.middle_mask), b.avoiding(0)
        del profile, b
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert text in kept._kept
    assert held / len(text) < _KEPT_BYTES_PER_CHAR


def _sized_texts(count):
    """Distinct valid documents of different lengths."""
    return [_doc_text([{"top": ["a"]}] * (i + 1)) for i in range(count)]


def test_kept_texts_are_pushed_out_oldest_first(kept, monkeypatch):
    texts = _sized_texts(6)
    budget = sum(map(len, texts[:3]))
    monkeypatch.setattr(abcu_io, "_KEPT_TEXT", budget)
    expected = []
    for i in (0, 1, 2, 0, 3, 4, 0, 5, 5, 1):
        assert parse_profile(texts[i]) == reference_loader.parse_profile(texts[i])
        if texts[i] not in expected:
            expected.append(texts[i])
            while sum(map(len, expected)) > budget:
                expected.pop(0)
        assert list(kept._kept) == expected
        assert kept._kept_text == sum(map(len, expected)) <= budget


def test_a_text_longer_than_the_budget_is_not_kept(kept, monkeypatch):
    small, big = _doc_text([{"top": ["a"]}]), _doc_text([{"top": ["b"]}] * 40)
    monkeypatch.setattr(abcu_io, "_KEPT_TEXT", 2 * len(small))
    parse_profile(small)
    for _ in range(2):
        assert parse_profile(big) == reference_loader.parse_profile(big)
        assert list(kept._kept) == [small] and kept._kept_text == len(small)


def test_threads_parsing_while_texts_are_pushed_out_get_serial_results(kept, monkeypatch):
    # A budget of two texts makes almost every call push one out, so four
    # threads keep and push out entries under each other all the time.
    # Without the store's lock, one thread's eviction reads the dict while
    # another changes it, which raises, or the total loses an update.
    texts = _sized_texts(8) + [
        _doc_text([{"top": ["a"]}, {"middle": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}]),
        _doc_text([{"top": ["a"], "bottom": ["a"]}]),
    ]
    expected = [_outcome(reference_loader.parse_profile, text) for text in texts]
    monkeypatch.setattr(abcu_io, "_KEPT_TEXT", sum(map(len, texts[:2])))
    faults = []

    def work(start):
        try:
            for step in range(2000):
                j = (start + step) % len(texts)
                if _outcome(parse_profile, texts[j]) != expected[j]:
                    faults.append((start, step))
        except Exception as exc:  # any escape is a fault to report
            faults.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert faults == []
    assert kept._kept_text == sum(map(len, kept._kept)) <= abcu_io._KEPT_TEXT
