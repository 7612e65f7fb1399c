"""Profile documents and result documents.

Profiles travel as JSON objects: a candidate name list, an optional
default committee size k, and one record per voter with "top", "middle",
"bottom" and "order" arrays of candidate names. "top" and "middle"
default to empty, "bottom" to everything not placed elsewhere, "order"
to no constraints; a complete profile is simply one whose middles are
all empty. Serialization is canonical (sorted keys, arrays in registry
order, order pairs as the full transitive closure) so fixtures diff
cleanly. Results leave as single JSON objects with a fixed key order and
exact rationals rendered as p/q strings. A complete profile in a result
(a witness completion, or the completions of a listing) is held as a
BallotRows over its ballots and rendered straight from them: one
serialize_result call quotes the names once and builds each distinct
approval set's row text once.

parse_profile keeps each document whose ballots it has validated, by
the document's exact text and within a fixed budget of text, as its
profile: a document read again skips the decoder and the validation,
and every later read returns that same profile. The kept profiles share
their equal top, middle and bottom sets through one table.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import ProfileSyntaxError
from .model import (
    ApprovalBallot,
    ApprovalProfile,
    CandidateRegistry,
    Decision,
    PartialProfile,
    make_partial_ballot,
)
from .representation import GroupWitness

_VOTER_KEYS = {"top", "middle", "bottom", "order"}
_NO_NAMES: list = []
_NAMES = {str}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProfileSyntaxError(message)


def _name_list(value: Any, context: str, *args: object) -> list[str]:
    """``value`` if it is an array of distinct names; otherwise raise its
    first fault, naming the array ``context.format(*args)``. A message is
    built only for a fault, as the loader reads every voter's arrays."""
    if type(value) is not list:
        fault = "must be an array"
    elif not set(map(type, value)) <= _NAMES:
        fault = "must contain names only"
    elif len(set(value)) != len(value):
        fault = "repeats a candidate"
    else:
        return value
    raise ProfileSyntaxError(f"{context.format(*args)} {fault}")


def _voter_record(i: int, voter: Any, registry: CandidateRegistry) -> tuple:
    """Voter i's (top, middle, bottom, edges): three id sets and the set of
    its order edges, each a frozenset.

    Raises the record's first fault, in the order in which the record is
    read: its shape and keys, the syntax of top and middle, their names,
    bottom's syntax and names, then the order array and its pairs, each
    pair's shape before its names. An absent bottom is everything not in
    top or middle.
    """
    if type(voter) is not dict:
        raise ProfileSyntaxError(f"voter {i} must be an object")
    if not voter.keys() <= _VOTER_KEYS:
        unknown = sorted(voter.keys() - _VOTER_KEYS)
        raise ProfileSyntaxError(f"voter {i} has unknown keys: {unknown}")
    top = _name_list(voter.get("top", _NO_NAMES), 'voter {} "top"', i)
    middle = _name_list(voter.get("middle", _NO_NAMES), 'voter {} "middle"', i)
    id_of = registry.id_of
    top_ids = frozenset(map(id_of, top))
    middle_ids = frozenset(map(id_of, middle))
    if "bottom" in voter:
        bottom_ids = frozenset(map(id_of, _name_list(voter["bottom"], 'voter {} "bottom"', i)))
    else:
        bottom_ids = registry.ids.difference(top_ids, middle_ids)
    order = voter.get("order", _NO_NAMES)
    if type(order) is not list:
        raise ProfileSyntaxError(f'voter {i} "order" must be an array')
    edges = []
    for pair in order:
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str):
            raise ProfileSyntaxError(f'voter {i} "order" entries must be [name, name] pairs')
        edges.append((id_of(pair[0]), id_of(pair[1])))
    return top_ids, middle_ids, bottom_ids, frozenset(edges)


def _decoded(text: str) -> tuple[CandidateRegistry, int | None, list[tuple]]:
    """Pass 1 of parse_profile: the document-level checks, then every
    voter's record read with _voter_record, in voter order.

    Returns the registry, the document's k and one (top, middle, bottom,
    edges) record per voter.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # Nesting deeper than the decoder's stack is malformed input too.
        raise ProfileSyntaxError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "profile document must be an object")
    unknown = set(doc) - {"candidates", "voters", "k"}
    _require(not unknown, f"unknown profile keys: {sorted(unknown)}")
    names = _name_list(doc.get("candidates"), '"candidates"')
    _require(len(names) > 0, "at least one candidate is required")
    registry = CandidateRegistry(tuple(names))
    k = doc.get("k")
    if k is not None:
        _require(isinstance(k, int) and not isinstance(k, bool) and k >= 1,
                 '"k" must be a positive integer')
    voters = doc.get("voters")
    _require(isinstance(voters, list), '"voters" must be an array')
    return registry, k, [_voter_record(i, voter, registry) for i, voter in enumerate(voters)]


# Validated documents by their exact text, oldest first, and the total
# length of the texts they hold. A text pushes out the oldest until the
# total fits _KEPT_TEXT characters again; a longer text is never kept.
# The first call whose pass 2 succeeds writes the entry, once: the
# document's PartialProfile and k. A faulty document is
# never kept. _kept_parts holds the top, middle and bottom sets of kept
# ballots, each its own key, so that equal parts of kept documents are
# one set: a document adds its parts only when it is kept, and the table
# is emptied whenever a text is pushed out, so it never holds more than
# the kept profiles do.
_KEPT_TEXT = 1 << 20
_kept: dict[str, tuple] = {}
_kept_text = 0
_kept_parts: dict[frozenset, frozenset] = {}
_kept_lock = threading.Lock()


def _keep(text: str, entry: tuple, parts: dict | tuple = ()) -> None:
    """Keep the entry for ``text``, and its ballots' ``parts``, unless
    an entry is kept already."""
    global _kept_text
    if len(text) > _KEPT_TEXT:
        return
    with _kept_lock:
        if text in _kept:
            return
        _kept[text] = entry
        _kept_text += len(text)
        if _kept_text > _KEPT_TEXT:
            _kept_parts.clear()
            while _kept_text > _KEPT_TEXT:
                oldest = next(iter(_kept))
                del _kept[oldest]
                _kept_text -= len(oldest)
        _kept_parts.update(parts)


def parse_profile(text: str) -> tuple[PartialProfile, int | None]:
    """Parse a profile document; returns the profile and its default k.

    Two passes put every voter's syntax before any voter's partition and
    order. Pass 1 (_decoded) reads the document and every voter record.
    Pass 2 builds one ballot per distinct record with make_partial_ballot,
    in voter order, so the first partition or order fault raises there at
    the first voter holding it. The first call whose pass 2 succeeds keeps
    the profile by the document's text: that call and every later one
    return the same PartialProfile, whose ballots, masks, order maps and
    complete view are built once. A faulty document runs both passes and
    raises on every call. Each part set is taken from the kept profiles'
    table when an equal one is there.
    """
    kept = _kept.get(text)
    if kept is not None:
        return kept
    registry, k, records = _decoded(text)
    parts: dict[frozenset, frozenset] = {}
    built = {}
    ballots = []
    for i, record in enumerate(records):
        ballot = built.get(record)
        if ballot is None:
            top, middle, bottom, edges = record
            for part in (top, middle, bottom):
                if part not in parts:
                    shared = _kept_parts.get(part)
                    if shared is None:
                        # A copy's table is sized to its members; pass 1
                        # grew its set name by name, to up to twice that.
                        shared = part.union()
                    parts[shared] = shared
            ballot = built[record] = make_partial_ballot(
                parts[top], parts[middle], parts[bottom], registry, edges, i)
        ballots.append(ballot)
    profile = PartialProfile(registry, tuple(ballots))
    _keep(text, (profile, k), parts)
    return profile, k


def _names(registry: CandidateRegistry, ids) -> list[str]:
    return [registry.names[c] for c in sorted(ids)]


def profile_document(profile: PartialProfile, k: int | None = None) -> dict:
    """The canonical JSON object form of a profile."""
    voters = []
    for b in profile.ballots:
        record: dict[str, Any] = {
            "top": _names(profile.registry, b.top),
            "middle": _names(profile.registry, b.middle),
            "bottom": _names(profile.registry, b.bottom),
        }
        if b.precedence:
            record["order"] = [
                [profile.registry.names[x], profile.registry.names[y]]
                for x, y in sorted(b.precedence)
            ]
        voters.append(record)
    doc: dict[str, Any] = {"candidates": list(profile.registry.names)}
    if k is not None:
        doc["k"] = k
    doc["voters"] = voters
    return doc


def serialize_profile(profile: PartialProfile, k: int | None = None) -> str:
    return json.dumps(profile_document(profile, k), indent=2, sort_keys=True)


def completion_rows(profile: ApprovalProfile) -> list[list[str]]:
    """A complete profile as per-voter approval name arrays."""
    return [_names(profile.registry, b.approved) for b in profile.ballots]


@dataclass(frozen=True, slots=True, eq=False)
class BallotRows(Sequence):
    """A read-only sequence of complete ballots read as name rows.

    ``items`` holds ApprovalBallots (one completion), or sequences of
    them (a listing of completions); a ballot reads as its approved names
    in registry order, a sequence as a BallotRows of its own. It compares
    equal to the list of the rows it reads as. serialize_result renders
    it from the ballots.
    """

    registry: CandidateRegistry
    items: Sequence

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        item = self.items[i]
        if isinstance(item, ApprovalBallot):
            return _names(self.registry, item.approved)
        return BallotRows(self.registry, item)

    def __eq__(self, other: object) -> bool:
        return list(self) == other


def decision_document(
    query: str,
    decision: Decision,
    registry: CandidateRegistry,
    include_witness: bool = False,
    extra: dict | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "query": query,
        "answer": decision.answer,
        "method": decision.method_used,
    }
    if extra:
        doc.update(extra)
    if decision.witness_committee is not None:
        doc["witness_committee"] = _names(registry, decision.witness_committee)
    if include_witness and decision.witness is not None:
        doc["witness"] = BallotRows(decision.witness.registry, decision.witness.ballots)
    return doc


def group_witness_document(witness: GroupWitness, registry: CandidateRegistry) -> dict:
    doc: dict[str, Any] = {
        "voters": sorted(witness.voters),
        "common": _names(registry, witness.common),
        "level": witness.level,
    }
    if witness.allowed is not None:
        doc["allowed"] = _names(registry, witness.allowed)
    return doc


def _render(value: Any, pad: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(doc, indent=2)`` gives
    ``value`` at nesting ``pad``.

    Object keys must be strings. A BallotRows renders from its ballots
    as the rows it reads as (see _render_ballots). Any leaf other than a
    string, None, bool, int or Fraction (a float, or an object json
    cannot render) goes to json.dumps itself.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _render(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Fraction):
        out.append(_quote(str(value)))
    elif isinstance(value, BallotRows):
        quoted = list(map(_quote, value.registry.names))
        _render_ballots(value.items, pad, out, quoted, {frozenset(): "[]"})
    else:
        out.append(json.dumps(value))


def _render_ballots(items: Sequence, pad: str, out: list[str], quoted: list, texts: dict) -> None:
    """Append the text of a BallotRows' ``items`` at nesting ``pad``, as
    _render would give the rows they read as. ``quoted`` holds the
    registry's names quoted, and ``texts`` maps approval sets to their
    row texts, the empty set's ``[]`` first. Each other set's row is
    built once, from its ids in ascending order, and appended for every
    ballot holding it: every row of one BallotRows sits at one nesting."""
    inner = pad + "  "
    sep, later = "[\n" + inner, ",\n" + inner
    join = (later + "  ").join
    for item in items:
        out.append(sep)
        sep = later
        if not isinstance(item, ApprovalBallot):
            _render_ballots(item, inner, out, quoted, texts)
            continue
        text = texts.get(item.approved)
        if text is None:
            names = join(map(quoted.__getitem__, sorted(item.approved)))
            text = texts[item.approved] = f"[\n{inner}  {names}\n{inner}]"
        out.append(text)
    out.append("\n" + pad + "]" if items else "[]")


def serialize_result(doc: dict) -> str:
    """Render a result document exactly as ``json.dumps(doc, indent=2)``
    would, key order kept and rationals as p/q strings, in time linear in
    the output."""
    out: list[str] = []
    _render(doc, "", out)
    return "".join(out)
