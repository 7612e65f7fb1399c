"""Profile documents and result documents.

Profiles travel as JSON objects: a candidate name list, an optional
default committee size k, and one record per voter with "top", "middle",
"bottom" and "order" arrays of candidate names. "top" and "middle"
default to empty, "bottom" to everything not placed elsewhere, "order"
to no constraints; a complete profile is simply one whose middles are
all empty. Serialization is canonical (sorted keys, arrays in registry
order, order pairs as the full transitive closure) so fixtures diff
cleanly. Results leave as single JSON objects with a fixed key order and
exact rationals rendered as p/q strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .errors import ProfileSyntaxError
from .model import (
    ApprovalProfile,
    CandidateRegistry,
    Decision,
    PartialProfile,
    validate_partial_profile,
)
from .representation import GroupWitness

_VOTER_KEYS = {"top", "middle", "bottom", "order"}
_NO_NAMES: list = []
_ARRAY = {list}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProfileSyntaxError(message)


def _name_list(value: Any, context: str) -> list[str]:
    _require(isinstance(value, list), f"{context} must be an array")
    for name in value:
        _require(isinstance(name, str), f"{context} must contain names only")
    _require(len(set(value)) == len(value), f"{context} repeats a candidate")
    return value


def _voter_record(voter: Any, id_of: Callable[[str], int], everyone: frozenset[int]) -> tuple:
    """One voter's id sets and order edges, for a well-formed record only.

    Each name array maps straight to an id set; an absent or empty order
    yields no edges. Any fault raises LookupError, TypeError or
    ValueError (``id_of``, the registry's name -> id lookup, holds names
    only); _checked_record then names it.
    """
    if type(voter) is not dict or not voter.keys() <= _VOTER_KEYS:
        raise TypeError("not a voter record")
    top = voter.get("top", _NO_NAMES)
    middle = voter.get("middle", _NO_NAMES)
    if type(top) is not list or type(middle) is not list:
        raise TypeError("not an array")
    top_ids = frozenset(map(id_of, top))
    middle_ids = frozenset(map(id_of, middle))
    if len(top_ids) != len(top) or len(middle_ids) != len(middle):
        raise ValueError("repeated name")
    if "bottom" in voter:
        bottom = voter["bottom"]
        if type(bottom) is not list:
            raise TypeError("not an array")
        bottom_ids = frozenset(map(id_of, bottom))
        if len(bottom_ids) != len(bottom):
            raise ValueError("repeated name")
    else:
        bottom_ids = everyone.difference(top_ids, middle_ids)
    order = voter.get("order", _NO_NAMES)
    if type(order) is not list:
        raise TypeError("not an array")
    if not order:
        return top_ids, middle_ids, bottom_ids, ()
    if not set(map(type, order)) <= _ARRAY:
        raise TypeError("not an array of arrays")
    return top_ids, middle_ids, bottom_ids, [(id_of(x), id_of(y)) for x, y in order]


def _checked_record(i: int, voter: Any, registry: CandidateRegistry) -> tuple:
    """One voter's ids, found by checks that raise the record's first
    syntax fault in document order."""
    _require(isinstance(voter, dict), f"voter {i} must be an object")
    unknown = set(voter) - _VOTER_KEYS
    _require(not unknown, f"voter {i} has unknown keys: {sorted(unknown)}")
    top = _name_list(voter.get("top", []), f'voter {i} "top"')
    middle = _name_list(voter.get("middle", []), f'voter {i} "middle"')
    top_ids = [registry.id_of(name) for name in top]
    middle_ids = [registry.id_of(name) for name in middle]
    if "bottom" in voter:
        bottom = _name_list(voter["bottom"], f'voter {i} "bottom"')
        bottom_ids = [registry.id_of(name) for name in bottom]
    else:
        placed = set(top_ids) | set(middle_ids)
        bottom_ids = [c for c in range(len(registry)) if c not in placed]
    order = voter.get("order", [])
    _require(isinstance(order, list), f'voter {i} "order" must be an array')
    edges = []
    for pair in order:
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(p, str) for p in pair),
            f'voter {i} "order" entries must be [name, name] pairs',
        )
        edges.append((registry.id_of(pair[0]), registry.id_of(pair[1])))
    return top_ids, middle_ids, bottom_ids, edges


def parse_profile(text: str) -> tuple[PartialProfile, int | None]:
    """Parse a profile document; returns the profile and its default k.

    Every voter's syntax is checked before any voter is validated, so the
    error raised is the first syntax fault if there is one. Each name
    array maps to an id set in one pass; only a record that pass rejects
    goes through the name-by-name checks that say what is wrong with it.
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
    id_of, everyone = registry.index.__getitem__, registry.ids
    records = []
    for i, voter in enumerate(voters):
        try:
            records.append(_voter_record(voter, id_of, everyone))
        except (LookupError, TypeError, ValueError):
            records.append(_checked_record(i, voter, registry))
    return validate_partial_profile(records, registry), k


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


def completion_rows(profile: ApprovalProfile, rows: dict | None = None) -> list[list[str]]:
    """A complete profile as per-voter approval name arrays.

    ``rows`` maps approval sets to their name arrays; pass one dict to
    every completion of a listing so each distinct set is named once and
    its array shared.
    """
    if rows is None:
        rows = {}
    out = []
    for b in profile.ballots:
        row = rows.get(b.approved)
        if row is None:
            row = rows[b.approved] = _names(profile.registry, b.approved)
        out.append(row)
    return out


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
        doc["witness"] = completion_rows(decision.witness)
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


_STR_ONLY = {str}


def _render(value: Any, pad: str, out: list[str], rows: dict) -> None:
    """Append to ``out`` the text ``json.dumps(doc, indent=2)`` gives
    ``value`` at nesting ``pad``.

    A non-empty list of strings is rendered once per distinct
    ``(pad, strings)`` and kept in ``rows``, so a completion listing
    renders each approval row once. ``rows`` also maps ``(pad, id(list))``
    to that text, so a row object met again skips the type check and the
    tuple; the document keeps every list alive for the whole call, so an
    id names one list throughout. Object keys must be strings. Any leaf
    other than a string, None, bool, int or Fraction (a float, or an
    object json cannot render) goes to json.dumps itself.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        same = (pad, id(value))
        text = rows.get(same)
        if text is not None:
            out.append(text)
            return
        if set(map(type, value)) == _STR_ONLY:
            key = (pad, tuple(value))
            text = rows.get(key)
            if text is None:
                sep = ",\n" + inner
                text = rows[key] = "[\n" + inner + sep.join(map(_quote, value)) + "\n" + pad + "]"
            rows[same] = text
            out.append(text)
            return
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out, rows)
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
            _render(item, inner, out, rows)
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
    else:
        out.append(json.dumps(value))


def serialize_result(doc: dict) -> str:
    """Render a result document exactly as ``json.dumps(doc, indent=2)``
    would, key order kept and rationals as p/q strings, in time linear in
    the output."""
    out: list[str] = []
    _render(doc, "", out, {})
    return "".join(out)
