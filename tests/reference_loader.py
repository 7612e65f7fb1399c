"""The earlier profile loader, kept as a reference for the current one.

It checks every voter name by name, validates each ballot part by part
and closes order constraints by repeated set unions until nothing
changes. It is slow but plain, and its errors (type and message) are the
ones the loader must keep raising. Only the data classes and exception
types are shared with the library.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

from abcu import CandidateRegistry, PartialBallot, PartialProfile
from abcu.errors import (
    CycleDetectedError,
    EdgeOutsideMiddleError,
    PartitionIncompleteError,
    PartitionOverlapError,
    ProfileSyntaxError,
    UnknownCandidateError,
)

VOTER_KEYS = {"top", "middle", "bottom", "order"}


def transitive_closure(edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    succ: dict[int, set[int]] = {}
    for x, y in edges:
        succ.setdefault(x, set()).add(y)
    changed = True
    while changed:
        changed = False
        for x, outs in succ.items():
            extra = set().union(*(succ.get(y, ()) for y in outs)) - outs
            if extra:
                outs |= extra
                changed = True
    return {(x, y) for x, outs in succ.items() for y in outs}


def make_partial_ballot(top, middle, bottom, registry, precedence=(), voter=None):
    where = f" (voter {voter})" if voter is not None else ""
    m = len(registry)
    tset, mset, bset = frozenset(top), frozenset(middle), frozenset(bottom)
    for cid in itertools.chain(tset, mset, bset):
        if not 0 <= cid < m:
            raise UnknownCandidateError(f"candidate id {cid} out of range{where}")
    if not (tset.isdisjoint(mset) and tset.isdisjoint(bset) and mset.isdisjoint(bset)):
        dup = (tset & mset) | (tset & bset) | (mset & bset)
        names = ", ".join(sorted(registry.name_of(c) for c in dup))
        raise PartitionOverlapError(f"candidates in more than one part{where}: {names}")
    if len(tset) + len(mset) + len(bset) != m:
        missing = frozenset(range(m)) - tset - mset - bset
        names = ", ".join(sorted(registry.name_of(c) for c in missing))
        raise PartitionIncompleteError(f"candidates in no part{where}: {names}")
    raw_edges = set(precedence)
    if not raw_edges:
        return PartialBallot(tset, mset, bset)
    for x, y in raw_edges:
        if x not in mset or y not in mset:
            raise EdgeOutsideMiddleError(
                f"order edge ({x}, {y}) leaves the middle{where}"
            )
    closed = transitive_closure(raw_edges)
    if any(x == y for x, y in raw_edges) or any((y, x) in closed for x, y in closed):
        raise CycleDetectedError(f"order constraints are cyclic{where}")
    return PartialBallot(tset, mset, bset, frozenset(closed))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProfileSyntaxError(message)


def _name_list(value: Any, context: str) -> list[str]:
    _require(isinstance(value, list), f"{context} must be an array")
    for name in value:
        _require(isinstance(name, str), f"{context} must contain names only")
    _require(len(set(value)) == len(value), f"{context} repeats a candidate")
    return value


def parse_profile(text: str) -> tuple[PartialProfile, int | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    records = []
    for i, voter in enumerate(voters):
        _require(isinstance(voter, dict), f"voter {i} must be an object")
        unknown = set(voter) - VOTER_KEYS
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
        records.append((top_ids, middle_ids, bottom_ids, edges))
    ballots = [
        make_partial_ballot(top, middle, bottom, registry, edges, i)
        for i, (top, middle, bottom, edges) in enumerate(records)
    ]
    return PartialProfile(registry, tuple(ballots)), k
