"""Ballot and profile model.

Complete approval ballots are plain candidate sets. Incomplete ballots
partition the candidate set into top (approved for sure), bottom
(disapproved for sure) and middle (undecided), with an optional strict
partial order on the middle: an order edge (x, y) means that any
completion approving y must also approve x. A completion therefore
approves all of top, none of bottom, and an upward-closed subset of the
middle.

Three structural classes of incomplete profile matter to the algorithm
dispatchers. A profile is three-valued when no ballot carries order
constraints (every middle subset completes), linear when every ballot's
middle is totally ordered (completions are exactly the prefixes of that
order, the empty prefix included), and a general poset otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CapExceededError,
    CycleDetectedError,
    EdgeOutsideMiddleError,
    PartitionIncompleteError,
    PartitionOverlapError,
    ShapeMismatchError,
    UnknownCandidateError,
)

DEFAULT_CAP = 1 << 20


def mask_of(cids: Iterable[int]) -> int:
    """The bitmask with one bit per candidate id."""
    return sum(map((1).__lshift__, cids))


def members_of(mask: int) -> frozenset[int]:
    """The candidate ids a bitmask names; the inverse of mask_of."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


def check_candidate(cid: int, m: int) -> None:
    if not 0 <= cid < m:
        raise UnknownCandidateError(f"candidate id {cid} out of range")


def check_members(committee: Iterable[int], m: int) -> None:
    """Refuse a committee holding an id that names no candidate, which a
    scan would otherwise score as a candidate no voter approves."""
    for cid in committee:
        check_candidate(cid, m)


class _cached(cached_property):
    """cached_property without the lock that, before Python 3.12, triples
    the cost of a first read; most mask reads are first reads."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


@dataclass(frozen=True)
class CandidateRegistry:
    """Immutable mapping between candidate names and dense integer ids."""

    names: tuple[str, ...]
    # Derived from names, so they take no part in eq/hash/repr: the
    # name -> id dict and the set of every id.
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _ids: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {name: cid for cid, name in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValueError("candidate names must be distinct")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ids", frozenset(index.values()))

    @property
    def index(self) -> Mapping[str, int]:
        """The name -> id mapping; it holds names only. Do not modify it."""
        return self._index

    @property
    def ids(self) -> frozenset[int]:
        """Every candidate id, 0 to m - 1."""
        return self._ids

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownCandidateError(f"unknown candidate {name!r}") from None

    def name_of(self, cid: int) -> str:
        check_candidate(cid, len(self.names))
        return self.names[cid]


@dataclass(frozen=True)
class ApprovalBallot:
    """A complete ballot: the set of approved candidate ids, and as
    ``mask`` the same set in candidate-id bits, built on first read."""

    approved: frozenset[int]

    @_cached
    def mask(self) -> int:
        return mask_of(self.approved)


@dataclass(frozen=True)
class ApprovalProfile:
    """Complete ballots for every voter, over a shared registry."""

    registry: CandidateRegistry
    ballots: tuple[ApprovalBallot, ...]

    @property
    def n(self) -> int:
        return len(self.ballots)

    @property
    def m(self) -> int:
        return len(self.registry)


@dataclass(frozen=True, slots=True)
class PartialBallot:
    """An incomplete ballot over candidate ids.

    ``precedence`` is stored transitively closed; a pair (x, y) says x is
    ranked above y, so a completion containing y must contain x. Both
    endpoints always lie in ``middle``.

    The fields after ``precedence`` hold the same ballot in candidate-id
    bits. Each is built on its first read (see _DERIVED) and kept outside
    eq, hash and repr; the fields live in slots, about a third of the
    memory of an instance dict, which counts for ballots a process keeps.
    ``up`` maps the bit of each middle candidate ranked below another to
    that bit and the bits of everything ranked above it, ``down`` the bit
    of each one ranked above another to that bit and those of everything
    ranked below it; a middle bit absent from either stands for itself,
    and an order-free ballot answers without building either. Rows are
    collected by id, whose hash is cheaper than that of a bit on a long
    order. Other modules read the order through ``above``, ``avoiding``
    and ``overlaps``; ``necjr`` reads the closed pairs once per voter.
    """

    top: frozenset[int]
    middle: frozenset[int]
    bottom: frozenset[int]
    precedence: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    top_mask: int = field(init=False, repr=False, compare=False)
    middle_mask: int = field(init=False, repr=False, compare=False)
    up: dict[int, int] = field(init=False, repr=False, compare=False)
    down: dict[int, int] = field(init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # Reached only when a slot is unset or the name is no attribute.
        build = _DERIVED.get(name)
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = build(self)
        object.__setattr__(self, name, value)
        return value

    def is_three_valued(self) -> bool:
        return not self.precedence

    def is_totally_ordered(self) -> bool:
        q = len(self.middle)
        return len(self.precedence) == q * (q - 1) // 2

    def middle_sequence(self) -> list[int]:
        """The middle in rank order, most preferred first.

        Only meaningful for totally ordered middles; each candidate's rank
        is the number of middle candidates below it.
        """
        down = self.down
        return sorted(self.middle, key=lambda c: (-down.get(1 << c, 1 << c).bit_count(), c))

    def forced_by(self, cid: int) -> frozenset[int]:
        """Candidates every completion containing ``cid`` must contain."""
        return frozenset({cid} | {x for x, y in self.precedence if y == cid})

    def above(self, bits: int) -> int:
        """``bits`` and every middle candidate ranked above one of them:
        the middle part of the narrowest completion approving ``bits``."""
        if not self.precedence:
            return bits
        up = self.up
        closure = bits
        while bits:
            low = bits & -bits
            closure |= up.get(low, low)
            bits ^= low
        return closure

    def avoiding(self, bits: int) -> int:
        """The middle without ``bits`` and every candidate ranked below
        one of them: the middle part of the widest completion approving
        none of ``bits``."""
        if not self.precedence:
            return self.middle_mask & ~bits
        down = self.down
        blocked = bits
        while bits:
            low = bits & -bits
            blocked |= down.get(low, low)
            bits ^= low
        return self.middle_mask & ~blocked

    def overlaps(self, inside: int) -> list[int]:
        """Every overlap R = A ∩ inside of a completion's middle part A,
        ascending: the subsets of ``inside`` closed upward under the order
        restricted to it. Each step sets the lowest bit p of inside outside
        R whose superiors on higher bits R all holds, keeps R's bits above
        p and clears those below it but the ones the kept bits force."""
        masks, r = [0], 0
        if not self.precedence:
            while r != inside:
                r = (r - inside) & inside
                masks.append(r)
            return masks
        up = self.up
        while True:
            bits = free = inside & ~r
            while bits:
                p = bits & -bits
                if not up.get(p, p) & free & -(p << 1):
                    break
                bits ^= p
            else:
                return masks
            r = self.above(r & -p | p) & inside
            masks.append(r)


def _up(ballot: PartialBallot) -> dict[int, int]:
    above: dict[int, int] = {}
    for x, y in ballot.precedence:
        above[y] = above.get(y, 0) | 1 << x
    return {1 << y: row | 1 << y for y, row in above.items()}


def _down(ballot: PartialBallot) -> dict[int, int]:
    below: dict[int, int] = {}
    for x, y in ballot.precedence:
        below[x] = below.get(x, 0) | 1 << y
    return {1 << x: row | 1 << x for x, row in below.items()}


# How PartialBallot builds each derived field on its first read.
_DERIVED: dict[str, Callable[[PartialBallot], object]] = {
    "top_mask": lambda ballot: mask_of(ballot.top),
    "middle_mask": lambda ballot: mask_of(ballot.middle),
    "up": _up,
    "down": _down,
}


@dataclass(frozen=True)
class PartialProfile:
    """Incomplete ballots for every voter, over a shared registry; its
    structure answers and its complete view are kept on first read,
    outside eq and hash."""

    registry: CandidateRegistry
    ballots: tuple[PartialBallot, ...]

    @property
    def n(self) -> int:
        return len(self.ballots)

    @property
    def m(self) -> int:
        return len(self.registry)

    @_cached
    def three_valued(self) -> bool:
        return all(b.is_three_valued() for b in self.ballots)

    @_cached
    def linearly_ordered(self) -> bool:
        return all(b.is_totally_ordered() for b in self.ballots)

    @_cached
    def complete_view(self) -> ApprovalProfile | None:
        """The profile as complete ballots, or None when a middle is not
        empty. Ballots with equal tops share one ApprovalBallot, and so
        one mask."""
        if any(b.middle for b in self.ballots):
            return None
        tops = [b.top for b in self.ballots]
        shared = {top: ApprovalBallot(top) for top in set(tops)}
        return ApprovalProfile(self.registry, tuple(map(shared.__getitem__, tops)))


@dataclass(frozen=True)
class Decision:
    """Outcome of a possible/necessary query.

    For a possible-query answered true, ``witness`` is a completion in
    which the queried object wins. For a necessary-query answered false,
    it is a counterexample completion. ``witness_committee`` names the
    committee that wins (or defeats) in the witness, when one applies.
    """

    answer: bool
    witness: ApprovalProfile | None
    witness_committee: frozenset[int] | None
    method_used: str


class ModelClass(Enum):
    THREE_VALUED = "3va"
    LINEAR = "linear"
    POSET = "poset"


def _where(voter: int | None) -> str:
    return f" (voter {voter})" if voter is not None else ""


def _partition_fault(tset, mset, bset, registry: CandidateRegistry, voter: int | None) -> None:
    """Raise the first fault of a top/middle/bottom split that is no partition."""
    where = _where(voter)
    m = len(registry)
    for cid in itertools.chain(tset, mset, bset):
        if not 0 <= cid < m:
            raise UnknownCandidateError(f"candidate id {cid} out of range{where}")
    if not (tset.isdisjoint(mset) and tset.isdisjoint(bset) and mset.isdisjoint(bset)):
        dup = (tset & mset) | (tset & bset) | (mset & bset)
        names = ", ".join(sorted(registry.name_of(c) for c in dup))
        raise PartitionOverlapError(f"candidates in more than one part{where}: {names}")
    missing = registry.ids - tset - mset - bset
    names = ", ".join(sorted(registry.name_of(c) for c in missing))
    raise PartitionIncompleteError(f"candidates in no part{where}: {names}")


def _closed_order(
    edges: frozenset[tuple[int, int]], middle: frozenset[int], voter: int | None
) -> frozenset[tuple[int, int]]:
    """The transitive closure of order edges over the middle.

    Rows are keyed by candidate id, bit y of row x saying x is above y,
    and closed by one bitmask Warshall pass over the ids that head an
    edge: O(q^2) mask operations over q middle candidates. An order that
    is already closed is returned as given.
    """
    rows: dict[int, int] = {}
    for x, y in edges:
        if x not in middle or y not in middle:
            raise EdgeOutsideMiddleError(
                f"order edge ({x}, {y}) leaves the middle{_where(voter)}"
            )
        rows[x] = rows.get(x, 0) | 1 << y
    for k in rows:
        through = rows[k]
        for i, row in rows.items():
            if row >> k & 1:
                rows[i] = row | through
    closed = 0
    for x, row in rows.items():
        if row >> x & 1:
            raise CycleDetectedError(f"order constraints are cyclic{_where(voter)}")
        closed += row.bit_count()
    if closed == len(edges):
        return edges
    pairs = []
    for x, row in rows.items():
        while row:
            low = row & -row
            pairs.append((x, low.bit_length() - 1))
            row ^= low
    return frozenset(pairs)


_NONE: frozenset = frozenset()


def make_partial_ballot(
    top: Iterable[int],
    middle: Iterable[int],
    bottom: Iterable[int],
    registry: CandidateRegistry,
    precedence: Iterable[tuple[int, int]] = (),
    voter: int | None = None,
) -> PartialBallot:
    """Validate one raw ballot record and close its order constraints.

    Checks, in order: ids known to the registry, the three parts disjoint,
    the parts jointly covering the registry, order edges confined to the
    middle, and acyclicity after transitive closure. Ids in range
    partition the registry iff the part sizes add up to m and the parts
    are pairwise disjoint, so no union set is built. Frozensets are taken
    as they are, so a caller holding id sets copies nothing.
    """
    tset, mset, bset = frozenset(top), frozenset(middle), frozenset(bottom)
    if (not registry.ids.issuperset(itertools.chain(tset, mset, bset))
            or len(tset) + len(mset) + len(bset) != len(registry.names)
            or not tset.isdisjoint(bset)
            or mset and not (tset.isdisjoint(mset) and mset.isdisjoint(bset))):
        _partition_fault(tset, mset, bset, registry, voter)
    edges = frozenset(precedence)
    return PartialBallot(tset, mset, bset, _closed_order(edges, mset, voter) if edges else _NONE)


def validate_partial_profile(
    records: Sequence[tuple],
    registry: CandidateRegistry,
) -> PartialProfile:
    """Build a profile from raw (top, middle, bottom[, edges]) records."""
    ballots = []
    for i, record in enumerate(records):
        top, middle, bottom = record[0], record[1], record[2]
        edges = record[3] if len(record) > 3 else ()
        ballots.append(make_partial_ballot(top, middle, bottom, registry, edges, i))
    return PartialProfile(registry, tuple(ballots))


def classify(profile: PartialProfile) -> ModelClass:
    """Structural class of the profile; ties resolve to THREE_VALUED."""
    if is_three_valued(profile):
        return ModelClass.THREE_VALUED
    if is_linearly_ordered(profile):
        return ModelClass.LINEAR
    return ModelClass.POSET


def is_three_valued(profile: PartialProfile) -> bool:
    """True when every ballot is free of order constraints."""
    return profile.three_valued


def is_linearly_ordered(profile: PartialProfile) -> bool:
    """True when every ballot's middle is totally ordered.

    Middles of size at most one count, so this can hold together with
    is_three_valued; possible.route tests both as capabilities, not classes.
    """
    return profile.linearly_ordered


def _option_masks(ballot: PartialBallot, committee: int = -1, widest: bool = False) -> list[int]:
    """The middle part of one completion per overlap R = A ∩ W, W given
    as its bitmask (every candidate by default), in the order in which
    an ascending walk over every completion first reaches each R.

    The completions with a given R are closed under intersection and
    union: the narrowest, above(R), lies inside all the others and so is
    reached first; the widest is avoiding(inside ^ R), inside being
    middle ∩ W. An order-free ballot takes the same path: there above(R)
    is R, and the widest adds the middle outside W. When inside is the
    whole middle, each R is a completion, already ascending.
    """
    middle = ballot.middle_mask
    inside = middle & committee
    masks = ballot.overlaps(inside)
    if inside == middle:
        return masks
    narrowest = sorted(map(ballot.above, masks))
    if widest:
        return [ballot.avoiding(inside & ~a) for a in narrowest]
    return narrowest


def completions_of_ballot(ballot: PartialBallot) -> list[ApprovalBallot]:
    """All completions of one ballot, in a deterministic order.

    The order is ascending by the candidate-id bitmask of the chosen
    middle subset. For a totally ordered middle this yields exactly the
    q+1 prefixes of the ranking. Only upward-closed subsets are generated.
    """
    return _ballots(ballot, ballot.overlaps(ballot.middle_mask))


def _ballots(ballot: PartialBallot, masks: Iterable[int]) -> list[ApprovalBallot]:
    """The top plus each mask's middle part."""
    top, middle = ballot.top, ballot.middle
    return [ApprovalBallot(top | {c for c in middle if mask >> c & 1}) for mask in masks]


def count_ballot_completions(ballot: PartialBallot) -> int:
    """Number of completions of one ballot, without enumerating them.

    Counts upward-closed middle subsets by the standard split on one
    element x: either x is in the subset (forcing everything above it) or
    not (excluding everything below it). Subsets are bitmasks, and the
    splits run on an explicit stack, so a long chain neither recurses
    deeply nor rescans the order.
    """
    if not ballot.precedence:
        # An empty middle must exit here: the split would count it twice.
        return 1 << len(ballot.middle)
    up, down = ballot.up, ballot.down
    counts = {0: 1}
    stack = [ballot.middle_mask]
    while stack:
        elems = stack[-1]
        x = elems & -elems
        parts = elems & ~up.get(x, x), elems & ~down.get(x, x)
        todo = [part for part in parts if part not in counts]
        if todo:
            stack += todo
        else:
            counts[elems] = counts[parts[0]] + counts[parts[1]]
            stack.pop()
    return counts[ballot.middle_mask]


def count_completions(profile: PartialProfile) -> int:
    """Number of joint completions of the whole profile."""
    total = 1
    for ballot in profile.ballots:
        total *= count_ballot_completions(ballot)
    return total


def completion_options(
    profile: PartialProfile,
    cap: int = DEFAULT_CAP,
    committee: frozenset[int] | None = None,
    widest: bool = False,
) -> list[list[ApprovalBallot]]:
    """Each voter's options, for every completion scan to walk: the one
    option builder and the one cap check.

    Refuses an id in W that names no candidate, then raises
    CapExceededError if the joint count of every completion exceeds
    ``cap``, before any option is built. Each voter keeps one completion
    per overlap A ∩ W, the narrowest or, with ``widest``, the widest,
    built straight from the ballot: at most 2^|middle ∩ W| per voter.
    Without a committee each overlap is a whole completion, so a voter's
    options are completions_of_ballot.
    """
    check_members(committee or (), profile.m)
    total = count_completions(profile)
    if total > cap:
        raise CapExceededError(f"{total} completions exceed the cap of {cap}")
    wmask = -1 if committee is None else mask_of(committee)
    return [_ballots(b, _option_masks(b, wmask, widest)) for b in profile.ballots]


def enumerate_completions(
    profile: PartialProfile,
    cap: int = DEFAULT_CAP,
    committee: frozenset[int] | None = None,
    widest: bool = False,
) -> Iterator[ApprovalProfile]:
    """Stream the joint completions of completion_options, the first
    voter's option varying slowest; the cap check runs on the first item
    asked for. Consecutive completions share unchanged voters' ballots.
    Without a committee every completion is streamed; with one, the
    narrowest stream is a subsequence of the full one."""
    registry = profile.registry
    for choice in itertools.product(*completion_options(profile, cap, committee, widest)):
        yield ApprovalProfile(registry, choice)


def is_completion(approvals: ApprovalProfile, profile: PartialProfile) -> bool:
    """Whether a complete profile is a completion of a partial one."""
    if approvals.n != profile.n or approvals.registry != profile.registry:
        raise ShapeMismatchError("profiles differ in voters or registry")
    for complete, partial in zip(approvals.ballots, profile.ballots):
        top = partial.top_mask
        chosen = complete.mask & ~top
        if (complete.mask & top != top or chosen & ~partial.middle_mask
                or partial.above(chosen) != chosen):
            return False
    return True


def completion_by(
    profile: PartialProfile, pick: Callable[[PartialBallot], Iterable[int]]
) -> ApprovalProfile:
    """The completion in which each voter approves its top plus ``pick(ballot)``.

    Every canonical completion is built here; ``pick`` must return an
    upward-closed part of the ballot's middle.
    """
    return ApprovalProfile(
        profile.registry,
        tuple(ApprovalBallot(b.top.union(pick(b))) for b in profile.ballots),
    )


def complete_profile(
    registry: CandidateRegistry, approvals: Iterable[Iterable[int]]
) -> ApprovalProfile:
    """Convenience constructor for a complete profile from id sets."""
    return ApprovalProfile(
        registry, tuple(ApprovalBallot(frozenset(a)) for a in approvals)
    )


def as_partial(profile: ApprovalProfile) -> PartialProfile:
    """View a complete profile as the partial profile with empty middles."""
    everyone = profile.registry.ids
    return PartialProfile(
        profile.registry,
        tuple(
            PartialBallot(b.approved, frozenset(), everyone - b.approved)
            for b in profile.ballots
        ),
    )
