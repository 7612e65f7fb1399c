"""Seeded inputs and query lists for the three benchmark workloads.

Each workload is a fixed schedule of query slots: how many profiles, their
n, m and k, which query families, rules and flags ask about them. The seed
draws only what fills the slots: the ballots, the committees and
candidates asked about, the gadget instances and the order in which a
pass visits the queries. Keeping the schedule fixed keeps the cost mix of
a pass the same from seed to seed, so the spread between seeds measures
the program and not a lucky draw of instance sizes.

Nothing here imports the test suite's generators: later edits to the tests
must not shift the benchmark's inputs. The only library calls are the
public gadget constructors and their source-problem solvers, which give the
gadget queries an answer known independently of the query being timed.

Why each workload exists:

- complete-audit: it exercises the big single-profile scans in rules and
  representation. Parsing the large documents is a smaller but real share.
  It does no completion work at all.
- incomplete-poly: it drives the possible/necessary canonical routes and
  max_diff_*. Queries are small, so io parsing weighs a lot here. It never
  enumerates.
- incomplete-brute: it drives model enumeration and the brute loops. It
  uses rules and representation differently from complete-audit: many tiny
  calls per query rather than one big one, so a kernel that wins on large
  n but adds per-call set-up shows as a loss here. It adds output-heavy io
  writes (enumerate) beside the read-heavy parsing of the other two.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

WORKLOADS = ("complete-audit", "incomplete-poly", "incomplete-brute")

@dataclass
class Query:
    """One CLI invocation of a workload.

    ``expect`` is the exit code known from construction (0 or 1), or None
    when only the answer the result document reports fixes it. ``info``
    carries what the output checker needs to re-verify the result.
    """

    family: str
    argv: list[str]
    profile: str | None = None
    expect: int | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    queries: list[Query]
    files: dict[str, str]


def _names(m: int) -> list[str]:
    return [f"c{i}" for i in range(m)]


def _profile_text(m: int, k: int, voters: list[tuple]) -> str:
    """A profile document; voters are (top, middle, edges) id collections."""
    names = _names(m)
    records = []
    for top, middle, edges in voters:
        placed = set(top) | set(middle)
        record = {
            "top": [names[c] for c in sorted(top)],
            "middle": [names[c] for c in sorted(middle)],
            "bottom": [names[c] for c in range(m) if c not in placed],
        }
        if edges:
            record["order"] = [[names[x], names[y]] for x, y in edges]
        records.append(record)
    doc = {"candidates": names, "k": k, "voters": records}
    return json.dumps(doc, indent=2, sort_keys=True)


def _committee_arg(committee) -> str:
    return ",".join(f"c{c}" for c in sorted(committee))


def _spread(lo: int, hi: int, count: int, i: int) -> int:
    """The i-th of ``count`` evenly spaced integers from lo to hi."""
    return lo + (hi - lo) * i // max(count - 1, 1)


# complete-audit -------------------------------------------------------------

AUDIT_PROFILES = 22
_AXIOMS = ("jr", "pjr", "ejr")


def _clustered_ballots(rng: Random, n: int, m: int) -> list[list[int]]:
    """Voters drawn from a few cohesive groups, plus scattered approvals.

    Cohesive groups are what the representation axioms are about; without
    them every check fails on its first level-1 scan.
    """
    groups = 2 + rng.randrange(3)
    cores = [rng.sample(range(m), 2 + rng.randrange(3)) for _ in range(groups)]
    ballots = []
    for _ in range(n):
        core = cores[rng.randrange(groups)]
        approved = {c for c in core if rng.random() < 0.85}
        approved |= {c for c in range(m) if rng.random() < 0.12}
        ballots.append(sorted(approved))
    return ballots


def _audit(rng: Random, workdir: str) -> Workload:
    # Winner scans cost the same whatever the ballots say, audits stop at
    # the first violation. Three winner queries to two audits per profile
    # put the median and the 90th percentile among the winner scans, so
    # the seed moves them little.
    queries, files = [], {}
    for i in range(AUDIT_PROFILES):
        n = _spread(60, 150, AUDIT_PROFILES, i)
        m = 10 + i % 5
        k = 2 + i % 2
        ballots = _clustered_ballots(rng, n, m)
        path = os.path.join(workdir, f"audit{i:02d}.json")
        files[path] = _profile_text(m, k, [(b, (), ()) for b in ballots])
        for rule in ("av", "pav", "cc"):
            queries.append(Query(
                "winners", ["winners", "--profile", path, "--rule", rule],
                path, 0, {"rule": rule, "k": k},
            ))
        # One committee of the most approved candidates, which tends to
        # satisfy the axioms and so makes the scan run to the end, and one
        # random committee, which tends to violate them early.
        counts = [sum(c in b for b in ballots) for c in range(m)]
        popular = sorted(range(m), key=lambda c: (-counts[c], c))[:k]
        pairs = ((popular, _AXIOMS[i % 3]), (rng.sample(range(m), k), _AXIOMS[(i + 1) % 3]))
        for committee, axiom in pairs:
            queries.append(Query(
                "check",
                ["check", "--profile", path,
                 "--committee", _committee_arg(committee), "--axiom", axiom],
                path, None, {"committee": sorted(committee), "axiom": axiom, "k": k},
            ))
    return Workload(queries, files)


# incomplete-poly ------------------------------------------------------------

POLY_PROFILES = 30


def _partial_voters(rng: Random, n: int, m: int, kind: str) -> list[tuple]:
    """Random incomplete ballots of one structural kind.

    Each ballot leaves one to four candidates undecided and approves a
    quarter of the rest. "3va" leaves middles unordered, "linear" chains
    them, "poset" keeps the pairs of a random ranking with probability one
    half (acyclic by construction). A linear or poset middle of one
    candidate carries no edge, which both classes allow.
    """
    voters = []
    for _ in range(n):
        ids = list(range(m))
        rng.shuffle(ids)
        q = 1 + rng.randrange(4)
        middle, rest = ids[:q], ids[q:]
        top = [c for c in rest if rng.random() < 0.25]
        if kind == "3va":
            edges = []
        elif kind == "linear":
            edges = [(middle[j], middle[j + 1]) for j in range(q - 1)]
        else:
            edges = [
                (middle[a], middle[b])
                for a in range(q) for b in range(a + 1, q)
                if rng.random() < 0.5
            ]
        voters.append((top, middle, edges))
    return voters


# Which families ask about each kind of profile, and under which rules, so
# that every query lands on a canonical-completion route (auto never falls
# back to enumeration here).
_POLY_SLOTS = {
    "3va": [
        ("poscom", "av"), ("posmem", "av"), ("necmem", "av"),
        ("neccom", "av"), ("neccom", "sav"), ("posjr", None), ("necjr", None),
    ],
    "linear": [
        ("poscom", "cc"), ("posmem", "av"), ("posmem", "cc"), ("necmem", "av"),
        ("necmem", "cc"), ("neccom", "pav"), ("posjr", None), ("necjr", None),
    ],
    "poset": [
        ("neccom", "av"), ("neccom", "pav"), ("neccom", "sav"),
        ("posjr", None), ("necjr", None), ("posjr", None), ("necjr", None),
    ],
}


def _poly(rng: Random, workdir: str) -> Workload:
    queries, files = [], {}
    kinds = ("3va", "linear", "poset")
    for i in range(POLY_PROFILES):
        kind = kinds[i % 3]
        n = _spread(40, 80, POLY_PROFILES, i)
        m = 10 + i % 3
        # The poscom-iteration and defeat-scan routes loop over committees
        # and rescan the profile for each, so they stay at k = 2.
        k = 2 if kind != "poset" else 2 + i % 2
        voters = _partial_voters(rng, n, m, kind)
        path = os.path.join(workdir, f"poly{i:02d}.json")
        files[path] = _profile_text(m, k, voters)
        for j, (family, rule) in enumerate(_POLY_SLOTS[kind]):
            argv = [family, "--profile", path]
            info = {"k": k}
            if rule is not None:
                argv += ["--rule", rule]
                info["rule"] = rule
            if family in ("posmem", "necmem"):
                cand = rng.randrange(m)
                argv += ["--candidate", f"c{cand}"]
                info["candidate"] = cand
            else:
                committee = sorted(rng.sample(range(m), k))
                argv += ["--committee", _committee_arg(committee)]
                info["committee"] = committee
            if (i + j) % 2:
                argv.append("--witness")
                info["witness"] = True
            queries.append(Query(family, argv, path, None, info))
    return Workload(queries, files)


# incomplete-brute -----------------------------------------------------------

BRUTE_M = 6
BRUTE_K = 2
BRUTE_RULES = ("pav", "sav", "table:0,1,3/2")

# Poset middles of three candidates, as local edge lists; each shape has a
# fixed number of completions, so a profile's completion count does not
# depend on the seed.
_POSET_SHAPES = (
    ((0, 1), (0, 2)),   # one above two: 5 completions
    ((0, 2), (1, 2)),   # two above one: 5 completions
    ((0, 1),),          # a pair and a free candidate: 6 completions
)


def _brute_voters(rng: Random, kind: str, middles: list[int],
                  free: list[int], fixed_top: list[int]) -> list[tuple]:
    """Ballots whose middle sizes are the given list, in seeded order.

    Middles and the random part of the top come from ``free``; every
    ballot also approves ``fixed_top`` outright.
    """
    sizes = list(middles)
    rng.shuffle(sizes)
    voters = []
    triples = 0
    for q in sizes:
        ids = list(free)
        rng.shuffle(ids)
        middle, rest = ids[:q], ids[q:]
        top = list(fixed_top) + [c for c in rest if rng.random() < 0.35]
        if kind == "3va" or q < 2:
            edges = []
        elif kind == "linear":
            edges = [(middle[j], middle[j + 1]) for j in range(q - 1)]
        else:
            shape = ((0, 1),)
            if q == 3:
                shape = _POSET_SHAPES[triples % len(_POSET_SHAPES)]
                triples += 1
            edges = [(middle[a], middle[b]) for a, b in shape]
        voters.append((top, middle, edges))
    return voters


# Open profiles: (kind, middle sizes per voter). Completions are 2^sum for
# 3va, the product of (q + 1) for linear, and for poset the product over
# the shapes, which the ballots take in a fixed order. Their answers are whatever the ballots make them, so they stay
# small: how far a search runs before it stops varies by seed.
_OPEN_PROFILES = (
    ("3va", [2, 1, 1, 0, 0, 0, 0]),        # 16
    ("3va", [2, 1, 1, 1, 0, 0, 0, 0]),     # 32
    ("3va", [2, 2, 1, 1, 0, 0, 0]),        # 64
    ("linear", [3, 1, 1, 1, 0, 0, 0]),     # 32
    ("linear", [2, 2, 1, 1, 0, 0, 0, 0]),  # 36
    ("linear", [3, 3, 1, 0, 0, 0]),        # 32
    ("linear", [3, 2, 1, 1, 0, 0, 0]),     # 48
    ("poset", [3, 3, 1, 0, 0, 0, 0]),      # 5 * 5 * 2 = 50
    ("poset", [3, 2, 1, 0, 0, 0]),         # 5 * 3 * 2 = 30
    ("poset", [3, 3, 0, 0, 0, 0, 0]),      # 5 * 5 = 25
)

# Planted profiles: two candidates every voter approves, one nobody
# approves, and middles over the other three. That fixes the answer of
# each query asked of them to one that makes the search visit every
# completion, so their cost is set by the completion count alone and the
# seed cannot move it. They are the heaviest queries of the workload, so
# the 90th percentile and the throughput rest on them. See
# _planted_queries for why each answer holds.
_PLANTED_PROFILES = (
    ("3va", [3, 2, 1, 1, 0, 0, 0]),        # 128
    ("linear", [3, 3, 2, 1, 0, 0, 0]),     # 96
    ("3va", [3, 2, 2, 0, 0, 0]),           # 128
    ("linear", [3, 3, 3, 1, 0, 0, 0]),     # 128
    ("poset", [3, 3, 2, 1, 0, 0]),         # 5 * 5 * 3 * 2 = 150
    ("3va", [3, 3, 1, 0, 0, 0, 0]),        # 128
    ("linear", [3, 3, 2, 2, 0, 0]),        # 144
    ("poset", [3, 3, 3, 0, 0, 0, 0]),      # 5 * 5 * 6 = 150
    ("3va", [3, 2, 2, 1, 0, 0, 0]),        # 256
    ("linear", [3, 3, 3, 0, 0, 0]),        # 64
    ("poset", [3, 3, 2, 2, 0, 0]),         # 5 * 5 * 3 * 3 = 225
    ("3va", [2, 2, 2, 1, 0, 0, 0, 0]),     # 128
)


def _open_queries(rng: Random, i: int, path: str) -> list[Query]:
    queries = []
    for j, family in enumerate(("poscom", "posmem", "necmem", "posjr", "necjr",
                                "poscom", "posmem", "necmem", "posjr", "necjr")):
        argv = [family, "--profile", path]
        info = {"k": BRUTE_K}
        if family in ("posjr", "necjr"):
            info["axiom"] = ("pjr", "ejr")[(i + j) % 2]
        else:
            info["rule"] = BRUTE_RULES[(i + j) % 3]
            argv += ["--rule", info["rule"]]
        if family in ("posmem", "necmem"):
            info["candidate"] = rng.randrange(BRUTE_M)
            argv += ["--candidate", f"c{info['candidate']}"]
        else:
            info["committee"] = sorted(rng.sample(range(BRUTE_M), BRUTE_K))
            argv += ["--committee", _committee_arg(info["committee"])]
        if "axiom" in info:
            argv += ["--axiom", info["axiom"]]
        if (i + j) % 2:
            argv.append("--witness")
            info["witness"] = True
        queries.append(Query(family, argv, path, None, info))
    return queries


def _planted_queries(i: int, path: str, both: list[int], never: int,
                     other: int) -> list[Query]:
    """Queries whose answers follow from the planted candidates.

    Every voter approves both candidates in ``both`` and nobody approves
    ``never``. Under pav, sav and the two-step table alike, the pair
    ``both`` outscores any committee holding ``never`` (it gains w(2) per
    voter, or 2/|A|, against at most w(1), or 1/|A|) and a candidate every
    voter approves can replace any member of a winning committee without
    lowering its score. So, in every completion: ``never`` is in no
    winning committee (posmem false, poscom of a committee holding it
    false), a member of ``both`` is in some winning committee (necmem
    true), the whole electorate jointly approves two candidates yet
    touches at most one member of a committee holding ``never`` (PJR and
    EJR fail, posjr false), and the committee ``both`` is approved twice by
    every voter (PJR and EJR hold, necjr true). Each of these answers makes
    the search visit every completion.
    """
    rule = [BRUTE_RULES[(i + j) % 3] for j in range(3)]
    axiom = ("pjr", "ejr")[i % 2], ("ejr", "pjr")[i % 2]
    spoiled = _committee_arg([never, other])
    pair = _committee_arg(both)
    rows = [
        ("posmem", ["--rule", rule[0], "--candidate", f"c{never}"], 1,
         {"rule": rule[0], "candidate": never}),
        ("necmem", ["--rule", rule[1], "--candidate", f"c{both[0]}"], 0,
         {"rule": rule[1], "candidate": both[0]}),
        ("poscom", ["--rule", rule[2], "--committee", spoiled], 1,
         {"rule": rule[2], "committee": sorted([never, other])}),
        ("posjr", ["--committee", spoiled, "--axiom", axiom[0]], 1,
         {"committee": sorted([never, other]), "axiom": axiom[0]}),
        ("necjr", ["--committee", pair, "--axiom", axiom[1]], 0,
         {"committee": sorted(both), "axiom": axiom[1]}),
    ]
    queries = []
    for family, args, expect, info in rows:
        info["k"] = BRUTE_K
        queries.append(Query(family, [family, "--profile", path] + args, path, expect, info))
    queries.append(Query("enumerate", ["enumerate", "--profile", path], path, 0, {}))
    return queries


def _x3c_triples(rng: Random, plant: bool, sets: int) -> list[tuple[int, ...]]:
    """Triples over six elements; a planted draw contains an exact cover."""
    triples = [tuple(rng.sample(range(6), 3)) for _ in range(sets)]
    if plant:
        universe = list(range(6))
        rng.shuffle(universe)
        triples[:2] = [tuple(universe[:3]), tuple(universe[3:])]
        rng.shuffle(triples)
    return triples


def _one_in_three_clauses(rng: Random, plant: bool, elements: int,
                          clauses: int) -> list[tuple[int, ...]]:
    """Three-element clauses; a planted draw has a one-hot selection."""
    if not plant:
        return [tuple(rng.sample(range(elements), 3)) for _ in range(clauses)]
    chosen = set(rng.sample(range(elements), max(1, elements // 3)))
    out = []
    while len(out) < clauses:
        clause = rng.sample(range(elements), 3)
        if sum(e in chosen for e in clause) == 1:
            out.append(tuple(clause))
    return out


def _instance_text(elements: int, triples) -> str:
    lines = [str(elements)] + [" ".join(str(e + 1) for e in t) for t in triples]
    return "\n".join(lines) + "\n"


# Gadget slots: (gadget, expected answer, sets or (elements, clauses)).
_GADGETS = (
    ("linearx3c", True, 5), ("linearx3c", True, 5), ("linearx3c", True, 4),
    ("linearx3c", False, 5), ("linearx3c", False, 4), ("linearx3c", False, 4),
    ("cc3va", True, (5, 4)), ("cc3va", True, (4, 3)),
    ("cc3va", False, (5, 5)), ("cc3va", False, (4, 4)),
)


def _brute(rng: Random, workdir: str) -> Workload:
    from abcu.io import profile_document
    from abcu.reductions import (
        build_cc_3va,
        build_linear_x3c,
        parse_one_in_three,
        parse_x3c,
        solve_one_in_three_brute,
        solve_x3c_brute,
    )

    queries, files = [], {}
    everyone = list(range(BRUTE_M))
    for i, (kind, middles) in enumerate(_OPEN_PROFILES):
        voters = _brute_voters(rng, kind, middles, everyone, [])
        path = os.path.join(workdir, f"open{i:02d}.json")
        files[path] = _profile_text(BRUTE_M, BRUTE_K, voters)
        queries += _open_queries(rng, i, path)
    for i, (kind, middles) in enumerate(_PLANTED_PROFILES):
        ids = list(everyone)
        rng.shuffle(ids)
        both, never, free = sorted(ids[:2]), ids[2], ids[3:]
        voters = _brute_voters(rng, kind, middles, free, both)
        path = os.path.join(workdir, f"planted{i:02d}.json")
        files[path] = _profile_text(BRUTE_M, BRUTE_K, voters)
        queries += _planted_queries(i, path, both, never, rng.choice(free))

    for g, (gadget, truth, size) in enumerate(_GADGETS):
        # Draws repeat until the source-problem solver gives the slot's
        # answer; planting makes a true draw certain at the first try.
        while True:
            if gadget == "linearx3c":
                text = _instance_text(6, _x3c_triples(rng, truth, size))
                instance = parse_x3c(text)
                solvable = solve_x3c_brute(instance)
            else:
                elements, clauses = size
                text = _instance_text(elements, _one_in_three_clauses(rng, truth, elements, clauses))
                instance = parse_one_in_three(text)
                solvable = solve_one_in_three_brute(instance)
            if solvable == truth:
                break
        if gadget == "linearx3c":
            x = "2" if g % 2 else "1"
            built = build_linear_x3c(instance, Fraction(x))
            gen_argv = ["--x", x]
        else:
            built = build_cc_3va(instance)
            gen_argv = []
        inst_path = os.path.join(workdir, f"gadget{g:02d}.txt")
        files[inst_path] = text
        doc = profile_document(built.profile, built.k)
        path = os.path.join(workdir, f"gadget{g:02d}.json")
        files[path] = json.dumps(doc, indent=2, sort_keys=True)
        target = sorted(built.target)
        names = built.profile.registry.names
        gen_info = {"gadget": doc, "rule": built.rule_spec, "k": built.k,
                    "target": [names[c] for c in target]}
        queries.append(Query(
            "gen", ["gen", "--gadget", gadget, "--instance", inst_path] + gen_argv,
            None, 0, gen_info,
        ))
        argv = ["poscom", "--profile", path, "--rule", built.rule_spec,
                "--committee", ",".join(names[c] for c in target)]
        info = {"k": built.k, "rule": built.rule_spec, "committee": target}
        if g % 2 == 0:
            argv.append("--witness")
            info["witness"] = True
        queries.append(Query("poscom", argv, path, 0 if truth else 1, info))
    return Workload(queries, files)


_GENERATORS = {
    "complete-audit": _audit,
    "incomplete-poly": _poly,
    "incomplete-brute": _brute,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate a workload's inputs and query list, and write its files."""
    rng = Random(f"{name}:{seed}")
    workload = _GENERATORS[name](rng, workdir)
    Random(f"{name}:{seed}:order").shuffle(workload.queries)
    os.makedirs(workdir, exist_ok=True)
    for path, text in workload.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return workload
