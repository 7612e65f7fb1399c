"""End-to-end acceptance: oracle agreement at scale, gadgets, smoke runs.

Every test prints one summary line, "criterion N: PASS (12.3s)" style,
before asserting, so a full run documents the whole gate at a glance
(run with -s to see the lines). Random pools are seeded; reruns see the
same instances.
"""

import json
import time
from fractions import Fraction
from random import Random

import pytest

from abcu import (
    AV,
    CC,
    PAV,
    SAV,
    DEFAULT_CAP,
    ApprovalBallot,
    ApprovalProfile,
    CandidateRegistry,
    CapExceededError,
    Decision,
    ModelClass,
    NoPolyAlgorithmError,
    UnknownCandidateError,
    WeightFunction,
    X3CInstance,
    as_partial,
    binary_rule,
    build_cc_3va,
    build_linear_x3c,
    check_axiom_brute,
    check_ejr,
    check_jr,
    check_pjr,
    classify,
    completions_of_ballot,
    count_completions,
    defeats,
    enumerate_completions,
    is_completion,
    is_winning_committee,
    jr_modification_check,
    max_diff_ballot,
    max_diff_profile,
    neccom,
    necjr,
    necmem,
    necmem_av_linear,
    necessary_axiom_by_scan,
    pad_profile,
    poscom,
    poscom_av_3va,
    poscom_brute,
    posjr,
    posmem,
    posmem_av_linear,
    possible_axiom_by_scan,
    profile_score,
    solve_one_in_three_brute,
    solve_x3c_brute,
    validate_partial_profile,
    verify_weight_relation,
    winning_committees,
)
from abcu import cli
from abcu.cli import run_cli
from abcu.io import (
    decision_document,
    group_witness_document,
    parse_profile,
    serialize_profile,
)
from abcu.representation import _ejr_violation, _pjr_violation
from conftest import A, B, C, D
from oracles import (
    SCORERS,
    all_completions,
    axiom_holds,
    decide_all,
    max_diff,
    pav_score,
    table_score,
    winners,
)
from profilegen import (
    random_committee,
    random_complete_profile,
    random_one_in_three,
    random_partial_profile,
    random_x3c,
)
from reference_scans import axiom_scan, neccom_scan, poscom_scan
from test_necessary import near_tie

RULES = [
    ("av", AV),
    ("cc", CC),
    ("pav", PAV),
    ("sav", SAV),
    ("binary:2", binary_rule(2)),
]
KINDS = ("3va", "linear", "poset")
PROFILES_PER_KIND = 500

_pool: list = []


def _report(number: int, start: float, failures: list, budget: float | None = None):
    elapsed = time.perf_counter() - start
    ok = not failures and (budget is None or elapsed < budget)
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"


def _committee_pool(m: int, k: int, rng: Random, limit: int):
    from abcu import committees_by_mask

    sets = list(committees_by_mask(m, k))
    if len(sets) <= limit:
        return sets
    return rng.sample(sets, limit)


def _build_pool() -> list:
    if _pool:
        return _pool
    rng = Random(20260822)
    for kind in KINDS:
        for i in range(PROFILES_PER_KIND):
            name, rule = RULES[i % len(RULES)]
            if name == "binary:2":
                m, k = rng.randint(2, 5), 2
            else:
                m = rng.randint(1, 5)
                k = rng.randint(1, min(2, m))
            profile = random_partial_profile(
                rng, n=rng.randint(1, 5), m=m, kind=kind, max_middle=3
            )
            _pool.append((profile, name, rule, k))
    return _pool


def _verify_completion_witness(decision, profile, rule, failures, tag):
    if decision.witness is None:
        return
    if not is_completion(decision.witness, profile):
        failures.append((tag, "witness is not a completion"))
    if decision.witness_committee is not None:
        own = profile_score(rule, decision.witness, decision.witness_committee)
        if not is_winning_committee(rule, decision.witness, decision.witness_committee):
            failures.append((tag, "witness committee does not win", own))


def test_criterion_1_query_oracle_agreement():
    start = time.perf_counter()
    failures = []
    rng = Random(811)
    for profile, name, rule, k in _build_pool():
        if k > profile.m:
            failures.append(("pool", name, k, profile.m))
            continue
        pos, nec, member_pos, member_nec = decide_all(profile, SCORERS[name], k)
        for committee in _committee_pool(profile.m, k, rng, 3):
            tag = (name, k, committee)
            got = poscom(profile, committee, rule, k)
            if got.answer != pos[committee]:
                failures.append(("poscom", tag, got.answer))
            _verify_completion_witness(got, profile, rule, failures, tag)
            got = neccom(rule, profile, committee, k)
            if got.answer != nec[committee]:
                failures.append(("neccom", tag, got.answer))
            if not got.answer and got.witness is not None:
                rival = got.witness_committee
                margin = profile_score(rule, got.witness, rival) - profile_score(
                    rule, got.witness, committee
                )
                if margin <= 0:
                    failures.append(("neccom-witness", tag, margin))
        sample = range(profile.m) if profile.m <= 3 else rng.sample(range(profile.m), 3)
        for cid in sample:
            got = posmem(profile, cid, rule, k)
            if got.answer != member_pos[cid]:
                failures.append(("posmem", name, k, cid, got.answer))
            _verify_completion_witness(got, profile, rule, failures, (name, cid))
            got = necmem(profile, cid, rule, k)
            if got.answer != member_nec[cid]:
                failures.append(("necmem", name, k, cid, got.answer))
            if not got.answer and got.witness is not None:
                held = frozenset().union(
                    *winning_committees(rule, got.witness, k)
                )
                if cid in held:
                    failures.append(("necmem-witness", name, k, cid))
    _report(1, start, failures, budget=60.0)


# Routes whose witness committee follows the lowest-mask tie-break; the
# defeat scans name the committee that defeats, under a rule of their own.
TIE_BREAK_ROUTES = ("brute-force", "av-linear-prefix", "av-linear-canonical",
                    "poscom-iteration")


def _lowest_mask(committees):
    return min(committees, key=lambda w: sum(1 << c for c in w), default=None)


def test_witness_committees_follow_one_tie_break():
    """On the criterion-1 pool, each witness committee is the lowest-mask
    committee among the witness's winners that answers the question, and
    a brute-force witness is the first completion where one does."""
    failures = []
    routes = set()
    rng = Random(1212)

    def check(got, profile, rule, k, answer, tag):
        # answer(winners): the committee that answers the question, or None.
        if got.witness is None or got.method_used not in TIE_BREAK_ROUTES:
            return
        routes.add(got.method_used)
        if got.witness_committee != answer(winning_committees(rule, got.witness, k)):
            failures.append((tag, got.method_used, "witness committee"))
        if got.method_used == "brute-force":
            first = next(
                c for c in enumerate_completions(profile)
                if answer(winning_committees(rule, c, k)) is not None
            )
            if first != got.witness:
                failures.append((tag, "brute-force", "not the first completion"))

    for profile, name, rule, k in _build_pool():
        for cid in range(profile.m):
            tag = (name, k, cid)
            check(
                posmem(profile, cid, rule, k), profile, rule, k,
                lambda winners: _lowest_mask(w for w in winners if cid in w), tag,
            )
            check(
                necmem(profile, cid, rule, k), profile, rule, k,
                lambda winners: None if any(cid in w for w in winners)
                else _lowest_mask(winners), tag,
            )
        for committee in _committee_pool(profile.m, k, rng, 2):
            check(
                poscom(profile, committee, rule, k), profile, rule, k,
                lambda winners: committee if committee in winners else None,
                (name, k, committee),
            )
    assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"
    assert routes == set(TIE_BREAK_ROUTES)


def test_criterion_2_score_difference_decomposition():
    start = time.perf_counter()
    failures = []
    rng = Random(977001)
    pool = [entry for entry in _build_pool() if entry[0].m > entry[3]]
    done = 0
    while done < 200:
        profile, name, rule, k = pool[rng.randrange(len(pool))]
        committee, rival = rng.sample(_committee_pool(profile.m, k, rng, 10**9), 2)
        report = max_diff_profile(rule, profile, committee, rival)
        expected = max_diff(profile, SCORERS[name], committee, rival)
        if report.total != expected:
            failures.append((name, k, committee, rival, report.total, expected))
        if not is_completion(report.witness, profile):
            failures.append(("witness", name, committee, rival))
        done += 1
    _report(2, start, failures)


def test_criterion_3_representation_checks_match_brute_force():
    start = time.perf_counter()
    failures = []
    rng = Random(31415)
    for trial in range(500):
        profile = random_complete_profile(rng, rng.randint(1, 12), rng.randint(1, 6))
        k = rng.randint(1, min(3, profile.m))
        committee = random_committee(rng, profile.m, k)
        jr_ok, _ = check_jr(profile, committee, k)
        for axiom, check in (("jr", check_jr), ("pjr", check_pjr), ("ejr", check_ejr)):
            fast, witness = check(profile, committee, k)
            slow, _ = check_axiom_brute(profile, committee, k, axiom)
            if fast != slow:
                failures.append((axiom, trial, fast, slow))
        # at the lowest cohesion level the three axioms are one predicate
        if (_pjr_violation(profile, committee, k, [1]) is None) != jr_ok:
            failures.append(("pjr-level-1", trial))
        if (_ejr_violation(profile, committee, k, [1]) is None) != jr_ok:
            failures.append(("ejr-level-1", trial))
    _report(3, start, failures)


def test_criterion_4_jr_queries_match_completion_scans():
    start = time.perf_counter()
    failures = []
    rng = Random(6021)
    for trial in range(300):
        kind = KINDS[trial % 3]
        profile = random_partial_profile(
            rng, n=rng.randint(1, 4), m=rng.randint(1, 4), kind=kind, max_middle=2
        )
        k = rng.randint(1, min(2, profile.m))
        committee = random_committee(rng, profile.m, k)
        verdicts = [
            axiom_holds(rows, profile.m, committee, k, "jr")
            for rows in all_completions(profile)
        ]
        if posjr(profile, committee, k).answer != any(verdicts):
            failures.append(("posjr", trial, kind))
        if necjr(profile, committee, k).answer != all(verdicts):
            failures.append(("necjr", trial, kind))
    _report(4, start, failures)


def test_criterion_5_safe_edits_preserve_representation():
    start = time.perf_counter()
    failures = []
    rng = Random(550)
    done = 0
    while done < 1000:
        profile = random_complete_profile(rng, rng.randint(1, 8), rng.randint(2, 5))
        k = rng.randint(1, min(3, profile.m))
        committee = random_committee(rng, profile.m, k)
        if not check_jr(profile, committee, k)[0]:
            continue
        outside = [c for c in range(profile.m) if c not in committee]
        for _ in range(4):
            if done >= 1000:
                break
            voter = rng.randrange(profile.n)
            if rng.random() < 0.5 and outside:
                edit = ("remove", voter, rng.choice(outside))
            else:
                fresh = {rng.choice(sorted(committee))} | {
                    c for c in range(profile.m) if rng.random() < 0.3
                }
                edit = ("replace", voter, fresh)
            if not jr_modification_check(profile, committee, k, edit):
                failures.append((edit, committee, k))
            done += 1
    _report(5, start, failures)


def test_criterion_6_gadgets_track_their_source_problems():
    start = time.perf_counter()
    failures = []
    rng = Random(42424)
    for trial in range(200):
        instance = random_x3c(rng, universe_size=6, max_sets=6)
        expected = solve_x3c_brute(instance)
        for x in (Fraction(1), Fraction(2)):
            out = build_linear_x3c(instance, x)
            got = poscom_brute(out.profile, out.target, out.rule, out.k)
            if got.answer != expected:
                failures.append(("x3c", trial, x, got.answer, expected))
    for trial in range(200):
        instance = random_one_in_three(rng, max_elements=6, max_clauses=4)
        expected = solve_one_in_three_brute(instance)
        out = build_cc_3va(instance)
        got = poscom_brute(out.profile, out.target, out.rule, out.k)
        if got.answer != expected:
            failures.append(("one-in-three", trial, got.answer, expected))
    _report(6, start, failures, budget=120.0)


def test_criterion_7_weight_translation_preserves_possible_winners():
    start = time.perf_counter()
    failures = []
    if not verify_weight_relation(
        WeightFunction.cc(), WeightFunction.binary(2), Fraction(1), 1, 5
    ):
        failures.append(("weight relation does not hold",))
    rng = Random(7117)
    for trial in range(200):
        kind = KINDS[trial % 3]
        m = rng.randint(2, 4)
        profile = random_partial_profile(
            rng, n=rng.randint(1, 4), m=m, kind=kind, max_middle=2
        )
        k = rng.randint(1, m - 1)
        committee = random_committee(rng, m, k)
        plain = poscom(profile, committee, CC, k)
        padded = pad_profile(profile, 1)
        lifted = poscom(padded, committee | {m}, binary_rule(2), k + 1)
        if plain.answer != lifted.answer:
            failures.append((trial, kind, k, committee, plain.answer, lifted.answer))
    _report(7, start, failures)


def test_criterion_8_fixture_regression(
    pair_profile, trio_profile, quad_profile, tmp_path, capsys
):
    start = time.perf_counter()
    failures = []

    def chk(label, condition):
        if not condition:
            failures.append(label)

    e1, e2, e3 = pair_profile, trio_profile, quad_profile
    ab, ac = frozenset({A, B}), frozenset({A, C})

    chk("e1 class", classify(e1) is ModelClass.THREE_VALUED)
    chk("e2 class", classify(e2) is ModelClass.LINEAR)
    chk(
        "e1 v2 options",
        completions_of_ballot(e1.ballots[1])
        == [ApprovalBallot(frozenset()), ApprovalBallot(frozenset({B}))],
    )
    chk(
        "e2 v1 options",
        [b.approved for b in completions_of_ballot(e2.ballots[0])]
        == [frozenset({A}), frozenset({A, B}), frozenset({A, B, C})],
    )
    chk("e1 count", count_completions(e1) == 2)
    chk("e2 count", count_completions(e2) == 3)
    listed = [
        [b.approved for b in comp.ballots] for comp in enumerate_completions(e1, 10)
    ]
    chk(
        "e1 enumerate",
        listed == [[frozenset({A}), frozenset()], [frozenset({A}), frozenset({B})]],
    )
    try:
        list(enumerate_completions(e1, 1))
        failures.append("e1 cap")
    except CapExceededError:
        pass
    both = ApprovalProfile(
        e1.registry, (ApprovalBallot(frozenset({A})), ApprovalBallot(frozenset({B})))
    )
    wrong = ApprovalProfile(
        e1.registry, (ApprovalBallot(frozenset({A})), ApprovalBallot(frozenset({A})))
    )
    chk("e1 completion yes", is_completion(both, e1))
    chk("e1 completion no", not is_completion(wrong, e1))
    broken = ApprovalProfile(
        e2.registry,
        (ApprovalBallot(frozenset({A, C})), ApprovalBallot(frozenset({C}))),
    )
    chk("e2 closure", not is_completion(broken, e2))

    complete3 = quad_profile
    chk("e3 av score", profile_score(AV, complete3, ab) == 2)
    chk("e3 cc score", profile_score(CC, complete3, ac) == 3)
    chk(
        "e3 winners",
        set(winning_committees(AV, complete3, 2))
        == {ac, frozenset({B, C})},
    )
    chk("e3 defeats", defeats(CC, complete3, ac, D))
    chk("e1 no defeat", not defeats(AV, both, frozenset({A}), B))

    got = poscom(e1, frozenset({A}), AV, 1)
    chk("poscom e1 a", got.answer)
    chk(
        "poscom e1 a witness",
        [b.approved for b in got.witness.ballots] == [frozenset({A}), frozenset()],
    )
    chk("poscom e1 a method", got.method_used == "av-3va-canonical")
    got = poscom(e1, frozenset({B}), AV, 1)
    chk("poscom e1 b", got.answer)
    chk(
        "poscom e1 b witness",
        [b.approved for b in got.witness.ballots]
        == [frozenset({A}), frozenset({B})],
    )
    chk("poscom e2 cc a", poscom(e2, frozenset({A}), CC, 1).answer)
    chk("poscom e1 brute", poscom(e1, frozenset({A}), AV, 1, method="brute").answer)
    chk("poscom e2 b brute", poscom(e2, frozenset({B}), AV, 1, method="brute").answer)
    chk(
        "poscom e2 dispatch",
        poscom(e2, frozenset({B}), AV, 1).method_used == "brute-force",
    )
    try:
        poscom(e2, frozenset({B}), AV, 1, method="poly")
        failures.append("poscom e2 poly")
    except NoPolyAlgorithmError:
        pass
    chk("posmem e2 b", posmem(e2, B, AV, 1).answer)
    chk("posmem e2 a", posmem(e2, A, AV, 1).answer)
    chk("posmem e1 b", posmem(e1, B, AV, 1).answer)
    try:
        posmem(e2, 3, AV, 1)
        failures.append("posmem unknown")
    except UnknownCandidateError:
        pass

    value, ballot = max_diff_ballot(AV, e1.ballots[1], frozenset({A}), frozenset({B}))
    chk("md v2", value == 1 and ballot.approved == frozenset({B}))
    value, ballot = max_diff_ballot(AV, e1.ballots[0], frozenset({A}), frozenset({B}))
    chk("md v1", value == -1)
    report = max_diff_profile(AV, e1, frozenset({A}), frozenset({B}))
    chk("md total", report.total == 0 and report.per_voter == (-1, 1))

    chk("neccom e1 a", neccom(AV, e1, frozenset({A}), 1).answer)
    got = neccom(AV, e1, frozenset({B}), 1)
    chk("neccom e1 b", not got.answer)
    chk(
        "neccom e1 b counterexample",
        got.witness_committee == frozenset({A})
        and [b.approved for b in got.witness.ballots]
        == [frozenset({A}), frozenset()],
    )
    chk("necmem e1 a", necmem(e1, A, AV, 1).answer)
    chk("necmem e1 b", not necmem(e1, B, AV, 1).answer)
    chk("necmem e2 a", not necmem(e2, A, AV, 1).answer)
    chk("necmem e2 c", necmem(e2, C, AV, 1).answer)
    chk("necmem e2 cc c", necmem(e2, C, CC, 1).answer)
    chk(
        "necmem e1 dispatch",
        necmem(e1, A, AV, 1).method_used == "av-3va-defeat-scan",
    )
    got = necmem(e2, C, SAV, 1, method="brute")
    chk("necmem e2 sav", got.answer and got.method_used == "brute-force")

    ok, witness = check_jr(complete3, ab, 2)
    chk(
        "jr e3 ab",
        not ok and witness.voters == {0, 1} and witness.common == {C},
    )
    chk("jr e3 ac", check_jr(complete3, ac, 2)[0])
    ok, witness = check_pjr(complete3, ab, 2)
    chk(
        "pjr e3 ab",
        not ok
        and witness.level == 1
        and witness.common == {C}
        and witness.allowed == frozenset(),
    )
    ok, witness = check_ejr(complete3, ab, 2)
    chk("ejr e3 ab", not ok and witness.level == 1 and witness.common == {C})
    chk("brute e3 ab", not check_axiom_brute(complete3, ab, 2, "jr")[0])
    chk("posjr e1 a", posjr(e1, frozenset({A}), 1).answer)
    chk("necjr e1 b", necjr(e1, frozenset({B}), 1).answer)
    chk("edit remove", jr_modification_check(complete3, ac, 2, ("remove", 0, D)))
    chk("edit replace", jr_modification_check(complete3, ac, 2, ("replace", 3, {A})))

    padded = pad_profile(e1, 1)
    chk(
        "pad e1",
        padded.m == 3 and all(2 in b.top for b in padded.ballots),
    )
    reparsed, _ = parse_profile(serialize_profile(e1))
    chk("round trip", reparsed == e1)
    doc = decision_document("poscom", poscom(e1, frozenset({A}), AV, 1), e1.registry)
    chk(
        "decision doc",
        doc["query"] == "poscom" and doc["answer"] is True,
    )
    doc = group_witness_document(check_jr(complete3, ab, 2)[1], complete3.registry)
    chk("group doc", doc == {"voters": [0, 1], "common": ["c"], "level": 1})

    e1_path = tmp_path / "e1.json"
    e1_path.write_text(serialize_profile(e1, 1))
    code = run_cli(
        ["poscom", "--profile", str(e1_path), "--rule", "av", "--committee", "a"]
    )
    out = capsys.readouterr().out
    chk("cli poscom", code == 0 and json.loads(out)["answer"] is True)
    code = run_cli(
        ["neccom", "--profile", str(e1_path), "--rule", "av", "--committee", "b",
         "--witness"]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    chk(
        "cli neccom",
        code == 1 and doc["witness_committee"] == ["a"] and doc["witness"] == [["a"], []],
    )

    _report(8, start, failures)


def test_criterion_9_polynomial_routes_scale(capsys):
    start = time.perf_counter()
    failures = []
    rng = Random(909090)
    profile = random_partial_profile(rng, n=50, m=16, kind="poset", max_middle=8)
    committee = random_committee(rng, 16, 2)
    t0 = time.perf_counter()
    decision = neccom(PAV, profile, committee, 2)
    md_elapsed = time.perf_counter() - t0
    if md_elapsed >= 10.0:
        failures.append(("neccom", md_elapsed))
    if decision.method_used != "max-score-difference":
        failures.append(("neccom route", decision.method_used))

    big = random_complete_profile(rng, 200, 20)
    committee = random_committee(rng, 20, 3)
    t0 = time.perf_counter()
    check_pjr(big, committee, 3)
    pjr_elapsed = time.perf_counter() - t0
    if pjr_elapsed >= 10.0:
        failures.append(("check_pjr", pjr_elapsed))
    t0 = time.perf_counter()
    check_ejr(big, committee, 3)
    ejr_elapsed = time.perf_counter() - t0
    if ejr_elapsed >= 10.0:
        failures.append(("check_ejr", ejr_elapsed))
    _report(9, start, failures)


def test_neccom_true_answers_scale():
    """True neccom answers at n = 100, m = 22, k = 5: av on order-free
    ballots and pav on ranked ones, each voter's top = W plus 3 middles.

    A true answer has no positive rival, so each of the C(22, 5) - 1 =
    26,333 rivals must be ruled out; here the Thiele bound rules out all
    of them after the first exact scan. On the near-tie profile the bound
    rules out none, and the answer and witness must be the set-based
    reference's. Under sav there is no bound: with m = 12, k = 3 and the
    voters casting 3 ballots, every rival is scanned exactly, once per
    voter, so tripling n from 100 to 300 must cost well under the ninefold
    a quadratic scan would.
    """
    n, m, k, budget = 100, 22, 5, 3.0
    rng = Random(2215)
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    committee = frozenset(rng.sample(range(m), k))
    others = [c for c in range(m) if c not in committee]
    for kind, rule in (("3va", AV), ("linear", PAV)):
        records = []
        for _ in range(n):
            middle = rng.sample(others, 3)
            edges = list(zip(middle, middle[1:])) if kind == "linear" else []
            records.append((committee, middle, set(others) - set(middle), edges))
        profile = validate_partial_profile(records, registry)
        assert classify(profile).value == kind
        t0 = time.perf_counter()
        decision = neccom(rule, profile, committee, k)
        elapsed = time.perf_counter() - t0
        assert decision == Decision(True, None, None, "max-score-difference"), kind
        assert elapsed < budget, (kind, elapsed)

    for extra in ((), ((12, 13),) * 2):
        profile, committee = near_tie(14, 4, extra)
        for rule in (AV, PAV):
            assert neccom(rule, profile, committee, 4) == neccom_scan(rule, profile, committee, 4)

    m, k = 12, 3
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
    committee = frozenset(rng.sample(range(m), k))
    others = [c for c in range(m) if c not in committee]
    pool = []
    for ranked in (False, True, True):
        middle = rng.sample(others, 4)
        edges = list(zip(middle, middle[1:])) if ranked else []
        pool.append((committee, middle, set(others) - set(middle), edges))
    records = [rng.choice(pool) for _ in range(3 * n)]
    times = {}
    for size in (n, 3 * n):
        profile = validate_partial_profile(records[:size], registry)
        elapsed = []
        for _ in range(2):
            t0 = time.perf_counter()
            decision = neccom(SAV, profile, committee, k)
            elapsed.append(time.perf_counter() - t0)
        times[size] = min(elapsed)
        assert decision == Decision(True, None, None, "max-score-difference"), size
        if size == n:
            assert decision == neccom_scan(SAV, profile, committee, k)
    assert times[3 * n] < budget, ("sav", times)
    assert times[3 * n] < 5 * times[n], ("sav", times)


def test_av_canonical_routes_scale_in_k():
    """AV canonical routes at n = 200, m = 100, k = 10, each answering false,
    then is_winning_committee and defeats under AV on one completion.

    An exhaustive scan would visit C(100, 10), about 1.7e13, committees.
    Each query below is false in every completion: at least one outsider
    (k rivals, for a single candidate) is approved more often even by the
    top alone than the queried side can be by its top and middle together.
    """
    n, m, k, budget = 200, 100, 10, 5.0
    rng = Random(101)
    three = random_partial_profile(rng, n, m, "3va", max_middle=10)
    linear = random_partial_profile(rng, n, m, "linear", max_middle=10)
    assert (three.n, three.m, classify(three)) == (n, m, ModelClass.THREE_VALUED)
    assert (linear.n, linear.m, classify(linear)) == (n, m, ModelClass.LINEAR)

    def count_bounds(profile):
        least = [sum(c in b.top for b in profile.ballots) for c in range(m)]
        most = [least[c] + sum(c in b.middle for b in profile.ballots) for c in range(m)]
        return least, most

    least, most = count_bounds(three)
    committee = frozenset(sorted(range(m), key=lambda c: most[c])[:k])
    outsiders = [c for c in range(m) if c not in committee]
    assert max(least[c] for c in outsiders) > min(most[c] for c in committee)
    t0 = time.perf_counter()
    decision = poscom_av_3va(three, committee)
    assert time.perf_counter() - t0 < budget
    assert decision.answer is False and decision.method_used == "av-3va-canonical"

    least, most = count_bounds(linear)
    weakest = min(range(m), key=lambda c: most[c])
    assert sum(least[c] > most[weakest] for c in range(m)) >= k
    t0 = time.perf_counter()
    decision = posmem_av_linear(linear, weakest, k)
    assert time.perf_counter() - t0 < budget
    assert decision.answer is False and decision.method_used == "av-linear-prefix"
    t0 = time.perf_counter()
    decision = necmem_av_linear(linear, weakest, k)
    assert time.perf_counter() - t0 < budget
    assert decision.answer is False and decision.method_used == "av-linear-canonical"
    assert is_completion(decision.witness, linear)
    counts = [profile_score(AV, decision.witness, {c}) for c in range(m)]
    winner = decision.witness_committee
    assert len(winner) == k and weakest not in winner
    assert min(counts[c] for c in winner) >= max(
        counts[c] for c in range(m) if c not in winner
    )

    # The public AV judgements on that completion read approval counts;
    # each answers in under a second, true and false.
    completion = decision.witness
    ranked = sorted(range(m), key=lambda c: -counts[c])
    leaders, trailers = frozenset(ranked[:k]), frozenset(ranked[-k:])
    assert counts[ranked[-1]] < counts[ranked[k - 1]]
    assert sum(counts[c] for c in trailers) < sum(counts[c] for c in leaders)
    judgements = [
        (lambda: is_winning_committee(AV, completion, leaders), True),
        (lambda: is_winning_committee(AV, completion, trailers), False),
        (lambda: defeats(AV, completion, leaders, ranked[-1]), True),
        (lambda: defeats(AV, completion, trailers, ranked[0]), False),
    ]
    for judge, expected in judgements:
        t0 = time.perf_counter()
        assert judge() is expected
        assert time.perf_counter() - t0 < 1.0


def test_winner_scans_scale():
    """Winner scans at n = 300, m = 16, k = 5 under av, pav and cc.

    Nearly every ballot is distinct, so a grouped scan reads about 300
    entries for each of the C(16, 5) = 4368 committees; the co-approval
    table reads k of them under av and 2^k under pav and cc. At n = 20,
    m = 18, k = 8 the 2^8 reads outnumber the ballots, so pav keeps the
    grouped scan; its winners are checked against the oracle.
    """
    rng = Random(1605)
    big = random_complete_profile(rng, 300, 16)
    for name, rule in (("av", AV), ("pav", PAV), ("cc", CC)):
        t0 = time.perf_counter()
        winning_committees(rule, big, 5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"

    small = random_complete_profile(rng, 20, 18)
    rows = [b.approved for b in small.ballots]
    # The oracle's pav weights, read from a table so the scan stays quick.
    harmonic = [pav_score(frozenset(range(x)), frozenset(range(x))) for x in range(9)]
    assert winning_committees(PAV, small, 8) == winners(table_score(harmonic), rows, 18, 8)


def test_criterion_10_cli_contract(
    pair_profile, trio_profile, quad_profile, tmp_path, capsys, monkeypatch
):
    start = time.perf_counter()
    failures = []

    def run(*argv):
        code = run_cli(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out) if captured.out else None
        return code, doc

    paths = {}
    for name, profile, k in (
        ("e1", pair_profile, 1),
        ("e2", trio_profile, 1),
        ("e3", quad_profile, 2),
    ):
        path = tmp_path / f"{name}.json"
        source = profile if name != "e3" else as_partial(profile)
        path.write_text(serialize_profile(source, k))
        reparsed, doc_k = parse_profile(path.read_text())
        if reparsed != source or doc_k != k:
            failures.append((name, "round trip"))
        paths[name] = str(path)

    code, doc = run(
        "poscom", "--profile", paths["e2"], "--rule", "av", "--committee", "b",
        "--witness",
    )
    if code != 0:
        failures.append(("poscom e2 exit", code))
    else:
        registry = trio_profile.registry
        completion = ApprovalProfile(
            registry,
            tuple(
                ApprovalBallot(frozenset(registry.id_of(n) for n in row))
                for row in doc["witness"]
            ),
        )
        committee = frozenset(registry.id_of(n) for n in doc["witness_committee"])
        if not is_completion(completion, trio_profile):
            failures.append(("poscom e2 witness completion",))
        if not is_winning_committee(AV, completion, committee):
            failures.append(("poscom e2 witness win",))

    checks = [
        (("poscom", "--profile", paths["e1"], "--rule", "av", "--committee", "a"), 0),
        (("neccom", "--profile", paths["e1"], "--rule", "av", "--committee", "b"), 1),
        (("posmem", "--profile", paths["e2"], "--rule", "av", "--candidate", "c"), 0),
        (("necmem", "--profile", paths["e2"], "--rule", "av", "--candidate", "a"), 1),
        (("check", "--profile", paths["e3"], "--committee", "a,b"), 1),
        (("check", "--profile", paths["e3"], "--committee", "a,c"), 0),
        (("winners", "--profile", paths["e3"], "--rule", "cc"), 0),
        (("enumerate", "--profile", paths["e1"]), 0),
        (("posjr", "--profile", paths["e1"], "--committee", "a"), 0),
        (("necjr", "--profile", paths["e1"], "--committee", "b"), 0),
        (("winners", "--profile", paths["e2"], "--rule", "av"), 2),
        (
            ("poscom", "--profile", paths["e2"], "--rule", "pav", "--committee", "a",
             "--method", "poly"),
            3,
        ),
    ]
    for argv, expected in checks:
        code, doc = run(*argv)
        if code != expected:
            failures.append((argv[0], argv[-1], code, expected))
        if expected in (0, 1) and doc is None:
            failures.append((argv[0], "missing document"))
        if expected in (2, 3) and doc is not None:
            failures.append((argv[0], "unexpected stdout"))

    code, doc = run("check", "--profile", paths["e3"], "--committee", "a,b")
    if doc["group_witness"] != {"voters": [0, 1], "common": ["c"], "level": 1}:
        failures.append(("check witness", doc))
    code, doc = run("winners", "--profile", paths["e3"], "--rule", "cc")
    if doc["committees"] != [["a", "c"], ["b", "c"]] or doc["score"] != "3":
        failures.append(("winners", doc))
    code, doc = run("enumerate", "--profile", paths["e1"])
    if doc["count"] != 2 or doc["completions"] != [[["a"], []], [["a"], ["b"]]]:
        failures.append(("enumerate", doc))

    # An internal error exits 4, never 1 ("false"), with one stderr line.
    def broken(args):
        raise RuntimeError("invariant broken")

    monkeypatch.setitem(cli._HANDLERS, "winners", broken)
    code = run_cli(["winners", "--profile", paths["e3"], "--rule", "cc"])
    captured = capsys.readouterr()
    if code != 4 or captured.out != "":
        failures.append(("internal error", code, captured.out))
    if not captured.err.startswith("abcu: internal error:") or captured.err.count("\n") != 1:
        failures.append(("internal error stderr", captured.err))

    _report(10, start, failures)


def test_capped_queries_refuse_before_listing_committees(tmp_path, capsys, monkeypatch):
    """24 candidates, k = 12, three voters each leaving 12 candidates
    undecided: 2^36 completions. pav has no direct route on this profile,
    so every membership and committee query falls back to enumeration,
    and each must refuse at the cap (exit 3) before it lists any of the
    C(24, 12) committees. The PJR and EJR scans refuse on the same full
    count, before they build any voter's options."""
    monkeypatch.delenv("ABCU_CAP", raising=False)
    names = [f"c{i}" for i in range(24)]
    doc = {
        "candidates": names,
        "k": 12,
        "voters": [{"middle": names[4 * v: 4 * v + 12]} for v in range(3)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    committee = ",".join(names[:12])
    queries = [
        [query, "--rule", "pav", *target, *method]
        for query, *target in (
            ("poscom", "--committee", committee),
            ("posmem", "--candidate", "c0"),
            ("necmem", "--candidate", "c0"),
        )
        for method in ([], ["--method", "brute"])
    ] + [
        [query, "--committee", committee, "--axiom", axiom]
        for query in ("posjr", "necjr")
        for axiom in ("pjr", "ejr")
    ]
    for query in queries:
        argv = [query[0], "--profile", str(path), *query[1:]]
        t0 = time.perf_counter()
        code = run_cli(argv)
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert f"{2 ** 36} completions exceed the cap" in captured.err, argv
        assert elapsed < 1.0, (argv, elapsed)


def test_fixed_committee_scans_scale():
    """Scans about one fixed committee W over large completion spaces.

    Each voter keeps one completion per overlap with W, so a space of
    16^4 = 65,536 completions shrinks to 2^4 and the x3c gadget's
    5^6 = 15,625 to 2^6. Necessary PJR and EJR hold on the first; the
    second is a gadget from an x3c instance without an exact cover.
    On ranked middles inside W the options are the completions
    themselves: q + 1 per chain of q, not 2^q overlaps. There the
    voters approving all of W keep each check at levels 1 and 2."""
    budget = 1.0
    for q, voters, extra in ((40, 1, 1), (20, 2, 2)):
        m = q + extra
        registry = CandidateRegistry(tuple(f"c{i}" for i in range(m)))
        chain = [(i, i + 1) for i in range(q - 1)]
        records = [([], range(q), range(q, m), chain)] * voters
        records += [(range(q), [], range(q, m))] * (q - voters)
        profile = validate_partial_profile(records, registry)
        committee = frozenset(range(q))
        scans = [
            (poscom_brute, (profile, committee, PAV, q)),
            *((scan, (profile, committee, q, axiom))
              for scan in (possible_axiom_by_scan, necessary_axiom_by_scan)
              for axiom in ("pjr", "ejr")),
        ]
        for scan, args in scans:
            t0 = time.perf_counter()
            decision = scan(*args)
            elapsed = time.perf_counter() - t0
            assert decision.answer is True, (q, scan.__name__)
            assert elapsed < budget, (q, scan.__name__, elapsed)

    registry = CandidateRegistry(tuple(f"c{i}" for i in range(10)))
    records = []
    for v in range(4):
        top, middle = [v % 3], [3 + v, 4 + v, 5 + v, (v + 1) % 3]
        records.append((top, middle, [c for c in range(10) if c not in top + middle]))
    profile = validate_partial_profile(records, registry)
    assert count_completions(profile) == 65_536
    committee = frozenset({0, 1, 2})
    for axiom in ("pjr", "ejr"):
        t0 = time.perf_counter()
        decision = necessary_axiom_by_scan(profile, committee, 3, axiom)
        elapsed = time.perf_counter() - t0
        assert decision == Decision(True, None, None, "experimental-completion-scan"), axiom
        assert elapsed < budget, (axiom, elapsed)

    triples = ((0, 1, 2), (0, 3, 4), (0, 1, 5), (0, 2, 3), (0, 4, 5), (0, 1, 3))
    instance = X3CInstance(6, tuple(frozenset(t) for t in triples))
    assert not solve_x3c_brute(instance)
    out = build_linear_x3c(instance, Fraction(1))
    assert count_completions(out.profile) == 15_625
    t0 = time.perf_counter()
    decision = poscom_brute(out.profile, out.target, out.rule, out.k)
    elapsed = time.perf_counter() - t0
    assert decision == Decision(False, None, None, "brute-force")
    assert elapsed < budget, elapsed


def _best_of_3(scan, *args):
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        decision = scan(*args)
        elapsed.append(time.perf_counter() - t0)
    return decision, min(elapsed)


def test_overlap_options_scale_with_the_options():
    """A voter's options about W are built from its overlap with W.

    One voter with an order-free middle of 20, one of them in W, has
    2^20 completions, the default cap, but only the 2 options R = {}
    and R = {0}; a 40-candidate chain with one member in W has 41
    completions and 2 options. Each scan reads both and answers false,
    well within 50 ms, where a walk over every completion takes longer.
    """
    budget = 0.05
    registry = CandidateRegistry(tuple(f"c{i}" for i in range(22)))
    profile = validate_partial_profile([([21], range(20), [20])], registry)
    committee = frozenset({0, 20})
    assert count_completions(profile) == DEFAULT_CAP
    for scan, args, method in (
        (poscom_brute, (profile, committee, PAV, 2), "brute-force"),
        (possible_axiom_by_scan, (profile, committee, 2, "pjr"), "experimental-completion-scan"),
    ):
        decision, elapsed = _best_of_3(scan, *args)
        assert decision == Decision(False, None, None, method), scan.__name__
        assert elapsed < budget, (scan.__name__, elapsed)

    registry = CandidateRegistry(tuple(f"c{i}" for i in range(42)))
    chain = [(i, i + 1) for i in range(39)]
    profile = validate_partial_profile([([41], range(40), [40], chain)], registry)
    committee = frozenset({5, 40})
    options = [c.ballots[0].approved for c in enumerate_completions(profile, 41, committee)]
    assert options == [frozenset({41}), frozenset({41, *range(6)})]
    for scan, args, reference in (
        (poscom_brute, (profile, committee, PAV, 2), (poscom_scan, PAV, 2)),
        (possible_axiom_by_scan, (profile, committee, 2, "pjr"), (axiom_scan, 2, "pjr", True)),
    ):
        decision, elapsed = _best_of_3(scan, *args)
        assert decision == reference[0](profile, committee, *reference[1:]), scan.__name__
        assert decision.answer is False
        assert elapsed < budget, (scan.__name__, elapsed)
