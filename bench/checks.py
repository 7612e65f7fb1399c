"""Untimed re-verification of every query's output.

Each result document is checked from definitions, through the library's
public predicates only: a witness completion must be a completion of the
queried profile (is_completion), and must make the claimed committee win
(is_winning_committee, winning_committees, profile_score) or satisfy or
violate the axiom (check_axiom). Group witnesses of failed audits are
checked against the axiom's definition directly. The exit code must be
the one the query expects: the answer fixed by construction where the
benchmark knows it (gadgets, output-producing commands), otherwise the one
matching the reported answer.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


class _Failed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _Failed(message)


class Checker:
    """Verifies result documents; parsed profiles are cached per path."""

    def __init__(self, abcu) -> None:
        self.abcu = abcu
        self._profiles: dict[str, tuple] = {}

    def _profile(self, path: str):
        got = self._profiles.get(path)
        if got is None:
            with open(path, encoding="utf-8") as handle:
                got = self.abcu.io.parse_profile(handle.read())
            self._profiles[path] = got
        return got

    def _completion(self, registry, rows):
        return self.abcu.complete_profile(
            registry, [[registry.id_of(name) for name in row] for row in rows]
        )

    def _ids(self, registry, names) -> frozenset[int]:
        return frozenset(registry.id_of(name) for name in names)

    def verify(self, query, code, out: str, err: str) -> str | None:
        """None when the output is right, else a one-line reason."""
        try:
            self._verify(query, code, out, err)
        except _Failed as exc:
            return str(exc)
        except Exception as exc:  # a malformed document fails the query, not the run
            return f"malformed result: {type(exc).__name__}: {exc}"
        return None

    def _verify(self, query, code, out, err) -> None:
        _require(code in (0, 1), f"exit {code}: {err.strip()[:200]}")
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            raise _Failed("stdout is not one JSON document") from None
        _require(doc.get("query") == query.family, "result names another query")
        answer = doc.get("answer")
        _require(isinstance(answer, bool), "answer is not a boolean")
        _require(code == (0 if answer else 1), f"exit {code} contradicts answer {answer}")
        if query.expect is not None:
            _require(code == query.expect, f"exit {code}, expected {query.expect}")
        getattr(self, "_" + query.family)(query, doc)

    # Per-family checks -----------------------------------------------------

    def _winners(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        registry = profile.registry
        complete = a.complete_profile(registry, [b.top for b in profile.ballots])
        rule = a.parse_rule_spec(query.info["rule"])
        committees = [self._ids(registry, names) for names in doc["committees"]]
        _require(committees, "no winning committee listed")
        _require(len(set(committees)) == len(committees), "a winner is listed twice")
        # One full scan shows the first listed committee wins; every other
        # listed committee then wins exactly when it has the same score.
        _require(a.is_winning_committee(rule, complete, committees[0]),
                 "listed committee is not winning")
        score = Fraction(doc["score"])
        for committee in committees:
            _require(len(committee) == query.info["k"], "winner has the wrong size")
            _require(a.profile_score(rule, complete, committee) == score,
                     "listed committee does not have the reported score")

    def _check(self, query, doc) -> None:
        profile, _ = self._profile(query.profile)
        committee = frozenset(query.info["committee"])
        witness = doc.get("group_witness")
        if doc["answer"]:
            _require(witness is None, "satisfied audit carries a group witness")
            return
        _require(witness is not None, "violated audit has no group witness")
        registry = profile.registry
        approvals = [b.top for b in profile.ballots]
        voters = witness["voters"]
        common = self._ids(registry, witness["common"])
        level, k, n = witness["level"], query.info["k"], profile.n
        _require(voters and len(set(voters)) == len(voters), "empty or repeated group")
        _require(len(common) == level >= 1, "common set does not match the level")
        _require(k * len(voters) >= level * n, "group is too small for its level")
        _require(all(common <= approvals[v] for v in voters), "group is not cohesive")
        axiom = query.info["axiom"]
        if axiom == "jr":
            _require(all(not approvals[v] & committee for v in voters),
                     "a group member is represented")
        elif axiom == "pjr":
            touched = frozenset().union(*(approvals[v] & committee for v in voters))
            _require(len(touched) < level, "group touches enough committee members")
        else:
            _require(all(len(approvals[v] & committee) < level for v in voters),
                     "a group member approves enough committee members")

    def _witness(self, query, doc, profile):
        rows = doc.get("witness")
        if not query.info.get("witness"):
            _require(rows is None, "witness printed without --witness")
            return None
        _require(rows is not None, "witness missing")
        completion = self._completion(profile.registry, rows)
        _require(self.abcu.is_completion(completion, profile),
                 "witness is not a completion of the profile")
        return completion

    def _poscom(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        committee = frozenset(query.info["committee"])
        if not doc["answer"]:
            _require("witness" not in doc, "false answer carries a witness")
            return
        names = doc.get("witness_committee")
        _require(names is not None and self._ids(profile.registry, names) == committee,
                 "witness committee is not the queried committee")
        completion = self._witness(query, doc, profile)
        if completion is not None:
            rule = a.parse_rule_spec(query.info["rule"])
            _require(a.is_winning_committee(rule, completion, committee),
                     "committee does not win in the witness")

    def _posmem(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        if not doc["answer"]:
            _require("witness" not in doc, "false answer carries a witness")
            return
        holding = self._ids(profile.registry, doc["witness_committee"])
        _require(query.info["candidate"] in holding, "witness committee misses the candidate")
        _require(len(holding) == query.info["k"], "witness committee has the wrong size")
        completion = self._witness(query, doc, profile)
        if completion is not None:
            rule = a.parse_rule_spec(query.info["rule"])
            _require(a.is_winning_committee(rule, completion, holding),
                     "witness committee does not win in the witness")

    def _necmem(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        if doc["answer"]:
            _require("witness" not in doc, "true answer carries a witness")
            return
        other = self._ids(profile.registry, doc["witness_committee"])
        _require(query.info["candidate"] not in other, "witness committee holds the candidate")
        completion = self._witness(query, doc, profile)
        if completion is not None:
            rule = a.parse_rule_spec(query.info["rule"])
            winners = a.winning_committees(rule, completion, query.info["k"])
            _require(all(query.info["candidate"] not in w for w in winners),
                     "candidate wins in the counterexample")

    def _neccom(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        if doc["answer"]:
            _require("witness" not in doc, "true answer carries a witness")
            return
        committee = frozenset(query.info["committee"])
        rival = self._ids(profile.registry, doc["witness_committee"])
        _require(len(rival) == len(committee) and rival != committee, "bad rival")
        completion = self._witness(query, doc, profile)
        if completion is not None:
            rule = a.parse_rule_spec(query.info["rule"])
            _require(a.profile_score(rule, completion, rival)
                     > a.profile_score(rule, completion, committee),
                     "rival does not beat the committee in the counterexample")

    def _axiom_witness(self, query, doc, holds: bool) -> None:
        profile, _ = self._profile(query.profile)
        completion = self._witness(query, doc, profile)
        if completion is not None:
            satisfied, _ = self.abcu.check_axiom(
                completion, frozenset(query.info["committee"]), query.info["k"],
                query.info.get("axiom", "jr"),
            )
            _require(satisfied == holds, "witness does not decide the axiom as claimed")

    def _posjr(self, query, doc) -> None:
        if doc["answer"]:
            self._axiom_witness(query, doc, True)
        else:
            _require("witness" not in doc, "false answer carries a witness")

    def _necjr(self, query, doc) -> None:
        if not doc["answer"]:
            self._axiom_witness(query, doc, False)
        else:
            _require("witness" not in doc, "true answer carries a witness")

    def _enumerate(self, query, doc) -> None:
        a = self.abcu
        profile, _ = self._profile(query.profile)
        rows = doc["completions"]
        _require(doc["count"] == len(rows) == a.count_completions(profile),
                 "completion count is wrong")
        seen = set()
        for completion_rows in rows:
            key = json.dumps(completion_rows)
            _require(key not in seen, "a completion is listed twice")
            seen.add(key)
            completion = self._completion(profile.registry, completion_rows)
            _require(a.is_completion(completion, profile), "listed profile is not a completion")

    def _gen(self, query, doc) -> None:
        info = query.info
        _require(doc["profile"] == info["gadget"], "gadget profile differs from the library's construction")
        _require(doc["rule"] == info["rule"] and doc["k"] == info["k"]
                 and doc["target"] == info["target"], "gadget query differs from the library's construction")


def answer_digest(queries, results) -> str:
    """Hash of every exit code, answer and witness, in query order.

    The route name ("method") is left out: renaming a route must not change
    the digest, while any change of answer or witness must.
    """
    h = hashlib.sha256()
    for query, (code, out) in zip(queries, results):
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            doc = out
        if isinstance(doc, dict):
            doc = {key: value for key, value in doc.items() if key != "method"}
        h.update(json.dumps([query.family, code, doc], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
