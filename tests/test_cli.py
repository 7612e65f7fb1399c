"""Command-line behaviour: exit codes, documents, env knobs."""

import json
import shutil
import subprocess

import pytest

from abcu import (
    AV,
    PAV,
    ApprovalBallot,
    ApprovalProfile,
    CandidateRegistry,
    is_completion,
    is_winning_committee,
)
from abcu import cli
from abcu.cli import run_cli
from abcu.io import parse_profile

PAIR_DOC = {
    "candidates": ["a", "b"],
    "k": 1,
    "voters": [{"top": ["a"]}, {"middle": ["b"]}],
}
QUAD_DOC = {
    "candidates": ["a", "b", "c", "d"],
    "k": 2,
    "voters": [{"top": ["c"]}, {"top": ["c"]}, {"top": ["a"]}, {"top": ["b"]}],
}
TRIO_DOC = {
    "candidates": ["a", "b", "c"],
    "k": 1,
    "voters": [
        {"top": ["a"], "middle": ["b", "c"], "order": [["b", "c"]]},
        {"top": ["c"]},
    ],
}


@pytest.fixture
def profile_file(tmp_path):
    def write(doc):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def test_true_answers_exit_zero(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    code, doc, err = run(
        capsys, "poscom", "--profile", path, "--rule", "av", "--committee", "a"
    )
    assert code == 0 and err == ""
    assert doc["answer"] is True
    assert doc["method"] == "av-3va-canonical"
    assert doc["witness_committee"] == ["a"]


def test_false_answers_exit_one(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    code, doc, err = run(
        capsys, "neccom", "--profile", path, "--rule", "av", "--committee", "b",
        "--witness",
    )
    assert code == 1 and err == ""
    assert doc["answer"] is False
    assert doc["witness"] == [["a"], []]


def test_witnesses_re_verify(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    _, doc, _ = run(
        capsys, "poscom", "--profile", path, "--rule", "av", "--committee", "b",
        "--witness",
    )
    partial, _ = parse_profile(json.dumps(PAIR_DOC))
    registry = CandidateRegistry(("a", "b"))
    completion = ApprovalProfile(
        registry,
        tuple(
            ApprovalBallot(frozenset(registry.id_of(n) for n in row))
            for row in doc["witness"]
        ),
    )
    assert is_completion(completion, partial)
    committee = frozenset(registry.id_of(n) for n in doc["witness_committee"])
    assert is_winning_committee(AV, completion, committee)


def test_missing_committee_size(profile_file, capsys):
    doc = dict(PAIR_DOC)
    del doc["k"]
    path = profile_file(doc)
    code, out, err = run(
        capsys, "poscom", "--profile", path, "--rule", "av", "--committee", "a"
    )
    assert code == 2 and out is None
    assert "abcu:" in err and "--k" in err


def test_k_flag_overrides_the_document(profile_file, capsys):
    path = profile_file(QUAD_DOC)
    code, doc, _ = run(
        capsys, "winners", "--profile", path, "--rule", "cc", "--k", "1"
    )
    assert code == 0
    assert doc["k"] == 1
    assert doc["committees"] == [["c"]]


def test_winners_lists_all_optimal_committees(profile_file, capsys):
    path = profile_file(QUAD_DOC)
    code, doc, _ = run(capsys, "winners", "--profile", path, "--rule", "cc")
    assert code == 0
    assert doc["score"] == "3"
    assert doc["committees"] == [["a", "c"], ["b", "c"]]


def test_complete_profile_commands_reject_open_ballots(profile_file, capsys):
    path = profile_file(TRIO_DOC)
    for argv in (
        ("winners", "--profile", path, "--rule", "av"),
        ("check", "--profile", path, "--committee", "a"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None
        assert "complete" in err


def test_axiom_check_reports_group_witnesses(profile_file, capsys):
    path = profile_file(QUAD_DOC)
    code, doc, _ = run(
        capsys, "check", "--profile", path, "--committee", "a,b", "--axiom", "pjr"
    )
    assert code == 1
    assert doc["group_witness"] == {
        "voters": [0, 1],
        "common": ["c"],
        "level": 1,
        "allowed": [],
    }
    code, doc, _ = run(capsys, "check", "--profile", path, "--committee", "a,c")
    assert code == 0 and "group_witness" not in doc


def test_enumerate_lists_completions_in_order(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    code, doc, _ = run(capsys, "enumerate", "--profile", path)
    assert code == 0
    assert doc["count"] == 2
    assert doc["completions"] == [[["a"], []], [["a"], ["b"]]]


def test_completion_caps_refuse_work(profile_file, capsys, monkeypatch):
    path = profile_file(PAIR_DOC)
    code, out, err = run(capsys, "enumerate", "--profile", path, "--cap", "1")
    assert code == 3 and out is None and "abcu:" in err
    monkeypatch.setenv("ABCU_CAP", "1")
    code, _, _ = run(capsys, "enumerate", "--profile", path)
    assert code == 3
    # an explicit flag wins over the environment
    code, _, _ = run(capsys, "enumerate", "--profile", path, "--cap", "10")
    assert code == 0
    monkeypatch.setenv("ABCU_CAP", "ten")
    code, out, err = run(capsys, "enumerate", "--profile", path)
    assert code == 2 and "ABCU_CAP" in err


def test_poly_refusals_exit_three(profile_file, capsys):
    path = profile_file(TRIO_DOC)
    code, out, err = run(
        capsys, "poscom", "--profile", path, "--rule", "pav", "--committee", "a",
        "--method", "poly",
    )
    assert code == 3 and out is None
    assert "pav" in err


def test_membership_queries(profile_file, capsys):
    path = profile_file(TRIO_DOC)
    code, doc, _ = run(
        capsys, "posmem", "--profile", path, "--rule", "av", "--candidate", "b"
    )
    assert code == 0 and doc["method"] == "av-linear-prefix"
    code, doc, _ = run(
        capsys, "necmem", "--profile", path, "--rule", "av", "--candidate", "b",
        "--witness",
    )
    assert code == 1
    assert doc["answer"] is False and "witness" in doc


def test_axiom_queries_cover_both_quantifiers(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    code, doc, _ = run(capsys, "posjr", "--profile", path, "--committee", "a")
    assert code == 0 and doc["axiom"] == "jr"
    code, doc, _ = run(
        capsys, "necjr", "--profile", path, "--committee", "a", "--axiom", "ejr"
    )
    assert doc["method"] == "experimental-completion-scan"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frobnicate",),
        ("poscom", "--rule", "av", "--committee", "a"),
        ("poscom", "--profile", "/nonexistent.json", "--rule", "av",
         "--committee", "a"),
        ("poscom", "--profile", "PAIR", "--rule", "plurality", "--committee", "a"),
        ("poscom", "--profile", "PAIR", "--rule", "av", "--committee", "z"),
        ("poscom", "--profile", "PAIR", "--rule", "av", "--committee", "a",
         "--method", "guess"),
        ("posmem", "--profile", "PAIR", "--rule", "binary:3", "--candidate", "a"),
    ],
)
def test_usage_problems_exit_two(profile_file, capsys, argv):
    path = profile_file(PAIR_DOC)
    argv = [path if part == "PAIR" else part for part in argv]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_gadget_generation_round_trips(profile_file, capsys, tmp_path):
    instance = tmp_path / "inst.txt"
    instance.write_text("3\n1 2 3\n")
    code, doc, _ = run(capsys, "gen", "--gadget", "cc3va", "--instance", str(instance))
    assert code == 0
    assert doc["rule"] == "cc" and doc["k"] == 2
    assert doc["target"] == ["w1", "w2"]
    generated = tmp_path / "gadget.json"
    generated.write_text(json.dumps(doc["profile"]))
    code, result, _ = run(
        capsys, "poscom", "--profile", str(generated), "--rule", doc["rule"],
        "--committee", ",".join(doc["target"]), "--method", "brute",
    )
    assert code == 0 and result["answer"] is True


def test_gadget_flag_validation(profile_file, capsys, tmp_path):
    clause = tmp_path / "clause.txt"
    clause.write_text("3\n1 2 3\n")
    cover = tmp_path / "cover.txt"
    cover.write_text("6\n1 2 3\n4 5 6\n")
    cases = [
        ("gen", "--gadget", "cc3va", "--instance", str(clause), "--x", "1"),
        ("gen", "--gadget", "linearx3c", "--instance", str(cover)),
        ("gen", "--gadget", "linearx3c", "--instance", str(cover), "--x", "zero"),
        ("gen", "--gadget", "linearx3c", "--instance", str(cover), "--x", "0"),
        ("gen", "--gadget", "linearx3c", "--instance", str(clause), "--x", "1"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out is None, argv
    code, doc, _ = run(
        capsys, "gen", "--gadget", "linearx3c", "--instance", str(cover), "--x", "1/2"
    )
    assert code == 0 and doc["rule"] == "table:0,1,3/2"


def test_deep_profiles_do_not_exhaust_the_stack(profile_file, capsys):
    # More voters than the interpreter has stack frames for a per-voter recursion.
    voters = [{"top": [name]} for name in ("a", "b", "c")] * 1000
    voters.append({"middle": ["b", "c"], "order": [["b", "c"]]})
    doc = {"candidates": ["a", "b", "c"], "k": 2, "voters": voters}
    path = profile_file(doc)
    code, out, err = run(
        capsys, "poscom", "--profile", path, "--rule", "pav", "--committee", "a,b",
        "--method", "brute", "--witness",
    )
    assert code == 0 and err == ""
    partial, _ = parse_profile(json.dumps(doc))
    registry = partial.registry
    completion = ApprovalProfile(
        registry,
        tuple(
            ApprovalBallot(frozenset(registry.id_of(n) for n in row))
            for row in out["witness"]
        ),
    )
    assert is_completion(completion, partial)
    committee = frozenset(registry.id_of(n) for n in out["witness_committee"])
    assert committee == frozenset({0, 1})
    assert is_winning_committee(PAV, completion, committee)


def test_internal_errors_exit_four(profile_file, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "winners", broken)
    path = profile_file(QUAD_DOC)
    code, out, err = run(capsys, "winners", "--profile", path, "--rule", "av")
    assert code == 4 and out is None
    assert err.startswith("abcu: internal error: ") and err.count("\n") == 1
    assert "invariant broken" in err


def test_installed_entry_point(profile_file, tmp_path):
    binary = shutil.which("abcu")
    assert binary, "abcu console script should be on PATH after install"
    path = profile_file(PAIR_DOC)
    result = subprocess.run(
        [binary, "poscom", "--profile", path, "--rule", "av", "--committee", "a"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["answer"] is True
    usage = subprocess.run([binary], capture_output=True, text=True)
    assert usage.returncode == 2 and usage.stdout == ""
