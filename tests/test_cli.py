"""Command-line behaviour: exit codes, documents, env knobs."""

import importlib.metadata
import io
import json
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abcu
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
from abcu.io import parse_profile, serialize_profile

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


def test_a_profile_rewritten_in_place_is_read_again(profile_file, capsys):
    # The loader keeps what it decoded by the document's text, not by its
    # path, size or time: same path, same length, same mtime, new answer.
    path = profile_file({"candidates": ["a", "b"], "k": 1, "voters": [{"top": ["a"]}]})
    stat = os.stat(path)
    _, doc, _ = run(capsys, "winners", "--profile", path, "--rule", "av")
    assert doc["committees"] == [["a"]]
    path = profile_file({"candidates": ["a", "b"], "k": 1, "voters": [{"top": ["b"]}]})
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    _, doc, _ = run(capsys, "winners", "--profile", path, "--rule", "av")
    assert doc["committees"] == [["b"]]
    # A complete document is kept as its profile from its first read on;
    # rewritten in place after three reads, it is answered anew.
    path = profile_file({"candidates": ["a", "b"], "k": 1, "voters": [{"top": ["b"]}] * 3})
    stat = os.stat(path)
    for _ in range(3):
        _, doc, _ = run(capsys, "winners", "--profile", path, "--rule", "av")
        assert doc["committees"] == [["b"]]
    path = profile_file({"candidates": ["a", "b"], "k": 1, "voters": [{"top": ["a"]}] * 3})
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    for _ in range(3):
        _, doc, _ = run(capsys, "winners", "--profile", path, "--rule", "av")
        assert doc["committees"] == [["a"]]
    # So is a partial document, kept as its voters' id tuples.
    path = profile_file({"candidates": ["a", "b"], "k": 1,
                         "voters": [{"top": ["a"], "middle": ["b"]}] * 3})
    stat = os.stat(path)
    for _ in range(3):
        code, doc, _ = run(capsys, "neccom", "--profile", path, "--rule", "av", "--committee", "a")
        assert code == 0 and doc["answer"] is True
    path = profile_file({"candidates": ["a", "b"], "k": 1,
                         "voters": [{"top": ["b"], "middle": ["a"]}] * 3})
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    for _ in range(3):
        code, doc, _ = run(capsys, "neccom", "--profile", path, "--rule", "av", "--committee", "a")
        assert code == 1 and doc["answer"] is False


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


def test_enumerate_reads_no_committee_size(profile_file, capsys):
    doc = {"candidates": ["a", "b", "c"], "voters": [{"top": ["a"], "middle": ["b"]}]}
    code, listing, err = run(capsys, "enumerate", "--profile", profile_file(doc))
    assert code == 0 and err == ""
    code, with_k, _ = run(capsys, "enumerate", "--profile", profile_file({**doc, "k": 2}))
    assert code == 0 and listing == with_k
    assert listing["completions"] == [[["a"]], [["a", "b"]]]
    # enumerate takes no --k, so the flag is a usage error there.
    code, out, err = run(capsys, "enumerate", "--profile", profile_file(doc), "--k", "0")
    assert code == 2 and out is None and "--k" in err


def test_completion_caps_refuse_work(profile_file, capsys, monkeypatch, tmp_path):
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
    # A cap below 1 is a usage problem, not refused work, on every
    # subcommand that accepts --cap, whether or not it enumerates.
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps(QUAD_DOC))
    quad = str(quad)
    commands = [
        ["enumerate", "--profile", path],
        ["poscom", "--profile", path, "--rule", "av", "--committee", "a"],
        ["neccom", "--profile", path, "--rule", "av", "--committee", "a"],
        ["posmem", "--profile", path, "--rule", "av", "--candidate", "a"],
        ["necmem", "--profile", path, "--rule", "av", "--candidate", "a"],
        *(
            [command, "--profile", path, "--committee", "a", "--axiom", axiom]
            for command in ("posjr", "necjr")
            for axiom in ("jr", "ejr")
        ),
        ["winners", "--profile", quad, "--rule", "av"],
        ["check", "--profile", quad, "--committee", "a,c"],
    ]
    for argv in commands:
        monkeypatch.delenv("ABCU_CAP")
        assert run(capsys, *argv)[0] in (0, 1), argv
        for flag, env in ((["--cap", "0"], "10"), (["--cap", "-1"], "10"), ([], "-1")):
            monkeypatch.setenv("ABCU_CAP", env)
            code, out, err = run(capsys, *argv, *flag)
            assert code == 2 and out is None, (argv, flag, env)
            assert err.startswith("abcu:") and err.count("\n") == 1
            assert (flag[0] if flag else "ABCU_CAP") in err


def test_repeated_committee_names_are_usage_problems(profile_file, capsys):
    path = profile_file(PAIR_DOC)
    for command in (["posjr", "--axiom", "ejr"], ["poscom", "--rule", "av"]):
        code, out, err = run(
            capsys, command[0], "--profile", path, "--committee", "a, a", *command[1:]
        )
        assert code == 2 and out is None
        assert err.startswith("abcu:") and "'a'" in err


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


def test_necjr_false_jr_witness_fails_check(profile_file, capsys):
    # Voter 0 may approve any of a, c, d, but d only with a. The witness
    # completion drops d from voter 0, whose d is ranked below a, and
    # leaves c's two voters without a member of {a, b}.
    path = profile_file({
        "candidates": ["a", "b", "c", "d"],
        "k": 2,
        "voters": [
            {"middle": ["a", "c", "d"], "order": [["a", "d"]]},
            {"top": ["c"]},
            {"top": ["a"]},
            {"top": ["b"]},
        ],
    })
    code, doc, err = run(
        capsys, "necjr", "--profile", path, "--committee", "a,b", "--witness"
    )
    assert code == 1 and err == ""
    assert doc["answer"] is False and doc["axiom"] == "jr"
    assert doc["method"] == "canonical-completion"
    assert doc["witness_committee"] == ["a", "b"]
    assert doc["witness"] == [["c"], ["c"], ["a"], ["b"]]
    path = profile_file({
        "candidates": ["a", "b", "c", "d"],
        "k": 2,
        "voters": [{"top": row} for row in doc["witness"]],
    })
    code, doc, _ = run(
        capsys, "check", "--profile", path, "--committee", "a,b", "--axiom", "jr"
    )
    assert code == 1 and doc["answer"] is False


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


def test_deeply_nested_documents_are_malformed_input(tmp_path, capsys):
    # The JSON decoder runs out of stack long before 100,000 levels.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "winners", "--profile", str(path), "--rule", "av")
    assert code == 2 and out is None
    assert err.startswith("abcu: not valid JSON: ") and err.count("\n") == 1


def test_internal_errors_exit_four(profile_file, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "winners", broken)
    path = profile_file(QUAD_DOC)
    code, out, err = run(capsys, "winners", "--profile", path, "--rule", "av")
    assert code == 4 and out is None
    assert err.startswith("abcu: internal error: ") and err.count("\n") == 1
    assert "invariant broken" in err

    # A result document the serializer cannot render is an internal error too.
    monkeypatch.setitem(cli._HANDLERS, "winners", lambda args: ({"bad": frozenset()}, 0))
    code, out, err = run(capsys, "winners", "--profile", path, "--rule", "av")
    assert code == 4 and out is None
    assert err.startswith("abcu: internal error: TypeError(") and err.count("\n") == 1


def test_a_key_error_inside_an_axiom_check_is_an_internal_error(
        profile_file, capsys, monkeypatch):
    # Only an unknown axiom name is a usage error; a KeyError raised by
    # the check itself is a fault of the program.
    def broken(profile, committee, k):
        raise KeyError("lost")

    monkeypatch.setitem(abcu.representation._AXIOM_CHECKS, "jr", broken)
    path = profile_file(QUAD_DOC)
    code, out, err = run(capsys, "check", "--profile", path, "--committee", "a,b", "--axiom", "jr")
    assert code == 4 and out is None
    assert err == "abcu: internal error: KeyError('lost')\n"


def _source_env():
    """The environment with this package's source first on PYTHONPATH."""
    env = dict(os.environ)
    source_root = str(Path(abcu.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point(profile_file, tmp_path):
    """The declared `abcu` console script works as a process.

    The command comes from `[project.scripts]` in the repo's
    pyproject.toml and runs the way an installer's wrapper runs it, so no
    install is needed. When an `abcu` distribution is installed, its
    declared entry point and the script its RECORD lists are checked too.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["abcu"]
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    wrapper = f"import sys; sys.argv[0] = 'abcu'; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper]]
    try:
        dist = importlib.metadata.distribution("abcu")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        entries = dist.entry_points.select(group="console_scripts", name="abcu")
        assert [entry.value for entry in entries] == [target]
        scripts = [dist.locate_file(f) for f in dist.files or () if f.name in ("abcu", "abcu.exe")]
        assert scripts and all(Path(script).is_file() for script in scripts)
        commands += [[str(script)] for script in scripts]

    env = _source_env()
    path = profile_file(PAIR_DOC)
    for command in commands:
        result = subprocess.run(
            [*command, "poscom", "--profile", path, "--rule", "av", "--committee", "a"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["answer"] is True
        usage = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert usage.returncode == 2 and usage.stdout == ""
        assert usage.stderr.startswith("usage: abcu ")


def test_importing_the_cli_leaves_reductions_unrun(tmp_path):
    """Only `abcu gen` needs reductions: `import abcu.cli` registers it
    lazily, so its code runs on the first read of one of its names, and
    the package reads each such name from the module, keeping no copy."""
    code = (
        "import sys, types, abcu.cli\n"
        "lazy = sys.modules['abcu.reductions']\n"
        "print(type(lazy) is types.ModuleType)\n"
        "import abcu\n"
        "print(abcu.build_cc_3va is lazy.build_cc_3va, type(lazy) is types.ModuleType)\n"
        "print('build_cc_3va' in vars(abcu), 'build_cc_3va' in dir(abcu))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=tmp_path, env=_source_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True", "True", "False", "True"]
    instance = tmp_path / "inst.txt"
    instance.write_text("3\n1 2 3\n")
    gen = subprocess.run([sys.executable, "-m", "abcu", "gen", "--gadget", "cc3va",
                          "--instance", str(instance)],
                         capture_output=True, text=True, cwd=tmp_path, env=_source_env())
    assert gen.returncode == 0 and gen.stderr == ""
    assert json.loads(gen.stdout)["method"] == "gadget-cc3va"


def test_threads_reading_reductions_first_all_wait_for_it(tmp_path):
    """Eight threads that import from reductions at once, in a fresh
    process, each get the module only once its code has run, and it
    runs once: all get the same class and function."""
    code = (
        "import sys, threading, abcu\n"
        "sys.setswitchinterval(1e-6)\n"
        "got, start = [], threading.Barrier(8)\n"
        "def read():\n"
        "    start.wait()\n"
        "    from abcu.reductions import X3CInstance, build_cc_3va\n"
        "    got.append((X3CInstance, build_cc_3va))\n"
        "threads = [threading.Thread(target=read) for _ in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(30)\n"
        "once = got == [(abcu.X3CInstance, abcu.build_cc_3va)] * 8\n"
        "print(once, any(thread.is_alive() for thread in threads))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=tmp_path, env=_source_env(), timeout=60)
    assert result.stderr == ""
    assert result.stdout.split() == ["True", "False"]


def test_module_entry_points(profile_file, tmp_path):
    """`python -m abcu` and `python -m abcu.cli` both run the command."""
    env = _source_env()
    path = profile_file(PAIR_DOC)
    for module in ("abcu", "abcu.cli"):
        command = [sys.executable, "-m", module]
        result = subprocess.run(
            [*command, "poscom", "--profile", path, "--rule", "av", "--committee", "a"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0 and result.stderr == "", (module, result.stderr)
        assert json.loads(result.stdout)["answer"] is True
        usage = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert usage.returncode == 2 and usage.stdout == "", module
        assert usage.stderr.startswith("usage: abcu ")


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_two_without_a_traceback(profile_file, tmp_path, buffered):
    """A reader that goes away before the result is written is an I/O
    problem (exit 2), not a false answer (exit 1).

    The pipe's read end is closed before the command starts, so every
    write fails. A small result stays in stdout's buffer, which the
    interpreter would flush again at exit; a wide one (4096 completions)
    fails as it is written.
    """
    names = [f"c{i}" for i in range(13)]
    wide = {"candidates": names, "k": 1, "voters": [{"top": names[:1], "middle": names[1:]}]}
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for doc, argv in (
        (QUAD_DOC, ["winners", "--rule", "av"]),
        (QUAD_DOC, ["enumerate"]),
        (wide, ["enumerate"]),
    ):
        path = profile_file(doc)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "abcu", *argv, "--profile", path],
                stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2, (argv, result.stderr)
        assert result.stderr == "abcu: [Errno 32] Broken pipe\n", argv


@pytest.mark.parametrize("buffered", [True, False])
def test_reader_leaving_mid_write_exits_two(profile_file, tmp_path, buffered):
    """A reader that takes the first line and leaves cuts the result short,
    which must not read as a true answer.

    The result (about 520 KB) is far larger than a pipe holds, so the
    reader closes while the write is still in progress and the write is
    cut short rather than refused.
    """
    names = [f"c{i}" for i in range(13)]
    wide = {"candidates": names, "k": 1, "voters": [{"top": names[:1], "middle": names[1:]}]}
    env = _source_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "abcu", "enumerate", "--profile", profile_file(wide)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
    )
    try:
        assert process.stdout.readline() == b"{\n"
        process.stdout.close()
        stderr = process.stderr.read().decode()
        code = process.wait(timeout=60)
    finally:
        process.kill()
        process.stderr.close()
    assert code == 2, stderr
    assert stderr == "abcu: [Errno 32] Broken pipe\n"


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(list(argv))
    return code, out.getvalue(), err.getvalue()


class _ThreadStreams(io.TextIOBase):
    """A text stream that keeps each thread's writes apart."""

    def __init__(self):
        self.parts = {}

    def write(self, text):
        self.parts.setdefault(threading.get_ident(), []).append(text)
        return len(text)

    def take(self):
        return "".join(self.parts.pop(threading.get_ident(), []))


def test_threads_answering_complete_documents_get_serial_results(tmp_path, monkeypatch):
    # Four threads ask winners and check questions of the same complete
    # documents, each trial from an empty store, so they race on the first
    # read that keeps each profile and on the first reads of its complete
    # view and of the masks its shared ballots hold.
    rng = Random(27)
    names = [f"c{i}" for i in range(6)]
    pool = [[name for name in names if rng.random() < 0.4] for _ in range(5)]
    queries = []
    for d in range(3):
        path = tmp_path / f"complete{d}.json"
        voters = [{"top": rng.choice(pool)} for _ in range(12)]
        path.write_text(json.dumps({"candidates": names, "k": 2, "voters": voters}))
        queries += [["winners", "--profile", str(path), "--rule", rule]
                    for rule in ("av", "pav", "cc")]
        queries += [["check", "--profile", str(path), "--committee", f"c{d},c{d + 3}",
                     "--axiom", axiom] for axiom in ("jr", "pjr", "ejr")]
    expected = [_captured(argv) for argv in queries]
    assert {code for code, _, _ in expected} == {0, 1}
    out, err = _ThreadStreams(), _ThreadStreams()
    faults = []

    def work(start):
        try:
            for step in range(3 * len(queries)):
                j = (start + step) % len(queries)
                code = run_cli(list(queries[j]))
                if (code, out.take(), err.take()) != expected[j]:
                    faults.append((start, step))
        except Exception as exc:  # any escape is a fault to report
            faults.append(exc)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(abcu.io, "_kept", {})
            monkeypatch.setattr(abcu.io, "_kept_text", 0)
            threads = [threading.Thread(target=work, args=(5 * t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert faults == []


def test_threads_answering_partial_documents_get_serial_results(tmp_path, monkeypatch):
    # Four threads ask neccom, posmem, necmem and necjr questions of the
    # same partial documents, starting one query apart, each trial one pass
    # from an empty store, so they race on the first read that keeps each
    # profile, on the part table, and on the first reads of the masks and
    # order maps its shared ballots hold.
    # Document 0 is order-free, the others rank each middle as a chain.
    rng = Random(30)
    names = [f"c{i}" for i in range(6)]
    queries = []
    for d in range(3):
        voters = []
        for _ in range(8):
            ids = rng.sample(names, 6)
            voter = {"top": ids[:rng.randrange(3)], "middle": ids[3:3 + rng.randint(1, 3)]}
            if d and len(voter["middle"]) > 1:
                voter["order"] = [list(pair) for pair in zip(voter["middle"], voter["middle"][1:])]
            voters.append(voter)
        path = tmp_path / f"partial{d}.json"
        path.write_text(json.dumps({"candidates": names, "k": 2, "voters": voters + voters[:4]}))
        profile, committee = str(path), f"c{d},c{d + 3}"
        queries += [["neccom", "--profile", profile, "--rule", rule, "--committee", committee]
                    for rule in ("av", "pav")]
        queries += [[family, "--profile", profile, "--rule", "av", "--candidate", f"c{d + c}",
                     "--witness"] for family in ("posmem", "necmem") for c in (0, 1)]
        queries.append(["necjr", "--profile", profile, "--committee", committee, "--witness"])
    expected = [_captured(argv) for argv in queries]
    assert {code for code, _, _ in expected} == {0, 1}
    out, err = _ThreadStreams(), _ThreadStreams()
    faults = []

    def work(start):
        try:
            for step in range(len(queries)):
                j = (start + step) % len(queries)
                code = run_cli(list(queries[j]))
                if (code, out.take(), err.take()) != expected[j]:
                    faults.append((start, step))
        except Exception as exc:  # any escape is a fault to report
            faults.append(exc)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            monkeypatch.setattr(abcu.io, "_kept", {})
            monkeypatch.setattr(abcu.io, "_kept_text", 0)
            monkeypatch.setattr(abcu.io, "_kept_parts", {})
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert faults == []


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    quad = tmp_path / "quad.json"
    quad.write_text(json.dumps(QUAD_DOC))
    trio = tmp_path / "trio.json"
    trio.write_text(json.dumps(TRIO_DOC))
    poly = ["poscom", "--profile", str(trio), "--rule", "pav", "--committee", "a"]
    sequence = [
        [],
        ["--help"],
        ["winners", "--profile", str(quad), "--rule", "av", "--k", "1"],
        ["winners", "--profile", str(quad), "--rule", "av"],
        [*poly, "--method", "poly"],
        poly,
        ["winners", "--profile", str(quad), "--rule", "av", "extra"],
    ]
    cli._build_parser.cache_clear()
    # Valid argv goes through its command's sub-parser alone; a first word
    # that names no command, or a leftover argument, reaches the top level.
    parser = cli._build_parser()
    full = []

    def parse_args(argv):
        full.append(argv)
        return type(parser).parse_args(parser, argv)

    monkeypatch.setattr(parser, "parse_args", parse_args)
    shared = [_captured(argv) for argv in sequence]
    assert full == [sequence[0], sequence[1], sequence[6]]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 3, 0, 2]
    assert json.loads(shared[2][1])["committees"] == [["c"]]
    assert json.loads(shared[3][1])["k"] == 2
    assert shared[6][2].startswith("usage: abcu [-h] command ...\n")
    assert shared[6][2].endswith("abcu: error: unrecognized arguments: extra\n")
    for argv, result in zip(sequence, shared):
        cli._build_parser.cache_clear()
        assert _captured(argv) == result, argv
    # cache_clear() rebuilds the sub-parsers with the parser.
    before = cli._build_parser().commands
    cli._build_parser.cache_clear()
    after = cli._build_parser().commands
    assert list(after) == list(before) == [
        "winners", "poscom", "neccom", "posmem", "necmem", "posjr", "necjr", "check",
        "enumerate", "gen",
    ]
    assert not any(after[name] is before[name] for name in before)


# Argument words the CLI grammar knows, with faulty ones: abbreviated,
# ambiguous (--c) and unknown options, bad --method/--axiom choices, bad
# integers, and words that look like options.
_OPTIONS = [
    "--profile", "--k", "--cap", "--witness", "--rule", "--committee", "--candidate",
    "--method", "--axiom", "--gadget", "--instance", "--x", "--prof", "--wit", "--ru",
    "--c", "--meth", "--ax", "--bogus", "-k",
]
_VALUES = [
    "p.json", "2", "-1", "x", "av", "pav", "a,b", "a", "auto", "poly", "brute", "fast",
    "jr", "pjr", "ejr", "none", "cc3va", "linearx3c", "1/2", "",
]
_COMMANDS = list(cli._build_parser().commands)
_FIRST = _COMMANDS + ["bogus", "Winners", "win", "-h", "--help", "--", "--profile", ""]


def _argument():
    option, value = st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)
    return st.one_of(
        st.tuples(option, value).map(list),
        st.tuples(option, value).map(lambda pair: [f"{pair[0]}={pair[1]}"]),
        option.map(lambda word: [word]),
        st.sampled_from([["-h"], ["--help"], ["--he"], ["--"], ["extra"], ["-z"], ["--", "x"]]),
    )


def _required(command):
    """Every option the command needs, with a plausible value."""
    needs = [("--profile", "p.json")]
    if command in ("winners", "poscom", "neccom", "posmem", "necmem"):
        needs.append(("--rule", "av"))
    if command in ("poscom", "neccom", "posjr", "necjr", "check"):
        needs.append(("--committee", "a,b"))
    if command in ("posmem", "necmem"):
        needs.append(("--candidate", "a"))
    if command == "gen":
        needs = [("--gadget", "cc3va"), ("--instance", "i.txt")]
    return [word for pair in needs for word in pair]


@st.composite
def _argvs(draw):
    if draw(st.integers(0, 20)) == 0:
        return []
    first = draw(st.sampled_from(_FIRST))
    words = _required(first) if first in _COMMANDS and draw(st.integers(0, 3)) else []
    for argument in draw(st.lists(_argument(), max_size=3)):
        at = draw(st.integers(0, len(words)))
        words[at:at] = argument
    return [first, *words]


def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            space = vars(parse(list(argv)))
        code = 0
    except SystemExit as exc:
        space, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), space


@given(_argvs())
@settings(max_examples=400, deadline=None)
def test_the_chosen_sub_parser_parses_as_the_full_parser(argv):
    # The fast path gives the full parser's exit code, stdout, stderr and
    # namespace on valid and faulty argv alike. It parses only, so no file
    # is read.
    assert _parsed(cli._parse, argv) == _parsed(cli._build_parser().parse_args, argv)


# Names json escapes: a non-ASCII letter, a quote, a backslash, a symbol
# outside Latin-1.
ODD = ["\u00e9", 'q"t', "b\\s", "\u2603"]
ODD_OPEN_DOC = {
    "candidates": ODD,
    "k": 2,
    "voters": [
        {"top": [ODD[0]], "middle": [ODD[1], ODD[3]], "order": [[ODD[1], ODD[3]]]},
        {"top": [ODD[2]], "middle": [ODD[0], ODD[3]]},
        {"top": [ODD[1]]},
    ],
}
ODD_COMPLETE_DOC = {"candidates": ODD, "k": 2, "voters": [{"top": ODD[:2]}] * 3 + [{"top": [ODD[3]]}]}


@pytest.mark.parametrize("argv", [
    ["winners", "complete", "--rule", "pav"],
    ["check", "complete", "--committee", f"{ODD[2]},{ODD[3]}", "--axiom", "pjr"],
    ["enumerate", "open"],
    ["gen", "--gadget", "linearx3c", "--x", "1/2"],
    ["gen", "--gadget", "cc3va"],
    ["poscom", "open", "--rule", "pav", "--committee", f"{ODD[0]},{ODD[3]}", "--witness"],
    ["neccom", "open", "--rule", "av", "--committee", f"{ODD[0]},{ODD[3]}", "--witness"],
    ["posmem", "open", "--rule", "cc", "--candidate", ODD[3], "--witness"],
    ["necmem", "open", "--rule", "sav", "--candidate", ODD[3], "--witness"],
    ["posjr", "open", "--committee", f"{ODD[2]},{ODD[3]}", "--axiom", "ejr", "--witness"],
    ["necjr", "open", "--committee", f"{ODD[2]},{ODD[3]}", "--axiom", "pjr", "--witness"],
], ids=lambda argv: "-".join(argv[:2]))
def test_stdout_is_json_dumps_byte_for_byte(tmp_path, argv):
    """Every subcommand prints exactly json.dumps(doc, indent=2) and a
    newline: escapes, indentation and separators, not only the parsed
    document, match the standard encoder."""
    command, source, *rest = argv
    if command == "gen":
        instance = tmp_path / "instance.txt"
        instance.write_text("6\n1 2 3\n4 5 6\n" if "linearx3c" in rest else "3\n1 2 3\n")
        tail = [source, *rest, "--instance", str(instance)]
    else:
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(ODD_OPEN_DOC if source == "open" else ODD_COMPLETE_DOC))
        tail = ["--profile", str(path), *rest]
    code, out, err = _captured([command, *tail])
    assert code in (0, 1) and err == "", err
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    if command == "check":
        assert "group_witness" in doc
    elif "--witness" in rest:
        assert "witness" in doc, doc


def test_large_listings_fit_a_memory_limit(profile_file, tmp_path):
    """Listing 65,536 completions of 24 voters (about 99 MB of output)
    fits in a 512 MB address space.

    Each distinct approval row is named once and rendered once. Built as
    one name list per voter per completion and rendered by json's
    pure-Python encoder, the same listing needed 750-800 MB.
    """
    resource = pytest.importorskip("resource")
    names = [f"cand{i}" for i in range(24)]
    voters = [
        {"top": [names[(i + 16) % 24], names[(i + 17) % 24]], "middle": [names[i]]}
        for i in range(16)
    ]
    voters += [{"top": [names[i], names[i - 16], names[i - 8]]} for i in range(16, 24)]
    path = profile_file({"candidates": names, "k": 3, "voters": voters})
    limit = 512 << 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    listing = tmp_path / "listing.json"
    with open(listing, "wb") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "abcu", "enumerate", "--profile", path],
            stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env=_source_env(), preexec_fn=limit_address_space,
        )
    assert result.returncode == 0, result.stderr
    with open(listing, "rb") as handle:
        assert b'  "count": 65536,\n' in handle.read(200)
        handle.seek(-7, os.SEEK_END)
        assert handle.read() == b"\n  ]\n}\n"
    listing.unlink()


_NAMES = ("a", "b", "c", "d")
_FAULTS = ("unknown", "overlap", "incomplete", "bad-k", "cycle")


@st.composite
def cli_queries(draw):
    """A small profile document, perhaps broken on purpose, and a query on it.

    Returns (document, fault, argv tail). With fault None the document obeys
    every rule of the profile format; otherwise it carries that one fault.
    """
    m = draw(st.integers(1, 4))
    names = list(_NAMES[:m])
    voters = []
    for _ in range(draw(st.integers(1, 3))):
        parts = {"top": [], "middle": [], "bottom": []}
        for name in names:
            parts[draw(st.sampled_from(sorted(parts)))].append(name)
        ranked = draw(st.permutations(parts["middle"]))
        pairs = [[x, y] for i, x in enumerate(ranked) for y in ranked[i + 1:]]
        parts["order"] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
        voters.append(parts)
    doc = {"candidates": names, "k": draw(st.integers(1, m)), "voters": voters}
    fault = draw(st.one_of(st.none(), st.sampled_from(_FAULTS)))
    voter = draw(st.sampled_from(voters))
    placed = [part for part in ("top", "middle", "bottom") if voter[part]]
    if fault == "unknown":
        voter[draw(st.sampled_from(placed))].append("z")
    elif fault == "overlap":
        source = draw(st.sampled_from(placed))
        target = draw(st.sampled_from([p for p in ("top", "middle", "bottom") if p != source]))
        voter[target].append(voter[source][0])
    elif fault == "incomplete":
        voter[draw(st.sampled_from(placed))].pop()
    elif fault == "bad-k":
        doc["k"] = draw(st.sampled_from([0, -1, "2", True, 1.5]))
    elif fault == "cycle":
        if voter["order"]:
            x, y = draw(st.sampled_from(voter["order"]))
            voter["order"].append([y, x])
        else:
            voter["order"].append([names[0], names[0]])
    committee = ",".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=m, unique=True)))
    candidate = draw(st.sampled_from(names))
    argv = draw(st.sampled_from([
        ["enumerate"],
        ["poscom", "--rule", "av", "--committee", committee],
        ["poscom", "--rule", "pav", "--committee", committee, "--method", "poly"],
        ["neccom", "--rule", "cc", "--committee", committee],
        ["posmem", "--rule", "av", "--candidate", candidate],
        ["necmem", "--rule", "sav", "--candidate", candidate, "--witness"],
        ["posjr", "--committee", committee, "--axiom", "pjr"],
        ["necjr", "--committee", committee],
    ]))
    if draw(st.booleans()):
        argv = [*argv, "--cap", str(draw(st.integers(1, 4)))]
    return doc, fault, argv


@pytest.fixture(scope="module")
def random_profile_path(tmp_path_factory):
    return tmp_path_factory.mktemp("random") / "profile.json"


@settings(max_examples=150, deadline=None)
@given(query=cli_queries())
def test_cli_on_random_documents_keeps_its_exit_contract(random_profile_path, query):
    doc, fault, argv = query
    text = json.dumps(doc)
    random_profile_path.write_text(text)
    command, *rest = argv
    code, out, err = _captured([command, "--profile", str(random_profile_path), *rest])
    assert code in (0, 1, 2, 3), err
    if code in (2, 3):
        assert out == "" and err
    else:
        assert json.loads(out)["answer"] is (code == 0)
    if fault is None:
        profile, k = parse_profile(text)
        assert parse_profile(serialize_profile(profile, k)) == (profile, k)
    else:
        assert code == 2, fault
