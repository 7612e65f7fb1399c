"""Command-line interface.

One subcommand per query. Every run reads a profile document (or a
gadget instance file), prints one result document to standard output and
reserves standard error for diagnostics. Exit codes: 0 for a true answer
or produced output, 1 for a false answer, 2 for usage and validation
problems, 3 when work is refused (completion cap exceeded, or no
polynomial algorithm under method=poly), 4 for an internal error.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from fractions import Fraction

from .errors import InputError, ResourceRefusal
from .io import (
    completion_rows,
    decision_document,
    group_witness_document,
    parse_profile,
    profile_document,
    serialize_result,
)
from .model import (
    DEFAULT_CAP,
    ApprovalProfile,
    PartialProfile,
    enumerate_completions,
)
from .necessary import neccom, necmem
from .possible import poscom, posmem
from .representation import (
    check_axiom,
    necessary_axiom_by_scan,
    necjr,
    posjr,
    possible_axiom_by_scan,
)
from .rules import best_committees, parse_rule_spec

ENV_CAP = "ABCU_CAP"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after that.

    Its ``commands`` attribute maps each command name to that command's
    sub-parser, which ``_parse`` calls directly. Parsing does not change
    either parser, and usage errors go to the ``sys.stderr`` of the call,
    so every ``run_cli`` call can share them. ``cache_clear()`` rebuilds
    both. It is not built at import, which would slow down every import.
    """
    parser = argparse.ArgumentParser(
        prog="abcu",
        description="Committee queries over incomplete approval profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, *, k=True, rule=False, committee=False,
            candidate=False, method=False, axiom=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--profile", required=True, help="profile document (JSON file)")
        if k:
            p.add_argument("--k", type=int, help="committee size (defaults to the document's k)")
        p.add_argument("--cap", type=int, help="completion cap (default 1048576, env ABCU_CAP)")
        p.add_argument("--witness", action="store_true", help="include witness in output")
        if rule:
            p.add_argument("--rule", required=True,
                           help="av | cc | pav | sav | binary:<t> | table:<r0,r1,...>")
        if committee:
            p.add_argument("--committee", required=True, help="comma-separated candidate names")
        if candidate:
            p.add_argument("--candidate", required=True, help="candidate name")
        if method:
            p.add_argument("--method", choices=("auto", "poly", "brute"), default="auto")
        if axiom:
            p.add_argument("--axiom", choices=("jr", "pjr", "ejr"), default="jr")
        return p

    add("winners", "winning committees of a complete profile", rule=True)
    add("poscom", "is the committee a winner in some completion",
        rule=True, committee=True, method=True)
    add("neccom", "is the committee a winner in every completion",
        rule=True, committee=True)
    add("posmem", "is the candidate in a winning committee in some completion",
        rule=True, candidate=True, method=True)
    add("necmem", "is the candidate in a winning committee in every completion",
        rule=True, candidate=True, method=True)
    add("posjr", "does some completion satisfy the axiom", committee=True, axiom=True)
    add("necjr", "does every completion satisfy the axiom", committee=True, axiom=True)
    add("check", "check a representation axiom on a complete profile",
        committee=True, axiom=True)
    add("enumerate", "list the completions of a profile", k=False)

    gen = sub.add_parser("gen", help="generate a gadget query from an instance file")
    gen.add_argument("--gadget", required=True, choices=("cc3va", "linearx3c"))
    gen.add_argument("--instance", required=True, help="instance file")
    gen.add_argument("--x", help="weight step for linearx3c (integer or p/q)")
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the same namespace,
    output and exit, but through the chosen sub-parser when ``argv[0]``
    is a command name: the top-level parser spends about half its time
    finding the sub-command. Leftover arguments, or a first word that
    names no command, go to the full parser, which reports them with its
    own usage line.
    """
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def _resolve_cap(args) -> int:
    """The completion cap: --cap, else ABCU_CAP, else the default.

    ``run_cli`` resolves it for every subcommand that accepts --cap,
    whether or not the query enumerates, so a bad value is always a
    usage problem.
    """
    source, cap = "--cap", args.cap
    if cap is None:
        source, raw = ENV_CAP, os.environ.get(ENV_CAP)
        try:
            cap = DEFAULT_CAP if raw is None else int(raw)
        except ValueError:
            raise InputError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"{source} must be at least 1, got {cap}")
    return cap


def _load_profile(args) -> tuple[PartialProfile, int | None]:
    """The profile and k; a command without --k gets the document's k or None."""
    with open(args.profile, encoding="utf-8") as handle:
        profile, doc_k = parse_profile(handle.read())
    if "k" not in vars(args):
        return profile, doc_k
    k = args.k if args.k is not None else doc_k
    if k is None:
        raise InputError("committee size missing: pass --k or put k in the document")
    return profile, k


def _require_complete(profile: PartialProfile, command: str) -> ApprovalProfile:
    """The profile's kept complete view; empty middles are required."""
    complete = profile.complete_view
    if complete is None:
        raise InputError(
            f"{command} needs a complete profile (empty middles); "
            "use poscom/neccom for incomplete ones"
        )
    return complete


def _committee(args, profile: PartialProfile) -> frozenset[int]:
    names = [part.strip() for part in args.committee.split(",") if part.strip()]
    committee = frozenset(profile.registry.id_of(name) for name in names)
    if len(committee) < len(names):
        repeated = next(name for i, name in enumerate(names) if name in names[:i])
        raise InputError(f"--committee names candidate {repeated!r} twice")
    return committee


def _handle_winners(args) -> tuple[dict, int]:
    profile, k = _load_profile(args)
    complete = _require_complete(profile, "winners")
    rule = parse_rule_spec(args.rule)
    score, winners = best_committees(rule, complete, k)
    doc = {
        "query": "winners",
        "answer": True,
        "method": "exhaustive-scan",
        "k": k,
        "score": score,
        "committees": [
            [profile.registry.names[c] for c in sorted(w)] for w in winners
        ],
    }
    return doc, 0


def _decision_handler(decide):
    """A handler that loads the profile, runs ``decide(args, profile, k)``
    and reports its Decision: exit 0 for a true answer, 1 for a false one."""

    def handle(args) -> tuple[dict, int]:
        profile, k = _load_profile(args)
        decision = decide(args, profile, k)
        extra = {"axiom": args.axiom} if "axiom" in vars(args) else None
        doc = decision_document(args.command, decision, profile.registry, args.witness, extra)
        return doc, 0 if decision.answer else 1

    return handle


def _axiom_decision(args, profile: PartialProfile, k: int, canonical, scan):
    """JR by its canonical completion, PJR and EJR by a completion scan."""
    committee = _committee(args, profile)
    if args.axiom == "jr":
        return canonical(profile, committee, k)
    return scan(profile, committee, k, args.axiom, cap=args.cap)


def _handle_check(args) -> tuple[dict, int]:
    profile, k = _load_profile(args)
    complete = _require_complete(profile, "check")
    committee = _committee(args, profile)
    satisfied, witness = check_axiom(complete, committee, k, args.axiom)
    doc = {
        "query": "check",
        "answer": satisfied,
        "method": "subset-scan",
        "axiom": args.axiom,
    }
    if witness is not None:
        doc["group_witness"] = group_witness_document(witness, profile.registry)
    return doc, 0 if satisfied else 1


def _handle_enumerate(args) -> tuple[dict, int]:
    profile, _k = _load_profile(args)
    rows: dict = {}
    completions = [
        completion_rows(completion, rows)
        for completion in enumerate_completions(profile, args.cap)
    ]
    doc = {
        "query": "enumerate",
        "answer": True,
        "method": "enumeration",
        "count": len(completions),
        "completions": completions,
    }
    return doc, 0


def _handle_gen(args) -> tuple[dict, int]:
    from .reductions import build_cc_3va, build_linear_x3c, parse_one_in_three, parse_x3c

    with open(args.instance, encoding="utf-8") as handle:
        text = handle.read()
    if args.gadget == "cc3va":
        if args.x is not None:
            raise InputError("--x applies to the linearx3c gadget only")
        gadget = build_cc_3va(parse_one_in_three(text))
    else:
        if args.x is None:
            raise InputError("linearx3c needs --x (integer or p/q)")
        try:
            step = Fraction(args.x)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad --x value {args.x!r}") from None
        gadget = build_linear_x3c(parse_x3c(text), step)
    registry = gadget.profile.registry
    doc = {
        "query": "gen",
        "answer": True,
        "method": f"gadget-{args.gadget}",
        "rule": gadget.rule_spec,
        "k": gadget.k,
        "target": [registry.names[c] for c in sorted(gadget.target)],
        "profile": profile_document(gadget.profile, gadget.k),
    }
    return doc, 0


_HANDLERS = {
    "winners": _handle_winners,
    # Each command reads its options in a fixed order, so a document with
    # two faults always reports the same one first. The lambdas look the
    # query functions up when called, so a wrapper rebound over a module
    # name sees every call.
    "poscom": _decision_handler(lambda args, profile, k: poscom(
        profile, _committee(args, profile), parse_rule_spec(args.rule), k,
        method=args.method, cap=args.cap,
    )),
    "neccom": _decision_handler(lambda args, profile, k: neccom(
        parse_rule_spec(args.rule), profile, _committee(args, profile), k,
    )),
    "posmem": _decision_handler(lambda args, profile, k: posmem(
        profile, profile.registry.id_of(args.candidate), parse_rule_spec(args.rule), k,
        method=args.method, cap=args.cap,
    )),
    "necmem": _decision_handler(lambda args, profile, k: necmem(
        profile, profile.registry.id_of(args.candidate), parse_rule_spec(args.rule), k,
        method=args.method, cap=args.cap,
    )),
    "posjr": _decision_handler(lambda args, profile, k: _axiom_decision(
        args, profile, k, posjr, possible_axiom_by_scan,
    )),
    "necjr": _decision_handler(lambda args, profile, k: _axiom_decision(
        args, profile, k, necjr, necessary_axiom_by_scan,
    )),
    "check": _handle_check,
    "enumerate": _handle_enumerate,
    "gen": _handle_gen,
}


def run_cli(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "cap" in vars(args):
            args.cap = _resolve_cap(args)
        doc, code = _HANDLERS[args.command](args)
        # Written and flushed here, so a closed stdout is an OSError too.
        sys.stdout.write(serialize_result(doc) + "\n")
        sys.stdout.flush()
    except ResourceRefusal as exc:
        print(f"abcu: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, OSError) as exc:
        print(f"abcu: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means "false", so a bug must not escape as a traceback.
        print(f"abcu: internal error: {exc!r}", file=sys.stderr)
        return 4
    return code


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Unbuffered stdout (python -u) ignores a short write, so a reader
        # leaving mid-write would cut the result off silently. A buffered
        # layer writes the rest and raises, as the default stdout does.
        raw = io.FileIO(sys.stdout.fileno(), "w", closefd=False)
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw), sys.stdout.encoding, sys.stdout.errors,
            write_through=True,
        )
    code = run_cli(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone and the result is still buffered: point
        # stdout at devnull so the flush at interpreter exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
