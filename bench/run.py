"""Seeded end-to-end benchmark of the abcu command line, with layer tracing.

Usage, from the repository root:

    python3 bench/run.py --workload incomplete-poly --seed 1 --seconds 20 --trace 0

One process, one closed-loop client, no threads. Set-up imports abcu from
src/, generates the workload's documents from the seed and writes them
under .bench_work/; it is repeated and its median reported as setup_s.
Each query then runs in-process through abcu.cli.run_cli with stdout and
stderr captured, pass after pass over the whole query list, for as many
full passes as fit in --seconds (at least one). Every output is then
re-verified untimed (see checks.py).

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
pass for reference, then traced passes, and reports the per-layer metrics
per pass plus the tracing overhead. Both print human-readable lines first
and, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. See README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter, perf_counter_ns

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
SETUP_KERNELS = 15
WARMUP_QUERIES = 8
# Median time of _calibration_kernel on the reference machine (see README).
CALIBRATION_NS = 530_000
KERNEL_WINDOW = 10

FAMILIES = (
    "winners", "check", "poscom", "neccom", "posmem", "necmem", "posjr",
    "necjr", "enumerate", "gen",
)
POSSIBLE_ROUTES = (
    "av-3va-canonical", "binary-linear-prefix", "av-linear-prefix",
    "poscom-iteration", "brute-force",
)
NECESSARY_ROUTES = (
    "max-score-difference", "av-3va-defeat-scan", "av-linear-canonical",
    "binary-linear-defeat-scan", "brute-force",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _import_abcu():
    """Import abcu afresh from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n == "abcu" or n.startswith("abcu.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    abcu = importlib.import_module("abcu")
    importlib.import_module("abcu.cli")
    if not os.path.abspath(abcu.__file__).startswith(SRC + os.sep):
        raise ImportError(f"abcu was imported from {abcu.__file__}, not from {SRC}")
    return abcu


def _setup(name: str, seed: int, workdir: str):
    """Import, generate and write, several times; returns the last set-up.

    Each repetition's time is scaled to the reference speed by the
    calibration kernel run right after it, as query times are per pass.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        start = perf_counter()
        abcu = _import_abcu()
        workload = workloads.build(name, seed, workdir)
        elapsed = perf_counter() - start
        speed = statistics.median(_calibration_ns() for _ in range(SETUP_KERNELS))
        times.append(elapsed * CALIBRATION_NS / speed)
    return abcu, workload, statistics.median(times)


def _run_query(run_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter_ns()
        try:
            code = run_cli(argv)
        except Exception as exc:  # a crash is a failed query, not a failed run
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed


_KERNEL_DOC = json.dumps({
    "candidates": [f"c{c}" for c in range(6)],
    "voters": [{"top": [f"c{c}" for c in range(6) if (v * 5 + c * 3) % 7 < 3]}
               for v in range(6)],
})


def _calibration_kernel() -> str:
    """Fixed interpreter work shaped like one small CLI query.

    An argument parser with subcommands, a JSON document read, exact-
    rational scores of every pair committee, a JSON document written. It
    never touches abcu, so no change to the program can change its cost;
    only the speed of the machine can.
    """
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command")
    command = sub.add_parser("poscom")
    command.add_argument("--profile", required=True)
    command.add_argument("--k", type=int)
    command.add_argument("--witness", action="store_true")
    parser.parse_args(["poscom", "--profile", "doc", "--k", "2", "--witness"])
    doc = json.loads(_KERNEL_DOC)
    ids = {name: c for c, name in enumerate(doc["candidates"])}
    ballots = [frozenset(ids[name] for name in voter["top"]) for voter in doc["voters"]]
    best = Fraction(-1)
    for a in range(5):
        for b in range(a + 1, 5):
            pair = frozenset((a, b))
            score = sum((Fraction(len(x & pair), len(x) or 1) for x in ballots), Fraction(0))
            best = max(best, score)
    return json.dumps({"best": str(best), "ballots": [sorted(x) for x in ballots]}, indent=2)


def _calibration_ns() -> int:
    start = perf_counter_ns()
    _calibration_kernel()
    return perf_counter_ns() - start


def _rolling_median(values: list[int], half: int) -> list[float]:
    """Median of each value's neighbourhood of up to 2 * half + 1 values."""
    return [
        statistics.median(values[max(0, i - half): i + half + 1])
        for i in range(len(values))
    ]


class Runner:
    """Runs passes over the query list and keeps what the checks need.

    After every query the calibration kernel runs once, outside the
    query's timing. Each query time is scaled by CALIBRATION_NS over the
    median of the kernel times around it (KERNEL_WINDOW on either side),
    which states it at the reference speed of the interpreter: on a shared
    machine the same code runs tens of percent faster or slower from one
    minute to the next, and the drift hits the kernel and the queries
    alike. The raw times are kept as well.
    """

    def __init__(self, abcu, queries) -> None:
        self.abcu = abcu
        self.queries = queries
        self.first: list[tuple] | None = None
        self.samples: list[list[float]] = [[] for _ in queries]
        self.raw_samples: list[list[int]] = [[] for _ in queries]
        self.calibration: list[float] = []
        self.pass_totals: list[float] = []
        self.executions = 0
        self.mismatches = [0] * len(queries)
        self.output_bytes = 0

    def one_pass(self, tracer=None) -> float:
        run_cli = self.abcu.cli.run_cli
        results, times, kernel = [], [], []
        gc.collect()
        start = perf_counter()
        for i, query in enumerate(self.queries):
            if tracer is not None:
                tracer.query = i
            code, out, err, elapsed = _run_query(run_cli, query.argv)
            kernel.append(_calibration_ns())
            times.append(elapsed)
            self.output_bytes += len(out.encode("utf-8"))
            if self.first is None:
                results.append((code, out, err))
            elif (code, out) != self.first[i][:2]:
                self.mismatches[i] += 1
        seconds = perf_counter() - start
        self.calibration.append(statistics.median(kernel))
        total = 0.0
        for i, (elapsed, speed) in enumerate(zip(times, _rolling_median(kernel, KERNEL_WINDOW))):
            scaled = elapsed * CALIBRATION_NS / speed
            self.raw_samples[i].append(elapsed)
            self.samples[i].append(scaled)
            total += scaled
        self.pass_totals.append(total)
        self.executions += len(self.queries)
        if self.first is None:
            self.first = results
        return seconds


def _passes(runner: Runner, seconds: float, tracer=None, spent: float = 0.0) -> list[float]:
    """Full passes while the next one is expected to end within the budget."""
    times = []
    while True:
        times.append(runner.one_pass(tracer))
        if tracer is not None:
            tracer.record = False  # span records from the first traced pass only
        spent += times[-1]
        if spent + times[-1] > seconds:
            return times


def _summary(samples) -> tuple[list[float], float, float, float]:
    per_query_ms = [statistics.median(s) / 1e6 for s in samples]
    p90 = statistics.quantiles(per_query_ms, n=10, method="inclusive")[8]
    return (per_query_ms, statistics.median(per_query_ms), p90,
            len(per_query_ms) / (sum(per_query_ms) / 1e3))


def _end_to_end(runner: Runner, setup_s: float) -> tuple[dict, list[str]]:
    per_query_ms, p50, p90, qps = _summary(runner.samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
        "throughput_qps": (qps, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _, raw_p50, raw_p90, raw_qps = _summary(runner.raw_samples)
    extra = [
        f"raw_query_p50_ms {raw_p50:.6g} ms",
        f"raw_query_p90_ms {raw_p90:.6g} ms",
        f"raw_throughput_qps {raw_qps:.6g} 1/s",
        f"calibration_us {statistics.median(runner.calibration) / 1e3:.6g} us"
        f" (reference {CALIBRATION_NS / 1e3:g} us)",
    ]
    for family in FAMILIES:
        times = [t for q, t in zip(runner.queries, per_query_ms) if q.family == family]
        if times:
            extra.append(
                f"{family}_p50_ms {statistics.median(times):.6g} ms ({len(times)} queries)"
            )
    return metrics, extra


def _per_layer(tracer, runner: Runner, passes: int) -> dict:
    """Per-layer figures per traced pass; times scaled like query times.

    The traced passes are the last ``passes`` passes of the runner; the
    one before them is the untraced reference.
    """
    t = tracer
    scale = CALIBRATION_NS / statistics.median(runner.calibration[-passes:])

    def sec(*names: str) -> tuple[float, str]:
        return t.incl_s(*names) * scale / passes, "s/pass"

    def self_sec(layer: str) -> tuple[float, str]:
        return t.layer_self_s(layer) * scale / passes, "s/pass"

    def calls(*names: str) -> tuple[float, str]:
        return sum(t.calls[name] for name in names) / passes, "calls/pass"

    enumerated = t.items["model.enumerate_completions"]
    metrics = {
        "cli.run_cli.self_s": self_sec("cli"),
        "io.parse_profile.calls": calls("io.parse_profile"),
        "io.parse_profile.s": sec("io.parse_profile"),
        "io.serialize_result.s": sec("io.serialize_result"),
        "io.output_bytes": (runner.output_bytes / passes, "bytes/pass"),
        "model.validate_partial_profile.s": sec("model.validate_partial_profile"),
        "model.count_completions.calls": calls("model.count_completions"),
        "model.enumerate_completions.items": (enumerated / passes, "items/pass"),
        "model.enumerate_completions.s": sec("model.enumerate_completions"),
        "model.completions_visited_ratio": (enumerated / t.space if t.space else 0.0, "ratio"),
        "model.self_s": self_sec("model"),
        "rules.profile_score.calls": calls("rules.profile_score"),
        "rules.profile_score.s": sec("rules.profile_score"),
        "rules.winning_committees.calls": calls("rules.winning_committees"),
        "rules.winning_committees.s": sec("rules.winning_committees"),
        "rules.defeats.calls": calls("rules.defeats"),
        "rules.defeats.s": sec("rules.defeats"),
        "rules.self_s": self_sec("rules"),
    }
    routes = _route_counts(runner)
    for method in POSSIBLE_ROUTES + ("other",):
        metrics[f"possible.route.{method}.count"] = (routes["possible", method], "count/pass")
    metrics["possible.poscom_brute.s"] = sec("possible.poscom_brute")
    metrics["possible.self_s"] = self_sec("possible")
    metrics["necessary.max_diff_profile.calls"] = calls("necessary.max_diff_profile")
    metrics["necessary.max_diff_ballot.calls"] = calls("necessary.max_diff_ballot")
    metrics["necessary.max_diff_profile.s"] = sec("necessary.max_diff_profile")
    for method in NECESSARY_ROUTES + ("other",):
        metrics[f"necessary.route.{method}.count"] = (routes["necessary", method], "count/pass")
    metrics.update({
        "necessary.self_s": self_sec("necessary"),
        "representation.checks.calls": calls(
            "representation.check_jr", "representation.check_pjr", "representation.check_ejr"),
        "representation.check_jr.s": sec("representation.check_jr"),
        "representation.check_pjr.s": sec("representation.check_pjr"),
        "representation.check_ejr.s": sec("representation.check_ejr"),
        "representation.axiom_scan.s": sec(
            "representation.possible_axiom_by_scan", "representation.necessary_axiom_by_scan"),
        "representation.self_s": self_sec("representation"),
        "reductions.build.s": sec("reductions.build_cc_3va", "reductions.build_linear_x3c"),
        "reductions.self_s": self_sec("reductions"),
        "trace.overhead_ratio": (
            statistics.median(runner.pass_totals[-passes:]) / runner.pass_totals[-passes - 1],
            "ratio"),
    })
    return metrics


def _route_counts(runner: Runner) -> dict:
    """Routes named by the result documents of one pass, by module."""
    counts = {}
    for module, routes in (("possible", POSSIBLE_ROUTES), ("necessary", NECESSARY_ROUTES)):
        for method in routes + ("other",):
            counts[module, method] = 0
    owner = {"poscom": "possible", "posmem": "possible",
             "neccom": "necessary", "necmem": "necessary"}
    for query, (code, out, _err) in zip(runner.queries, runner.first):
        module = owner.get(query.family)
        if module is None or code not in (0, 1):
            continue
        method = json.loads(out).get("method")
        key = (module, method)
        counts[key if key in counts else (module, "other")] += 1
    return counts


def _verify(abcu, runner: Runner) -> tuple[int, list[str]]:
    """Failed executions, and one report line per failing query."""
    checker = checks.Checker(abcu)
    passes = len(runner.samples[0])
    failed = 0
    lines = []
    for i, (query, (code, out, err)) in enumerate(zip(runner.queries, runner.first)):
        reason = checker.verify(query, code, out, err)
        if reason is not None:
            failed += passes
            lines.append(f"FAILED {query.family} {' '.join(query.argv)}: {reason}")
        elif runner.mismatches[i]:
            failed += runner.mismatches[i]
            lines.append(f"FAILED {query.family} {' '.join(query.argv)}: output changed between passes")
    return failed, lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.pop("ABCU_CAP", None)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    try:
        try:
            abcu, workload, setup_s = _setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"bench: cannot import abcu from {SRC}: {exc}", file=sys.stderr)
            return 2
        queries = workload.queries
        runner = Runner(abcu, queries)
        for query in queries[:WARMUP_QUERIES]:
            _run_query(abcu.cli.run_cli, query.argv)

        tracer = None
        if args.trace:
            reference = runner.one_pass()
            runner.output_bytes = 0
            tracer = tracing.Tracer()
            modules = {name: module for name, module in sys.modules.items()
                       if name == "abcu" or name.startswith("abcu.")}
            tracer.install(modules)
            try:
                traced = _passes(runner, args.seconds, tracer, spent=reference)
            finally:
                tracer.uninstall()
            metrics = _per_layer(tracer, runner, len(traced))
            extra = []
        else:
            _passes(runner, args.seconds)
            metrics, extra = _end_to_end(runner, setup_s)

        failed, failures = _verify(abcu, runner)
        attempted = runner.executions
        digest = checks.answer_digest(queries, [r[:2] for r in runner.first])
        if tracer is not None:
            os.makedirs(outdir, exist_ok=True)
            tracer.write_spans(os.path.join(outdir, f"spans-{args.workload}-s{args.seed}.tsv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        print(line)
    passes = len(runner.samples[0])
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries x "
          f"{passes} passes, closed loop, one client, trace {args.trace}")
    print(f"answers_digest {digest}")
    print(f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in extra:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
