"""One digest over every benchmark query's exit code, stdout and stderr.

Usage, from any directory:

    python3 tools/stdout_digest.py --seeds 1-10

For each seed and each workload of bench/workloads.py, in that order, the
workload's documents are written to a fresh temporary directory outside
the checkout, and every query runs in process through abcu.cli.run_cli,
imported from this checkout's src/. Each query adds its exit code, stdout
and stderr to one SHA-256, in query order, with the temporary directory's
path replaced by a fixed token. Two checkouts whose digests are equal gave
byte-identical results on every query; the printed count says how many.
Above that last line, one line per workload gives the same digest and
count over that workload's queries alone, summed over the seeds, so a
difference names the workload it comes from.

bench/ is only read: no bytecode is written there, and nothing else.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOKEN = "<workdir>"


def _seeds(text: str) -> range:
    """The seeds of a range such as 1-10, or of one seed such as 3."""
    lo, _, hi = text.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _run(run_cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_cli(argv)
        except Exception as exc:  # a crash is an outcome to compare too
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="seeds to run, such as 1-10")
    args = parser.parse_args(argv)
    os.environ.pop("ABCU_CAP", None)
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from abcu.cli import run_cli
    import workloads

    digest = hashlib.sha256()
    per_workload = {name: [0, hashlib.sha256()] for name in workloads.WORKLOADS}
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            tally = per_workload[name]
            workdir = tempfile.mkdtemp(prefix="abcu-digest-")
            try:
                for query in workloads.build(name, seed, workdir).queries:
                    code, out, err = _run(run_cli, query.argv)
                    record = [code, out.replace(workdir, TOKEN), err.replace(workdir, TOKEN)]
                    line = json.dumps(record).encode() + b"\n"
                    digest.update(line)
                    tally[1].update(line)
                    tally[0] += 1
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    for name, (n, part) in per_workload.items():
        print(f"{name}: {n} queries sha256 {part.hexdigest()}")
    count = sum(n for n, _ in per_workload.values())
    print(f"{count} queries sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
