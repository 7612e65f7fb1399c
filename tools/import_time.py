"""What `import abcu.cli` costs, module by module, with bytecode cached.

Usage, from any directory:

    python3 tools/import_time.py --runs 15

Runs `python -X importtime -c "import abcu.cli"` against this checkout's
src/ in fresh child processes, one at a time: one warm-up run that
compiles and caches the bytecode, then --runs measured ones. Bytecode
goes to a temporary PYTHONPYCACHEPREFIX that is removed at the end, so
nothing is written into the checkout. Prints the min and median
cumulative microseconds of every abcu module that the import runs, and
of dataclasses and inspect ("-" when a run does not import them). The
abcu.cli line holds the package's import too, so it is the whole
`import abcu.cli`.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHED = ("dataclasses", "inspect")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("need at least one run")
    return value


def _cumulative_us(stderr: str) -> dict[str, int]:
    """Cumulative µs by module name, from one run's -X importtime lines."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():  # skips the header line
            times[name.strip()] = int(cumulative)
    return times


def _one_run(env: dict[str, str], cwd: str) -> dict[str, int]:
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import abcu.cli"],
        capture_output=True, text=True, env=env, cwd=cwd, check=True,
    )
    return _cumulative_us(result.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=_positive, default=15,
                        help="measured runs after the warm-up (default 15)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="abcu-importtime-") as scratch:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONPYCACHEPREFIX=scratch)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        _one_run(env, scratch)
        runs = [_one_run(env, scratch) for _ in range(args.runs)]
    names = [name for name in runs[0] if name.startswith("abcu")] + list(WATCHED)
    print(f"{'module':<20} {'min us':>9} {'median us':>10}   ({args.runs} runs)")
    for name in names:
        samples = [run[name] for run in runs if name in run]
        if len(samples) < len(runs):
            print(f"{name:<20} {'-':>9} {'-':>10}")
        else:
            print(f"{name:<20} {min(samples):>9} {statistics.median(samples):>10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
