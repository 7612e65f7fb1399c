"""Byte identity of every benchmark query's output, pinned.

tools/stdout_digest.py runs each query of the benchmark workloads for
seed 1 in process and prints one SHA-256 over every exit code, stdout and
stderr. The pin below is that digest for the current outputs. A change
meant to alter some output updates the pin, and says in CHANGES.md which
outputs changed and why; any other change must leave it as it is.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PIN = "522 queries sha256 29c1f854b86ae041f9e285a7d70a341e84b2e1171a5f00d210a1c465bac5f719"


def _tree(top):
    return sorted(
        os.path.join(path, name)
        for path, dirs, files in os.walk(top)
        for name in dirs + files
    )


def test_benchmark_outputs_match_the_pinned_digest():
    bench = os.path.join(ROOT, "bench")
    before = _tree(bench)
    done = subprocess.run(
        [sys.executable, "-B", os.path.join(ROOT, "tools", "stdout_digest.py"), "--seeds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == PIN
    assert _tree(bench) == before
