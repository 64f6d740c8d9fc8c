"""One tiny traced perfbench pass per workload, run as perfbench stands,
in a subprocess: a refactor that breaks a name perfbench wraps, a job
sizer or a report check fails here before a benchmark run does."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["betti", "certify", "combinatorics"])
def test_a_tiny_traced_perfbench_pass_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--tiny", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout
