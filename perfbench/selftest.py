"""Self-test of the benchmark itself (not of omkit).

    python3 perfbench/selftest.py

Checks that the text-only references give the known corpus values, that
a tiny run of each workload prints every metric BENCHMARK.json names,
that a tampered report is counted as a failed job, that the known
`salvetti` defect is still there (an expected failure), and that the
benchmark refuses to run without the omkit sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from reference import Reference  # noqa: E402
from run import failures  # noqa: E402
from worker import run_cli, run_jobs  # noqa: E402
from workloads import Outcome, build_jobs, check_salvetti  # noqa: E402


def corpus_text(name: str) -> str:
    from omkit.corpus import corpus
    from omkit.omfile import format_system

    return format_system(corpus(name))


def scratch() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, like the benchmark's own."""
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-tmp")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ReferenceTest(unittest.TestCase):
    def test_sec3_invariants(self):
        ref = Reference.from_text(corpus_text("sec3-arrangement"))
        self.assertEqual(ref.rank, 3)
        self.assertEqual(ref.whitney, (1, 5, 8, 4))
        self.assertEqual(len(ref.topes), 18)
        self.assertEqual(ref.salvetti_cells, 148)
        self.assertEqual(ref.salvetti_pairs(frozenset({"H1", "H2", "H3"})), 120)
        self.assertTrue(ref.is_modular_coatom(frozenset({"H1", "H2", "H3"})))
        self.assertFalse(ref.is_modular_coatom(frozenset({"H2", "H4"})))

    def test_braid3_whitney(self):
        self.assertEqual(Reference.from_text(corpus_text("braid3")).whitney, (1, 6, 11, 6))


class TamperTest(unittest.TestCase):
    def test_wrong_betti_line_counts_as_failed(self):
        def tampered(argv, text):
            o = run_cli(argv, text)
            out = o.out.replace("betti: 1 5 ", "betti: 1 6 ", 1)
            return Outcome(o.status, out, o.err, o.seconds)

        with scratch() as tmp:
            jobs = build_jobs("betti", 3, Path(tmp), tiny=True)
            _wall, honest = run_jobs(jobs, run_cli)
            _wall, records = run_jobs(jobs, tampered)
        self.assertEqual(failures([{"jobs": honest}])[:2], (len(jobs), 0))
        # every job is a homology report, so every tampered one must fail
        self.assertEqual(failures([{"jobs": records}])[:2], (len(jobs), len(jobs)))


class KnownDefectTest(unittest.TestCase):
    """`salvetti` is left out of the timed job lists while
    SalvettiPoset.dimension_of returns the size of the zero set instead of
    the codimension (its cells_by_dim has a dimension above the rank and
    a nonzero alternating sum).  This test is expected to fail until that
    is fixed; once it passes, put `salvetti` back into the combinatorics
    job list (workloads.JobList.add_combinatorics)."""

    @unittest.expectedFailure
    def test_salvetti_reports_pass_their_check(self):
        problems = {}
        for name in ("non-pappus", "braid3", "sec3-arrangement", "boolean3", "uniform-2-3"):
            text = corpus_text(name)
            outcome = run_cli(["salvetti"], text)
            status, found = check_salvetti(outcome, {}, Reference.from_text(text))
            if outcome.status != status or found:
                problems[name] = found
        self.assertEqual(problems, {})


class RunTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_tiny_runs_print_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench("--workload", w["name"], "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertIn("failed_ratio", proc.stdout)

    def test_refuses_to_run_without_the_program(self):
        with scratch() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "betti", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
