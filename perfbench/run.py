"""Time to verified verdicts of the omkit CLI on seeded workloads.

    python3 perfbench/run.py --workload betti --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports omkit from `src/`).
Each pass runs in a fresh interpreter (`worker.py`): it sets up the
seeded inputs, then runs the workload's jobs one after another through
`omkit.cli.main(argv)` and checks every report against a reference
computed from the input text alone.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a pass with spans around each module's entry points, next to an
untraced pass for the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Times are reported at a
reference host speed, measured by a probe that this process times
whenever a worker asks for it (see DESIGN.md, "Host speed").  See
DESIGN.md also for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 5
# The probe time that defines the reference speed; about the median of
# probe() on the 2-core shared x86 host (Python 3.11.7) the benchmark was
# tuned on.  Times are reported at that speed.
PROBE_REF_S = 0.14

sys.path.insert(0, str(HERE))
from tracing import CALLS, SIZES, SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPANS}
    units.update({name: "count" for name in [*CALLS.values(), *SIZES]})
    units["extensions.accept_ratio"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.uncovered_s": "s", "trace.overhead_s": "s"})
    return units


def probe() -> float:
    """Seconds taken by a fixed pure-Python workload shaped like omkit's:
    many live frozensets in a dict (an order complex), sparse dict-of-dict
    columns (a boundary matrix) and a keyed sort, with a working set of
    about 14 MB.  It does not touch omkit, so no change to the program
    moves it; only the speed of the shared host does.  It runs in this
    process while the measuring one waits, so it takes no share of that
    process's memory or caches."""
    start = time.perf_counter()
    faces: dict[frozenset, int] = {}
    for i in range(18000):
        face = frozenset((f"v{i % 211}", f"v{(i * 7) % 223}", i % 5, i % 17))
        faces[face] = faces.get(face, 0) + 1
    columns = {i: {j: 1 for j in range(i % 7)} for i in range(9000)}
    sorted(faces, key=lambda f: sorted(map(str, f)))
    del columns
    return time.perf_counter() - start


class Deadline(Exception):
    pass


def raise_deadline():
    raise Deadline(f"run took longer than {DEADLINE_S} s")


class Runner:
    """Starts worker processes for one run, times the probes they ask
    for, and keeps them inside the deadline."""

    def __init__(self, args, tmpdir: Path):
        self.args = args
        self.tmpdir = tmpdir
        self.started = time.monotonic()
        self.count = 0
        # A fixed hash seed: set and dict orders, and with them the pairs that
        # `certify-qf --sample` draws and the pivot order of a reduction,
        # then depend on the input text alone.  --seed varies the inputs.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        # The workers inherit this process's CPU: a worker and the probes
        # that scale its times then run on the same CPU, one after another.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def __call__(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "tmpdir": str(self.tmpdir / f"pass{self.count}"),
            "trace": trace,
            "tiny": self.args.tiny,
            "setup_only": setup_only,
        }
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise_deadline()
        err_path = self.tmpdir / f"worker{self.count}.err"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
            )
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            last = ""
            for line in proc.stdout:
                if line == "probe\n":
                    proc.stdin.write(f"{probe()!r}\n")
                    proc.stdin.flush()
                else:
                    last = line
            status = proc.wait()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if status != 0:
            raise RuntimeError(f"worker exited with {status}:\n{err_path.read_text()}")
        return json.loads(last)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value): the (n - 10)-th smallest of n samples."""
    ordered = sorted(samples)
    k = max(len(ordered) - 10, 1)
    return 100 * k / len(ordered), ordered[k - 1]


def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    records = [r for p in passes for r in p["jobs"]]
    failed = [r for r in records if r["problems"]]
    first = {}
    for r in failed:
        first.setdefault(r["name"], "; ".join(r["problems"]))
    return len(records), len(failed), [f"FAIL {n}: {why}" for n, why in first.items()]


def at_ref(seconds: float, process: dict) -> float:
    """A time measured in a worker process, at the reference speed: scaled
    by the median of the probes timed while that process ran.  The shared
    host's speed drifts by a third and more within minutes, and one
    process runs uniformly faster or slower than the next; the probes,
    on the same CPU, track both."""
    return seconds * PROBE_REF_S / statistics.median(process["probes"])


def median_wall(passes: list[dict], scaled: bool) -> float:
    """The median pass wall, estimated job by job: the sum over jobs of the
    median across passes of each job's segment (previous verdict to its
    own), so a pass that a fast or slow spell overlapped in part does not
    set it."""
    segments: dict[str, list[float]] = {}
    for p in passes:
        for r in p["jobs"]:
            seconds = r["segment_s"] or 0.0
            segments.setdefault(r["name"], []).append(at_ref(seconds, p) if scaled else seconds)
    return sum(statistics.median(s) for s in segments.values())


def end_to_end(run: Runner, passes_wanted: int) -> tuple[dict, list[dict], list[str]]:
    run(setup_only=True)  # warm-up: byte-compile and fill the file cache, not measured
    passes, setups = [], []
    extra = SETUP_SAMPLES - passes_wanted
    for i in range(max(passes_wanted, extra)):
        # set-up-only samples are spread between the passes, like the passes' own
        if i < passes_wanted:
            passes.append(run())
            setups.append(passes[-1])
        if i < extra:
            setups.append(run(setup_only=True))
    raw_latencies = [r["seconds"] for p in passes for r in p["jobs"] if r["seconds"] is not None]
    _pct, raw_tail = tail(raw_latencies)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": median_wall(passes, scaled=False),
        "job_p50_ms": 1000 * statistics.median(raw_latencies),
        "job_tail_ms": 1000 * raw_tail,
    }
    latencies = [at_ref(r["seconds"], p) for p in passes for r in p["jobs"] if r["seconds"] is not None]
    pct, tail_s = tail(latencies)
    values = {
        "setup_s": statistics.median(at_ref(s["setup_s"], s) for s in setups),
        "wall_s": median_wall(passes, scaled=True),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    probes = [t for s in setups for t in s["probes"]]
    speed = PROBE_REF_S / statistics.median(probes)
    n = len(latencies)
    lines = [
        f"host speed   {speed:.4f} x reference: median of {len(probes)} probes of {statistics.median(probes) * 1000:.2f} ms"
        f" (reference {PROBE_REF_S * 1000:.1f} ms); times below are at reference speed, each scaled by the median"
        " probe of its process, as measured in brackets",
        f"setup_s      {values['setup_s']:.4f} s   ({raw['setup_s']:.4f})  median of {len(setups)} set-ups (import omkit, seeded generation, input texts)",
        f"wall_s       {values['wall_s']:.4f} s   ({raw['wall_s']:.4f})  first job to last verified verdict: sum of per-job medians over {len(passes)} passes"
        f" (median pass wall {statistics.median(p['wall_s'] for p in passes):.4f} s as measured)",
        f"job_p50_ms   {values['job_p50_ms']:.3f} ms  ({raw['job_p50_ms']:.3f})  median of {n} jobs",
        f"job_tail_ms  {values['job_tail_ms']:.3f} ms  ({raw['job_tail_ms']:.3f})  p{pct:.1f} of {n} jobs ({n - round(pct * n / 100)} beyond)",
        f"peak_rss_mb  {values['peak_rss_mb']:.2f} MB  median over passes of VmHWM",
    ]
    return values, passes, lines


def per_layer(run: Runner) -> tuple[dict, list[dict], list[str]]:
    run(setup_only=True)  # warm-up, as for the end-to-end passes
    plain = run()
    traced = run(trace=True)
    t = traced["trace"]
    wall = traced["wall_s"]
    values = {f"{name}_s": t["self_s"][name] for name in SPANS}
    values["matroids.from_arrangement_s"] = t["from_arrangement_setup_s"]
    values.update({metric: t["calls"].get(span, 0) for span, metric in CALLS.items()})
    values.update({name: t["counts"].get(name, 0) for name in SIZES})
    cand = values["extensions.candidates"]
    values["extensions.accept_ratio"] = values["extensions.accepted"] / cand if cand else 0.0
    values.update({"trace.wall_s": wall, "trace.uncovered_s": t["uncovered_s"], "trace.overhead_s": wall - plain["wall_s"]})
    span_sum = sum(t["self_s"].values())
    lines = ["per-layer self time in the traced pass (share of traced wall):"]
    for name in sorted(SPANS, key=lambda n: -t["self_s"][n]):
        lines.append(f"  {name + '_s':30s} {t['self_s'][name]:9.4f} s  {100 * t['self_s'][name] / wall:5.1f}%  calls {t['calls'].get(name, 0)}")
    lines.append(f"  matroids.from_arrangement_s    {values['matroids.from_arrangement_s']:9.4f} s  in set-up, outside the traced wall")
    by_module: dict[str, float] = {}
    for name in SPANS:
        by_module[name.split(".")[0]] = by_module.get(name.split(".")[0], 0.0) + t["self_s"][name]
    lines.append("  by module: " + ", ".join(f"{m} {100 * s / wall:.1f}%" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])))
    lines.append(
        f"sum check: span self times {span_sum:.4f} s + uncovered {t['uncovered_s']:.4f} s"
        f" = {span_sum + t['uncovered_s']:.4f} s; traced wall {wall:.4f} s"
    )
    lines.append(
        "stage split (ROADMAP baseline stages): "
        f"Salvetti build {values['salvetti.build_s']:.3f} s, order complex {values['posets.order_complex_s']:.3f} s, "
        f"chain complex {values['homology.chain_complex_s']:.3f} s, reduction {values['homology.reduce_s']:.3f} s"
    )
    lines.append(f"tracing overhead: traced wall {wall:.3f} s - untraced wall {plain['wall_s']:.3f} s = {values['trace.overhead_s']:.3f} s ({t['spans']} spans)")
    lines.append("sizes: " + ", ".join(f"{name} {values[name]}" for name in SIZES))
    return values, [plain, traced], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest job lists, one pass (self-test)")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: Runner kills and reaps the running worker,
    # and the finally clause below removes the temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, lambda *_: raise_deadline())

    if not (ROOT / "src" / "omkit" / "__init__.py").is_file():
        print(f"perfbench: no omkit sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    passes_wanted = 1 if args.tiny else workload.passes(args.seconds)

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Runner(args, tmpdir)
        if args.trace:
            metrics, passes, lines = per_layer(run)
            units = per_layer_units()
        else:
            metrics, passes, lines = end_to_end(run, passes_wanted)
            units = END_TO_END
        attempted, failed, failed_lines = failures(passes)
    except (RuntimeError, Deadline, OSError) as exc:  # OSError: a worker that died mid-request
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    kind = "an untraced and a traced pass" if args.trace else f"{len(passes)} passes"
    print(
        f"perfbench {args.workload}: seed {args.seed}, {kind} of {len(passes[0]['jobs'])} jobs, "
        f"python {sys.version.split()[0]}, nproc {os.cpu_count()}"
    )
    for line in lines + failed_lines:
        print(line)
    print(f"failed_ratio {failed / attempted:.4f}    {failed} failed of {attempted} attempted jobs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
