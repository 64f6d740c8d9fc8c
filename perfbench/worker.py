"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '{"workload": "betti", "seed": 1, "tmpdir": "...",
                                  "trace": false, "tiny": false, "setup_only": false}'

run.py starts it and answers its probe requests.  Set-up (importing
omkit, generating the seeded arrangements, building the covector texts)
is timed first.  Then every job runs through `omkit.cli.main(argv)` in
this process, with stdin, stdout and stderr swapped for in-memory files,
and is checked against its reference before the next job starts.
Before and after set-up, between jobs at most once a second and after
the last job, the pass asks the process that started it to time its
host-speed probe: it writes a line `probe` to stdout and waits, with
its clock stopped, for the probe's time on stdin.  The numbers go to
stdout as one JSON line at the end.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from workloads import Job, Outcome, SkipJob, build_jobs  # noqa: E402

PROBE_EVERY_S = 1.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.  VmHWM counts this
    process's own pages only; ru_maxrss also holds the peak of the parent
    it was started from, which exec carries over."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ask_probe() -> float:
    """Have the parent time its probe while this process waits; returns
    the probe's time in seconds."""
    sys.__stdout__.write("probe\n")
    sys.__stdout__.flush()
    return float(sys.__stdin__.readline())


def run_cli(argv: list[str], text: str) -> Outcome:
    from omkit import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    start = perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse rejected argv
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaped exception is a crash of this job, not of the pass
        status = None
        err.write(traceback.format_exc())
    finally:
        seconds = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(status, out.getvalue(), err.getvalue(), seconds)


def run_jobs(jobs: list[Job], run=run_cli, probes: list[float] | None = None) -> tuple[float, list[dict]]:
    """Run and check every job; returns the wall time and one record per
    job.  Given a list, probes gets the host-speed probe times, taken
    before the first job, after the last and in between at most every
    PROBE_EVERY_S seconds, outside the timed segments."""
    ctx: dict[str, Outcome] = {}
    records = []
    wall = 0.0
    last_probe = -PROBE_EVERY_S
    last = perf_counter()
    for job in jobs:
        if probes is not None and last - last_probe >= PROBE_EVERY_S:
            probes.append(ask_probe())
            last = last_probe = perf_counter()
        try:
            argv, text, check = job.prepare(ctx)
        except SkipJob as exc:
            records.append({"name": job.name, "seconds": None, "segment_s": None, "problems": [str(exc)]})
            continue
        outcome = ctx[job.name] = run(argv, text)
        if outcome.status is None:
            problems = ["raised: " + outcome.err.strip().splitlines()[-1]]
        else:
            try:
                expected, problems = check(outcome, ctx)
            except Exception as exc:  # malformed report
                expected, problems = 0, [f"check raised {exc!r}"]
            if outcome.status != expected:
                problems.insert(0, f"exit status {outcome.status}, expected {expected}")
        now = perf_counter()
        # segment: from the previous verified verdict to this one
        records.append({"name": job.name, "seconds": outcome.seconds, "segment_s": now - last, "problems": problems})
        wall += now - last
        last = now
    if probes is not None:
        probes.append(ask_probe())
    for job in jobs:
        for path in job.files:
            path.unlink(missing_ok=True)
    return wall, records


def main(spec: dict) -> dict:
    tmpdir = Path(spec["tmpdir"])
    tmpdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    probes = [ask_probe()]
    start = perf_counter()
    import omkit  # noqa: F401  (timed: part of set-up)
    import omkit.cli  # noqa: F401

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = build_jobs(spec["workload"], spec["seed"], tmpdir, spec["tiny"])
    result = {"setup_s": perf_counter() - start, "probes": probes}
    # set-up is timed between the first two probes; in a pass, the second
    # is the one run_jobs takes before the first job
    if spec["setup_only"]:
        probes.append(ask_probe())
        return result
    if tracer is not None:
        tracer.phase = "jobs"
    wall_s, records = run_jobs(jobs, probes=probes)
    result.update(
        wall_s=wall_s,
        jobs=records,
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
