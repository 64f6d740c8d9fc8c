"""The three workloads as fixed job lists built from a seed.

A job is one `omkit` command: argv, the covector text it reads on stdin,
the exit status its reference predicts, and a check of its report
against `reference.Reference`, which is computed from the text alone.
Every job gets its own ground-set label prefix, so nothing keyed by
input can carry over from one job to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from arrangements import (
    GENERIC_6,
    ONE_QUADRUPLE_5,
    ONE_TRIPLE_6,
    TWO_TRIPLES_5,
    TWO_TRIPLES_6,
    draw,
    is_supersolvable,
)
from reference import Reference, relabel, report_fields


@dataclass
class Outcome:
    status: Optional[int]  # None when the command raised
    out: str
    err: str
    seconds: float


class SkipJob(Exception):
    """A job whose input comes from an earlier job that failed."""


@dataclass
class Job:
    name: str
    # ctx -> (argv, stdin text, check); ctx maps earlier job names to outcomes,
    # and check(outcome, ctx) returns (expected exit status, problems)
    prepare: Callable[[dict], tuple[list[str], str, Callable]]
    files: list[Path] = field(default_factory=list)


# -- checks, one per command -----------------------------------------------


def _verdict(out: str, want: bool = True) -> list[str]:
    got = report_fields(out).get("verdict")
    expected = "PASS" if want else "FAIL"
    return [] if got == expected else [f"verdict {got}, expected {expected}"]


def check_homology(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    f = report_fields(o.out)
    problems = _verdict(o.out)
    if f.get("betti.match_whitney") != "PASS":
        problems.append("betti.match_whitney not PASS")
    try:
        betti = tuple(int(x) for x in f["betti"].split())
    except (KeyError, ValueError):
        return 0, problems + ["no betti line"]
    if sum(betti) != len(ref.topes):
        problems.append(f"sum of betti {sum(betti)} != {len(ref.topes)} topes")
    if len(betti) < 2 or betti[1] != len(ref.ground):
        problems.append(f"b1 != {len(ref.ground)} elements")
    if betti[: len(ref.whitney)] != ref.whitney:
        problems.append(f"betti {betti} != whitney {ref.whitney}")
    return 0, problems


def check_certify(
    o: Outcome, ctx: dict, ref: Reference, flat: frozenset[str], sample: Optional[int]
) -> tuple[int, list[str]]:
    """sample None: exhaustive"""
    f = report_fields(o.out)
    problems = _verdict(o.out)
    if f.get("fiber_rank") != str(len(ref.ground) - len(flat)):
        problems.append(f"fiber_rank {f.get('fiber_rank')} != |E| - |X| = {len(ref.ground) - len(flat)}")
    total = ref.salvetti_pairs(flat)
    want = total if sample is None else min(sample, total)
    if f.get("pairs") != str(want):
        problems.append(f"pairs {f.get('pairs')} != {want}")
    return 0, problems


def check_extend(o: Outcome, ctx: dict, ref: Reference, out_file: Path) -> tuple[int, list[str]]:
    problems = _verdict(o.out)
    if not out_file.exists():
        return 0, problems + ["no --out file"]
    ext = Reference.from_text(out_file.read_text())
    keep = [ext.ground.index(lab) for lab in ref.ground if lab in ext.ground]
    if len(keep) != len(ref.ground):
        return 0, problems + ["input labels missing from the extension"]
    if {"".join(r[i] for i in keep) for r in ext.rows} != set(ref.rows):
        problems.append("dropping the new columns does not give the input")
    return 0, problems


def check_axioms(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    return 0, _verdict(o.out)


def check_lattice(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    problems = _verdict(o.out)
    whitney = tuple(int(x) for x in report_fields(o.out).get("whitney", "").split())
    if len(whitney) < 2 or whitney[1] != len(ref.ground):
        problems.append(f"whitney {whitney}: second entry != {len(ref.ground)}")
    elif whitney != ref.whitney:
        problems.append(f"whitney {whitney} != {ref.whitney}")
    return 0, problems


def check_modular(o: Outcome, ctx: dict, ref: Reference, flat: frozenset[str]) -> tuple[int, list[str]]:
    want = ref.rank < 3 or ref.is_modular_coatom(flat)
    return (0 if want else 1), _verdict(o.out, want)


def check_supersolvable(o: Outcome, ctx: dict, ref: Reference, modular_jobs: list[str]) -> tuple[int, list[str]]:
    want = ref.rank < 3 or any(ref.is_modular_coatom(x) for x in ref.flats_of_rank(ref.rank - 1))
    some_modular = any(
        report_fields(ctx[name].out).get("verdict") == "PASS" for name in modular_jobs if name in ctx
    )
    problems = _verdict(o.out, want)
    if (report_fields(o.out).get("verdict") == "PASS") != some_modular:
        problems.append("verdict disagrees with the modular jobs")
    return (0 if want else 1), problems


def check_topes(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    rows = Reference.from_text(o.out).rows
    if frozenset(rows) != ref.topes or len(rows) != len(ref.topes):
        return 0, [f"{len(rows)} topes listed, {len(ref.topes)} expected"]
    return 0, []


def check_shelling(o: Outcome, ctx: dict, ref: Reference, base: str) -> tuple[int, list[str]]:
    problems = _verdict(o.out)
    order = report_fields(o.out).get("order", "").split()
    if sorted(order) != sorted(ref.topes) or not order or order[0] != base:
        problems.append("order is not the topes starting at the base")
    return 0, problems


def check_salvetti(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    f = report_fields(o.out)
    problems = _verdict(o.out)
    if f.get("cells") != str(ref.salvetti_cells):
        problems.append(f"cells {f.get('cells')} != {ref.salvetti_cells} conformal pairs")
    by_dim = [tuple(map(int, item.split(":"))) for item in f.get("cells_by_dim", "").split()]
    if any(d > ref.rank for d, _n in by_dim):
        problems.append(f"cells_by_dim {f.get('cells_by_dim')} has dimension > rank {ref.rank}")
    euler = sum((-1) ** d * n for d, n in by_dim)
    if euler != 0:
        problems.append(f"cells_by_dim alternating sum {euler} != 0")
    return 0, problems


def check_morse(o: Outcome, ctx: dict, ref: Reference) -> tuple[int, list[str]]:
    f = report_fields(o.out)
    problems = _verdict(o.out)
    # every covector of the dual ball is matched or critical
    try:
        cells = 2 * int(f["pairs"]) + int(f["critical"])
    except (KeyError, ValueError):
        return 0, problems + ["no pairs/critical lines"]
    if cells != len(ref.rows):
        problems.append(f"2*pairs + critical = {cells} != {len(ref.rows)} cells")
    return 0, problems


# -- job lists ---------------------------------------------------------------


class JobList:
    """Builds jobs with consecutive ground-label prefixes j0_, j1_, ..."""

    def __init__(self, tmpdir: Path):
        self.jobs: list[Job] = []
        self.tmpdir = tmpdir

    def _next(self, name: str) -> tuple[str, str]:
        """The next job's name and label prefix."""
        return f"{name}#{len(self.jobs)}", f"j{len(self.jobs)}_"

    def add(self, name: str, argv: list[str], text: str, check, **params) -> str:
        """A job on a fixed input.  A frozenset param is a flat: it is
        relabelled and fills the "{flat}" placeholder in argv."""
        name, prefix = self._next(name)
        job_text = relabel(text, "", prefix)
        for key, value in params.items():
            if isinstance(value, frozenset):
                params[key] = frozenset(prefix + lab for lab in value)
        flat = params.get("flat")
        args = [a.replace("{flat}", ",".join(sorted(flat))) if flat else a for a in argv]
        bound = partial(check, ref=Reference.from_text(job_text), **params)
        self.jobs.append(Job(name, lambda ctx: (args, job_text, bound)))
        return name

    def add_extend_then_certify(self, name: str, text: str, sample: int) -> None:
        """extend-ss --out, then a sampled certificate at the lifted modular
        coatom read from the extension's mchain line."""
        out_file = self.tmpdir / f"extend{len(self.jobs)}.om"
        ext_prefix = self._next(name)[1]
        ext_name = self.add(f"extend-ss {name}", ["extend-ss", "--out", str(out_file)], text, check_extend, out_file=out_file)
        self.jobs[-1].files.append(out_file)
        job_name, prefix = self._next(f"certify-qf {name}")

        def prepare(ctx: dict):
            mchain = report_fields(ctx[ext_name].out).get("mchain", "") if ext_name in ctx else ""
            if not mchain or not out_file.exists():
                raise SkipJob(f"{ext_name} gave no extension")
            coatom = [prefix + lab.removeprefix(ext_prefix) for lab in mchain.split(" < ")[-2].split(",")]
            job_text = relabel(out_file.read_text(), ext_prefix, prefix)
            argv = ["certify-qf", "--flat", ",".join(coatom), "--sample", str(sample)]
            check = partial(check_certify, ref=Reference.from_text(job_text), flat=frozenset(coatom), sample=sample)
            return argv, job_text, check

        self.jobs.append(Job(job_name, prepare))

    def add_combinatorics(self, name: str, text: str) -> None:
        ref = Reference.from_text(text)
        self.add(f"check-axioms {name}", ["check-axioms"], text, check_axioms)
        self.add(f"topes {name}", ["topes"], text, check_topes)
        self.add(f"lattice {name}", ["lattice"], text, check_lattice)
        modular = [
            self.add(f"modular {name}", ["modular", "{flat}"], text, check_modular, flat=f)
            for f in ref.flats_of_rank(2)
        ]
        self.add(f"supersolvable {name}", ["supersolvable"], text, check_supersolvable, modular_jobs=modular)
        base = sorted(ref.topes)[0]
        self.add(f"shelling {name}", ["shelling", "--base", base], text, check_shelling, base=base)
        # `salvetti` is left out of the timed list while its report has the
        # known cells_by_dim defect (see DESIGN.md "Known defect"); the
        # self-test runs it against check_salvetti on every corpus input.
        halfspace = ",".join(sorted(t for t in ref.topes if t[0] == "+"))
        self.add(f"morse {name}", ["morse", "--construction", "convex", "--topes", halfspace], text, check_morse)


@dataclass(frozen=True)
class Workload:
    name: str
    pass_s: float  # share of --seconds budgeted per pass (2-core x86 host)
    min_passes: int

    def passes(self, seconds: float) -> int:
        """A fixed pass count for a given --seconds, so every run of a
        workload pools the same number of job samples."""
        return max(self.min_passes, round(seconds / self.pass_s))


WORKLOADS = {
    "betti": Workload("betti", 15.0, 2),
    "certify": Workload("certify", 14.0, 3),
    "combinatorics": Workload("combinatorics", 3.75, 5),
}


def build_jobs(workload: str, seed: int, tmpdir: Path, tiny: bool) -> list[Job]:
    """Generate the seeded inputs and the workload's job list.

    This is the benchmark's set-up: it imports omkit, runs
    from_arrangement on every generated arrangement and on the corpus
    members, and renders them as covector text.
    """
    from omkit.corpus import corpus
    from omkit.matroids import RationalArrangement, from_arrangement
    from omkit.omfile import format_system

    rng = random.Random(seed)

    def seeded(kind) -> str:
        rows = draw(rng, kind)
        if kind == TWO_TRIPLES_6 and is_supersolvable(rows):
            raise AssertionError("a two-triple 6-form arrangement is never supersolvable")
        labels = [f"H{i + 1}" for i in range(len(rows))]
        return format_system(from_arrangement(RationalArrangement(labels, rows)))

    def member(name: str) -> str:
        return format_system(corpus(name))

    # Corpus members come first: the largest fixed input then sets the
    # pass's peak memory on a fresh heap, whatever the seeded inputs are.
    jobs = JobList(tmpdir)
    if workload == "betti":
        members = ["sec3-arrangement"] if tiny else ["braid3", "sec3-arrangement"]
        kinds = [ONE_QUADRUPLE_5] if tiny else 10 * [TWO_TRIPLES_5]
        inputs = [(m, member(m)) for m in members]
        inputs += [(f"gen{i}", seeded(k)) for i, k in enumerate(kinds)]
        for name, text in inputs:
            jobs.add(f"homology {name}", ["homology"], text, check_homology)
    elif workload == "certify":
        if not tiny:
            jobs.add_extend_then_certify("non-pappus", member("non-pappus"), sample=1)
            braid = member("braid3")
            ref = Reference.from_text(braid)
            coatom = next(x for x in ref.flats_of_rank(2) if ref.is_modular_coatom(x))
            jobs.add(
                "certify-qf braid3",
                ["certify-qf", "--flat", "{flat}", "--exhaustive"],
                braid,
                check_certify,
                flat=coatom,
                sample=None,
            )
        jobs.add(
            "certify-qf sec3-arrangement",
            ["certify-qf", "--flat", "{flat}", "--exhaustive"],
            member("sec3-arrangement"),
            check_certify,
            flat=frozenset({"H1", "H2", "H3"}),
            sample=None,
        )
        for i in range(1 if tiny else 2):
            jobs.add_extend_then_certify(f"gen{i}", seeded(TWO_TRIPLES_6), sample=6)
    elif workload == "combinatorics":
        members = ["uniform-2-3", "sec3-arrangement"] if tiny else [
            "non-pappus", "braid3", "sec3-arrangement", "boolean3", "uniform-2-3"
        ]
        kinds = [TWO_TRIPLES_6] if tiny else 2 * [GENERIC_6, ONE_TRIPLE_6, TWO_TRIPLES_6]
        inputs = [(m, member(m)) for m in members]
        inputs += [(f"gen{i}", seeded(k)) for i, k in enumerate(kinds)]
        for name, text in inputs:
            jobs.add_combinatorics(name, text)
    else:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return jobs.jobs
