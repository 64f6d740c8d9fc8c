"""Command-line driver.

Commands read a covector file on stdin (or --input) and write either a
covector file or a report to stdout; the exit status is zero exactly
when every clause of the report passed, 1 when a clause failed, 2 on bad
input or a file that cannot be read or written, and 3 when an internal
invariant breaks.  `corpus` and
`from-arrangement` produce covector files, so commands compose as
pipelines.

The parser is built once per process, on the first `main` call; a command
`name` runs `cmd_<name>` ("-" read as "_"), looked up when it runs.

The library takes flats as ground-bit masks; their text, labels joined
by commas in ground order with "{}" for the empty flat, is parsed only
here and rendered by `matroids.flat_id`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .corpus import CORPUS_NAMES, corpus
from .homology import (
    PairEvidence,
    chain_complex,
    homology,
    quasi_fibration_certify,
    salvetti_betti_match_whitney,
    semidirect_rank_sequence,
)
from .lattices import build_lattice
from .matroids import CovectorSystem, RationalArrangement, flat_id, from_arrangement
from .morse import (
    certify_fibers,
    check_patchwork,
    collapse_ball,
    matching_convex_critical,
    matching_salvetti_fiber,
    morse_reduction_certificate,
)
from .omfile import (
    Report,
    format_system,
    format_topes,
    parse_matrix_text,
    parse_om_text,
)
from .posets import bits, mask_of
from .salvetti import SalvettiPoset, salvetti_localization, stratify_fiber
from .topes import (
    dual_subcomplex,
    shelling_order_from_extension,
    sphere_poset,
    verify_shelling,
)


def _read_system(args) -> CovectorSystem:
    if args.input and args.input != "-":
        text = Path(args.input).read_text()
    else:
        text = sys.stdin.read()
    return parse_om_text(text).to_system()


def parse_flat(text: str, system: CovectorSystem) -> int:
    """The ground-bit mask of a flat's text; the library checks flatness."""
    text = text.strip()
    if text in ("{}", ""):
        return 0
    return system.label_mask(t.strip() for t in text.split(","))


def _covector(system: CovectorSystem, text: str) -> int:
    """The covector number of a sign text; the library checks for topes."""
    try:
        v = system.vector(text)
    except ValueError as exc:
        raise ValueError(f"{text!r} is not a covector: {exc}") from None
    x = system.numbering().get(v)
    if x is None:
        raise ValueError(f"{text!r} is not a covector")
    return x


def _cell(salv: SalvettiPoset, text: str) -> int:
    """The number of a cell of a localized Salvetti poset, from its id
    "(sigma;T)": the covector numbers of its sign texts (a malformed one
    raises), looked up as a pair in the poset's `index`."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        face, tope = body.split(";")
    except ValueError:
        raise ValueError(f"malformed cell id {text!r}") from None
    k = salv.index.get(tuple(salv.system.numbering().get(salv.system.vector(part)) for part in (face, tope)))
    if k is None:
        raise ValueError(f"unknown cell {f'({face};{tope})'!r} of the localized poset")
    return k


def _emit(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _finish(report: Report) -> int:
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    return _emit(format_system(corpus(args.name)))


def cmd_from_arrangement(args) -> int:
    rows = parse_matrix_text(Path(args.matrix).read_text())
    labels = tuple(f"H{i + 1}" for i in range(len(rows)))
    return _emit(format_system(from_arrangement(RationalArrangement(labels, rows))))


def cmd_check_axioms(args) -> int:
    system = _read_system(args)
    report = Report("check-axioms")
    report.note("ground", " ".join(system.ground))
    report.note("covectors", len(system))
    for key, check in system.check_axioms().items():
        report.add(key, check.passed, check.witness)
    return _finish(report)


def cmd_simplify(args) -> int:
    system = _read_system(args)
    result = system.simplify()
    reps = ",".join(f"{lab}->{rep}" for lab, rep in result.representative.items())
    sys.stderr.write(f"# loops: {','.join(result.loops) or '(none)'}; representatives: {reps or '(none)'}\n")
    return _emit(format_system(result.system))


def cmd_topes(args) -> int:
    system = _read_system(args)
    return _emit(format_topes(system))


def cmd_lattice(args) -> int:
    system = _read_system(args)
    lat = build_lattice(system)
    report = Report("lattice")
    report.note("rank", lat.rank())
    report.note("whitney", " ".join(map(str, lat.whitney())))
    for r in range(lat.rank() + 1):
        flats = [
            f"{flat_id(f, system.ground)} (mu {lat.mobius[f]})" for f in lat.flats_of_rank(r)
        ]
        report.note(f"flats.rank{r}", "; ".join(flats))
    topes = system.topes().bit_count()
    report.add("zaslavsky.topes", sum(lat.whitney()) == topes, f"{sum(lat.whitney())} != {topes}")
    return _finish(report)


def cmd_modular(args) -> int:
    system = _read_system(args)
    lat = build_lattice(system)
    x = parse_flat(args.flat, system)
    check = lat.is_modular_flat(x)
    report = Report("modular")
    report.note("flat", flat_id(x, system.ground))
    report.add("modular", check.ok, check.witness_text(system.ground))
    return _finish(report)


def cmd_supersolvable(args) -> int:
    system = _read_system(args)
    lat = build_lattice(system)
    chain = lat.is_supersolvable()
    report = Report("supersolvable")
    if chain is not None:
        report.note("mchain", " < ".join(flat_id(f, system.ground) for f in chain))
    report.add("supersolvable", chain is not None, "no maximal chain of modular flats")
    return _finish(report)


def cmd_shelling(args) -> int:
    system = _read_system(args)
    order = shelling_order_from_extension(system, _covector(system, args.base))
    poset = sphere_poset(system)
    if not poset.members:
        raise ValueError("the covector sphere is empty: a rank-0 system has nothing to shell")
    check = verify_shelling(poset, order)
    report = Report("shelling")
    report.note("base", args.base)
    report.note("order", " ".join(poset.names[c] for c in order))
    report.add("shelling.verified", check.ok, check.witness)
    return _finish(report)


def cmd_salvetti(args) -> int:
    system = _read_system(args)
    s = SalvettiPoset(system)
    report = Report("salvetti")
    report.note("cells", len(s))
    report.note("height", s.poset.height())
    heights, rank = s.poset.heights(), system.rank()
    by_dim: dict[int, int] = {}
    for d in heights.values():
        by_dim[d] = by_dim.get(d, 0) + 1
    report.note("cells_by_dim", " ".join(f"{d}:{n}" for d, n in sorted(by_dim.items())))
    # every maximal cell, not only the highest, has the dimension of the rank
    low = [c for c in bits(s.poset.maximal_elements()) if heights[c] != rank]
    witness = low and f"maximal cell {s.poset.names[low[0]]} has height {heights[low[0]]} != rank {rank}"
    report.add("pure", not low, witness or None)
    return _finish(report)


def cmd_localize(args) -> int:
    system = _read_system(args)
    x = parse_flat(args.flat, system)
    loc, _rho = system.localization(x)
    return _emit(format_system(loc))


def cmd_fiber(args) -> int:
    system = _read_system(args)
    x = parse_flat(args.flat, system)
    loc = salvetti_localization(system, x)
    cell = _cell(loc.target, args.cell)
    # the fiber is an ideal of the source, by the localization's order check
    fiber = loc.fiber(cell)
    res = homology(chain_complex(loc.source, fiber))
    # b0 and b1, then the higher Betti numbers up to the last nonzero one
    betti = [*res.betti, 0, 0]
    while len(betti) > 2 and betti[-1] == 0:
        betti.pop()
    betti = tuple(betti)
    names = loc.target.poset.names
    report = Report("fiber")
    report.note("flat", flat_id(x, system.ground))
    report.note("cell", names[cell])
    report.note("size", len(fiber))
    report.note("betti", " ".join(map(str, betti)))
    # the paper's claim: a wedge of one circle per element outside the flat
    d = len(system.ground) - x.bit_count()
    report.add("fibers.homology", betti == (1, d) and res.is_torsion_free(), f"{names[cell]}: {betti}")
    return _finish(report)


def cmd_stratify(args) -> int:
    system = _read_system(args)
    x = parse_flat(args.flat, system)
    loc = salvetti_localization(system, x)
    strat = stratify_fiber(loc, _covector(loc.localized, args.tope))
    sizes = " ".join(str(len(lift)) for lift in check_patchwork(strat))
    names = system.covector_poset().names
    report = Report("stratify")
    report.note("flat", flat_id(x, system.ground))
    report.note("base", args.tope)
    report.note("string", " < ".join(names[t] for t in strat.tope_string))
    for i, s in enumerate(strat.separators):
        report.note(f"separator.{i}", flat_id(s, system.ground))
    report.note("strata_sizes", sizes)
    return _finish(report)


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(
            "missing arguments: " + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def cmd_morse(args) -> int:
    system = _read_system(args)
    report = Report(f"morse.{args.construction}")
    if args.construction == "shelling":
        _require(args, ["base"])
        order = shelling_order_from_extension(system, _covector(system, args.base))
        # collapse the ball left of the last cell: use all topes but one
        matching, vertex = collapse_ball(system, order[:-1])
        cert = morse_reduction_certificate(matching, 1 << vertex)
        critical, clause = matching.host.names[vertex], "critical.single_vertex"
    elif args.construction == "convex":
        _require(args, ["topes"])
        q = mask_of(_covector(system, t) for t in args.topes.split(","))
        matching = matching_convex_critical(system, q)
        cert = morse_reduction_certificate(matching, dual_subcomplex(system, q))
        critical, clause = matching.critical_cells().bit_count(), "critical.is_subcomplex"
    else:
        _require(args, ["flat", "cell", "tope"])
        x = parse_flat(args.flat, system)
        loc = salvetti_localization(system, x)
        cell = _cell(loc.target, args.cell)
        strat = stratify_fiber(loc, _covector(loc.localized, args.tope))
        matching = matching_salvetti_fiber(strat, cell)
        cert = certify_fibers(strat, [cell])[cell]
        critical, clause = matching.critical_cells().bit_count(), "critical.is_fiber"
    names = matching.host.names
    report.note("pairs", len(matching.pairs))
    report.note("critical", critical)
    report.add("matching.acyclic", cert.cycle is None, cert.cycle and str([names[x] for x in cert.cycle]))
    report.add(clause, cert.critical is None, cert.critical)
    sys.stdout.write(matching.serialize() + "\n")
    return _finish(report)


def cmd_homology(args) -> int:
    check = salvetti_betti_match_whitney(_read_system(args))
    report = Report("homology")
    report.note("betti", " ".join(map(str, check.homology.betti)))
    report.note(
        "torsion",
        "; ".join(",".join(map(str, t)) or "-" for t in check.homology.torsion),
    )
    torsion = "".join(
        f"; torsion in dimension {k}: {','.join(map(str, t))}"
        for k, t in enumerate(check.homology.torsion)
        if t
    )
    report.add(
        "betti.match_whitney",
        check.ok,
        f"betti {check.betti} vs whitney {check.whitney}{torsion}",
    )
    return _finish(report)


def _pair_failures(pair: PairEvidence, names: tuple[str, ...], cells: tuple[str, ...]) -> str:
    """`a <= b: ` and the pair's failed matchings, each with its
    certificate's witnesses, its cycle over the source cells first."""
    failed = [
        f"{side} matching: {w}"
        for side, m in (("lower", pair.lower_matching), ("upper", pair.upper_matching))
        for w in m.witnesses(cells)
    ]
    return f"{names[pair.lower]} <= {names[pair.upper]}: {'; '.join(failed)}"


def cmd_certify_qf(args) -> int:
    system = _read_system(args)
    x = parse_flat(args.flat, system)
    cert = quasi_fibration_certify(system, x, args.sample)
    report = Report("certify-qf")
    report.note("flat", flat_id(x, system.ground))
    report.note("mode", "exhaustive" if cert.sample is None else "sampled")
    report.note("pairs", len(cert.pairs))
    report.note("fiber_rank", cert.expected_rank)
    names = cert.loc.target.poset.names
    bad_pairs = cert.failed_pairs
    report.add(
        "pairs.certified",
        not bad_pairs,
        bad_pairs and _pair_failures(bad_pairs[0], names, cert.loc.source.poset.names) or None,
    )
    bad_fibers = cert.failed_fibers
    report.add(
        "fibers.homology",
        not bad_fibers,
        bad_fibers and f"{names[bad_fibers[0][0]]}: {bad_fibers[0][1]}" or None,
    )
    bad_ranks = cert.failed_graph_ranks
    report.add(
        "fibers.graph_rank",
        not bad_ranks,
        bad_ranks and f"{names[bad_ranks[0][0]]}: {bad_ranks[0][1]}" or None,
    )
    return _finish(report)


def cmd_ranks(args) -> int:
    system = _read_system(args)
    seq = semidirect_rank_sequence(system)
    report = Report("ranks")
    report.note("sequence", " ".join(map(str, seq)))
    report.note("sum", sum(seq))
    res = homology(chain_complex(SalvettiPoset(system)))
    b1 = res.betti[1] if len(res.betti) > 1 else 0
    report.add("sum.equals_b1", sum(seq) == b1, f"{sum(seq)} != b1={b1}")
    return _finish(report)


def cmd_extend_levi(args) -> int:
    from .extensions import levi_enlargement

    system = _read_system(args)
    x1 = parse_flat(args.flats[0], system)
    x2 = parse_flat(args.flats[1], system)
    result = levi_enlargement(system, x1, x2, generic=args.generic)
    sys.stderr.write(
        f"# new element {result.new_element} through "
        f"{flat_id(result.flat_lift[x1], result.extended.ground)} and "
        f"{flat_id(result.flat_lift[x2], result.extended.ground)}\n"
    )
    return _emit(format_system(result.extended))


def cmd_extend_ss(args) -> int:
    from .extensions import supersolvable_extension

    system = _read_system(args)
    result = supersolvable_extension(system)
    report = Report("extend-ss")
    report.note("steps", len(result.steps))
    for i, step in enumerate(result.steps):
        report.note(
            f"step.{i + 1}",
            f"{step.new_element} through {flat_id(step.pivot, result.final.ground)}"
            f" and {flat_id(step.through, result.final.ground)}; disjoint {step.disjoint_before} -> {step.disjoint_after}",
        )
    report.note("mchain", " < ".join(flat_id(f, result.final.ground) for f in result.chain))
    decreasing = all(s.disjoint_after < s.disjoint_before for s in result.steps)
    report.add("disjoint.strictly_decreasing", decreasing, "a step failed to decrease")
    # the new labels are appended, so the input is the low bits of the final ground
    low = (1 << len(system.ground)) - 1
    restricted = {(p & low, m & low) for p, m in result.final.vectors()}
    report.add(
        "restriction.identity",
        restricted == system.numbering().keys(),
        "restriction differs from the input",
    )
    report.add(
        "supersolvable",
        build_lattice(result.final).is_supersolvable() is not None,
        "final system not supersolvable",
    )
    if args.out:
        Path(args.out).write_text(format_system(result.final))
    return _finish(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omkit",
        description="exact oriented-matroid and Salvetti-complex toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def com(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", default="-", help="covector file (default stdin)")
        return p

    p = sub.add_parser("corpus", help="write a bundled example system")
    p.add_argument("name", choices=CORPUS_NAMES)

    p = sub.add_parser("from-arrangement", help="covectors of a rational arrangement")
    p.add_argument("matrix", help="file with one rational row per line")

    com("check-axioms", help="check the covector axioms")
    com("simplify", help="remove loops and parallel elements")
    com("topes", help="list the topes")
    com("lattice", help="flats, ranks, Moebius and Whitney data")

    p = com("modular", help="modularity of a flat")
    p.add_argument("flat", help="comma-separated labels, e.g. H1,H2,H3")

    com("supersolvable", help="search for a modular chain")

    p = com("shelling", help="shelling order from a tope poset")
    p.add_argument("--base", required=True, help="base tope in sign text (--base=TEXT when it starts with -)")

    com("salvetti", help="the Salvetti poset")

    p = com("localize", help="restrict to a flat")
    p.add_argument("--flat", required=True)

    p = com("fiber", help="a Salvetti localization fiber")
    p.add_argument("--flat", required=True)
    p.add_argument("--cell", required=True, help="cell id (sigma;T) of the localization")

    p = com("stratify", help="stratify a maximal-cell fiber")
    p.add_argument("--flat", required=True)
    p.add_argument("--tope", required=True, help="base tope of the localization (--tope=TEXT when it starts with -)")

    p = com("morse", help="build a verified acyclic matching")
    p.add_argument(
        "--construction", required=True, choices=("shelling", "convex", "fiber")
    )
    p.add_argument("--base", help="base tope (shelling; --base=TEXT when it starts with -)")
    p.add_argument("--topes", help="comma-separated convex tope set (convex; --topes=LIST when it starts with -)")
    p.add_argument("--flat", help="flat (fiber)")
    p.add_argument("--cell", help="cell id of the localization (fiber)")
    p.add_argument("--tope", help="base tope of the localization (fiber; --tope=TEXT when it starts with -)")

    com("homology", help="Salvetti homology against the Whitney numbers")

    p = com("certify-qf", help="quasi-fibration certificate")
    p.add_argument("--flat", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="check every pair (the default)")
    mode.add_argument("--sample", type=int, metavar="N", help="check N pairs drawn with a fixed seed")

    com("ranks", help="semidirect rank sequence")

    p = com("extend-levi", help="one enlargement through two flats")
    p.add_argument("--flats", nargs=2, required=True, metavar=("X1", "X2"))
    p.add_argument("--generic", action="store_true")

    p = com("extend-ss", help="extend until supersolvable")
    p.add_argument("--out", help="write the extended system to a file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse strips "--" from "--tope=--", leaving [], so read [] back as that sign text
    for name in ("base", "tope", "topes"):
        if getattr(args, name, None) == []:
            setattr(args, name, "--")
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
