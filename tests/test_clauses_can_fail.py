"""Every clause a command reports can read FAIL.

An `ast` scan of `omkit/cli.py` lists the key of every `report.add`, by
command.  `FAILING` maps each (command, key) to an input on which the
command prints `<key>: FAIL witness=` and exits 1, or, where no input
file reaches the failure, to a patch of what the check reads.  The guard
fails on a key without an entry, on an entry whose run prints no FAIL,
and on a `report.add` whose passed argument is a constant."""

import ast
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import omkit.cli
import omkit.extensions
import omkit.morse
from omkit.cli import main
from omkit.corpus import corpus
from omkit.matroids import CovectorSystem
from omkit.omfile import format_system
from test_cli import cyclic_ball_matching, drop_first_pair, drop_link_pairs, extra_edge

CLI = Path(omkit.cli.__file__)
HOMOLOGY = sys.modules["omkit.homology"]  # the package's `homology` is the function

# keys read off a loop `for key, check in <x>.<method>().items()`, by method
LOOP_KEYS = {"check_axioms": lambda: [key for key, _ in corpus("rank1").check_axioms().items()]}


def _string_values(fn: ast.FunctionDef) -> dict[str, set[str]]:
    """The string constants assigned to each local name of a function,
    directly or by position in a tuple, and the keys of the loops in
    `LOOP_KEYS`."""
    values: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                for t, v in pairs:
                    if isinstance(t, ast.Name) and isinstance(v, ast.Constant) and isinstance(v.value, str):
                        values.setdefault(t.id, set()).add(v.value)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr == "items"
                and isinstance(it.func.value, ast.Call)
                and isinstance(it.func.value.func, ast.Attribute)
                and it.func.value.func.attr in LOOP_KEYS
            ):
                name = node.target.elts[0].id
                values.setdefault(name, set()).update(LOOP_KEYS[it.func.value.func.attr]())
    return values


def scan_clauses(source: str) -> tuple[set[tuple[str, str]], list[str]]:
    """The (command, key) of every `report.add` in the `cmd_*` functions,
    and the calls whose passed argument is a constant, by line."""
    keys: set[tuple[str, str]] = set()
    constant: list[str] = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        command = fn.name[4:].replace("_", "-")
        values = _string_values(fn)
        for call in ast.walk(fn):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "add"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "report"
            ):
                continue
            key, passed = call.args[0], call.args[1]
            if isinstance(key, ast.Constant):
                keys.add((command, key.value))
            else:
                assert isinstance(key, ast.Name) and values.get(key.id), (
                    f"{command}: cannot resolve the key {ast.unparse(key)} at line {call.lineno}"
                )
                keys |= {(command, k) for k in values[key.id]}
            if isinstance(passed, ast.Constant):
                constant.append(f"{command}: line {call.lineno}")
    return keys, constant


# -- the patches ----------------------------------------------------------------


def patched(owner, name, build):
    """A patch that replaces `owner.name` by `build` of the original."""

    def patch(monkeypatch):
        monkeypatch.setattr(owner, name, build(getattr(owner, name)))

    return patch


def changed(owner, name, change):
    """A patch that applies `change` to what `owner.name` returns."""
    return patched(owner, name, lambda real: lambda *args, **kw: change(real(*args, **kw)))


def without_zero_vector(real):
    # the covector file format refuses a body without the zero vector
    def read(args):
        system = real(args)
        return CovectorSystem(system.ground, [v for v in system.vectors() if v != (0, 0)])

    return read


def reoriented(real):
    # the extension of the input with its first element reoriented
    def extend(system):
        return real(CovectorSystem(system.ground, [(p & ~1 | m & 1, m & ~1 | p & 1) for p, m in system.vectors()]))

    return extend


def not_extended(real):
    return lambda system: omkit.extensions.SupersolvableExtension((), system, ())


def first_step_not_decreasing(result):
    first = replace(result.steps[0], disjoint_after=result.steps[0].disjoint_before)
    return replace(result, steps=(first, *result.steps[1:]))


def one_more_b1(res):
    return replace(res, betti=(1, res.betti[1] + 1, *res.betti[2:]))


def first_pair_dropped(collapse):
    return drop_first_pair(lambda m: m)(collapse[0]), collapse[1]


NOT_ELIMINATED = "ground: a b\ncovectors:\n00\n++\n--\n+-\n-+\n"
CONVEX = ["morse", "--construction", "convex", "--topes", "+++"]
SEC3_FIBER = ["morse", "--construction", "fiber", "--flat", "H1,H2,H3", "--cell", "(+++;+++)", "--tope", "+++"]
SEC3_CERTIFY = ["certify-qf", "--flat", "H1,H2,H3", "--sample", "2"]

# (command, key) -> (argv, stdin: a corpus name or covector text, patch or None)
FAILING = {
    ("check-axioms", "axiom1.zero_vector"): (
        ["check-axioms"], "rank1", patched(omkit.cli, "_read_system", without_zero_vector),
    ),
    ("check-axioms", "axiom2.opposites"): (["check-axioms"], "ground: a\ncovectors:\n0\n+\n", None),
    ("check-axioms", "axiom3.composition"): (
        ["check-axioms"], "ground: a b\ncovectors:\n00\n+0\n-0\n0+\n0-\n", None,
    ),
    ("check-axioms", "axiom4.elimination"): (["check-axioms"], NOT_ELIMINATED, None),
    ("lattice", "zaslavsky.topes"): (["lattice"], NOT_ELIMINATED, None),
    ("modular", "modular"): (["modular", "H2,H4"], "sec3-arrangement", None),
    ("supersolvable", "supersolvable"): (["supersolvable"], "non-pappus", None),
    ("shelling", "shelling.verified"): (
        ["shelling", "--base", "+++"], "uniform-2-3",
        changed(omkit.cli, "shelling_order_from_extension", lambda o: (o[0], o[-1], *o[1:-1])),
    ),
    ("salvetti", "pure"): (["salvetti"], "uniform-2-3", changed(CovectorSystem, "rank", lambda r: r + 1)),
    ("fiber", "fibers.homology"): (["fiber", "--flat", "H2,H4", "--cell", "(00;++)"], "sec3-arrangement", None),
    ("morse", "matching.acyclic"): (
        CONVEX, "uniform-2-3", patched(omkit.cli, "matching_convex_critical", lambda real: cyclic_ball_matching),
    ),
    ("morse", "critical.single_vertex"): (
        ["morse", "--construction", "shelling", "--base", "+++"], "uniform-2-3",
        changed(omkit.cli, "collapse_ball", first_pair_dropped),
    ),
    ("morse", "critical.is_subcomplex"): (
        CONVEX, "uniform-2-3", patched(omkit.cli, "matching_convex_critical", drop_first_pair),
    ),
    ("morse", "critical.is_fiber"): (
        SEC3_FIBER, "sec3-arrangement", patched(omkit.morse, "matching_convex_critical", drop_first_pair),
    ),
    ("homology", "betti.match_whitney"): (["homology"], "uniform-2-3", changed(HOMOLOGY, "homology", one_more_b1)),
    ("certify-qf", "pairs.certified"): (
        SEC3_CERTIFY, "sec3-arrangement", patched(omkit.morse, "matching_convex_critical", drop_first_pair),
    ),
    ("certify-qf", "fibers.homology"): (
        SEC3_CERTIFY, "sec3-arrangement", patched(omkit.morse, "local_matchings", drop_link_pairs),
    ),
    ("certify-qf", "fibers.graph_rank"): (
        SEC3_CERTIFY, "sec3-arrangement", patched(HOMOLOGY, "graph_rank", extra_edge),
    ),
    ("ranks", "sum.equals_b1"): (["ranks"], "uniform-2-3", changed(omkit.cli, "homology", one_more_b1)),
    ("extend-ss", "disjoint.strictly_decreasing"): (
        ["extend-ss"], "non-pappus",
        changed(omkit.extensions, "supersolvable_extension", first_step_not_decreasing),
    ),
    ("extend-ss", "restriction.identity"): (
        ["extend-ss"], "sec3-arrangement", patched(omkit.extensions, "supersolvable_extension", reoriented),
    ),
    ("extend-ss", "supersolvable"): (
        ["extend-ss"], "non-pappus", patched(omkit.extensions, "supersolvable_extension", not_extended),
    ),
}


def test_every_clause_has_a_failing_entry_and_none_is_constant():
    keys, constant = scan_clauses(CLI.read_text())
    assert not constant, f"report.add with a constant passed argument: {constant}"
    assert keys - FAILING.keys() == set(), "clauses without a failing entry"
    assert FAILING.keys() - keys == set(), "entries for clauses no command reports"


def test_the_scan_reads_loop_and_variable_keys():
    keys, _ = scan_clauses(CLI.read_text())
    assert {k for c, k in keys if c == "check-axioms"} == set(LOOP_KEYS["check_axioms"]())
    assert {k for c, k in keys if c == "morse"} == {
        "matching.acyclic", "critical.single_vertex", "critical.is_subcomplex", "critical.is_fiber",
    }
    # a constant passed argument is caught, and an unresolved key refused
    _, constant = scan_clauses('def cmd_x(args):\n    report.add("computed", True)\n')
    assert constant == ["x: line 2"]
    with pytest.raises(AssertionError, match="cannot resolve the key"):
        scan_clauses("def cmd_x(args):\n    report.add(name, ok)\n")


@pytest.mark.parametrize("command, key", sorted(FAILING), ids=lambda v: v)
def test_clause_prints_fail(capsys, monkeypatch, command, key):
    argv, stdin, patch = FAILING[command, key]
    text = stdin if "\n" in stdin else format_system(corpus(stdin))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    if patch is not None:
        patch(monkeypatch)
    code = main(argv)
    out = capsys.readouterr().out
    assert f"\n{key}: FAIL witness=" in out, out
    assert code == 1
