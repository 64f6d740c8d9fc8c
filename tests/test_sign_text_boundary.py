"""Sign-vector and flat text are parsed only by the command line.  The
library modules that work by element number must not turn text back into
sign vectors, and those that take flats as ground-bit masks must not turn
labels back into flats: this scans their source for calls of
`CovectorSystem.vector`, `from_string` and `CovectorSystem.from_strings`,
and of `parse_flat` and `CovectorSystem.label_mask`.  A covector is a
(plus, minus) pair everywhere in the library, so no library module names
`SignVector`, the labelled reference class of `tests/sign_vector.py`.
Homology is computed from face posets only, so no module but `posets`,
where `order_complex` builds it, and `__init__` names
`SimplicialComplexRecord`.  A map between numberings is a tuple and a
fiber a mask, so no library module names `PosetMap`, the checked map of
`tests/poset_builders.py`.  The quasi-fibration certificate reads its
fiber types off its collapses, so no library module reduces a fiber on
its behalf: none names `FiberEvidence`, `fiber_evidence` or
`fiber_homology`, the reduction of `tests/side_lemmas.py`.  A poset is
built from its covers only, so no library module calls `FinitePoset(`;
posets come from `FinitePoset.from_covers`, `subposet` and `dual`.  A
poset keeps one mask per element, of what lies below it, so no library
module reads `.above(` or `_above`, and `FinitePoset` has no `above`:
what lies above an element is read off the dual's `below`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "omkit"
BY_NUMBER = ("salvetti", "topes", "morse", "homology", "extensions", "lattices")
PARSERS = {"vector", "from_string", "from_strings"}
BY_MASK = ("lattices", "extensions", "salvetti", "homology", "morse", "topes")
LABEL_PARSERS = {"parse_flat", "label_mask"}


def text_parsing_calls(path: Path, parsers: set[str] = PARSERS) -> list[str]:
    """`file:line name` for every call of one of the parsers in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in parsers:
            out.append(f"{path.name}:{node.lineno} {name}")
    return out


def names_of_class(path: Path, cls: str) -> list[str]:
    """`file:line` for every name, attribute or import of a class in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name == cls:
            out.append(f"{path.name}:{node.lineno}")
    return out


def names_outside(cls: str, modules: tuple[str, ...]) -> list[str]:
    """Where a class is named in any library module but the given ones."""
    return [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in modules
        for hit in names_of_class(path, cls)
    ]


def test_no_library_module_names_the_sign_vector_class():
    assert names_outside("SignVector", ()) == []
    # the scan sees the class where the tests define it
    assert names_of_class(Path(__file__).with_name("sign_vector.py"), "SignVector")


def test_only_posets_names_the_simplicial_complex_class():
    # homology reads face posets only; simplicial chains are the tests' oracle
    assert names_outside("SimplicialComplexRecord", ("posets", "__init__")) == []
    for module in ("posets", "__init__"):
        assert names_of_class(SRC / f"{module}.py", "SimplicialComplexRecord")


def test_no_library_module_names_the_poset_map_class():
    # the localization's cell map is a tuple and its fibers are masks
    assert names_outside("PosetMap", ()) == []
    assert names_of_class(Path(__file__).with_name("poset_builders.py"), "PosetMap")


def test_no_library_module_names_a_fiber_reduction():
    for name in ("FiberEvidence", "fiber_evidence", "fiber_homology"):
        assert names_outside(name, ()) == [], name
    # the scan sees the oracle where the tests import it
    assert names_of_class(Path(__file__).with_name("test_homology.py"), "fiber_homology")


def test_posets_are_built_from_covers_only():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in text_parsing_calls(path, {"FinitePoset"})]
    assert found == []
    # the scan sees the cover builds of the covector order and the Salvetti poset
    for module in ("matroids", "salvetti"):
        assert text_parsing_calls(SRC / f"{module}.py", {"from_covers"}), module


def above_reads(source: str, filename: str) -> list[str]:
    """`file:line name` for every attribute `above`, and every attribute,
    name, definition or import whose name holds `_above`, in a module's
    source."""
    out = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        attribute = isinstance(node, ast.Attribute)
        name = node.attr if attribute else getattr(node, "id", getattr(node, "name", None))
        if attribute and name == "above" or "_above" in str(name):
            out.append(f"{filename}:{node.lineno} {name}")
    return out


def test_posets_keep_one_mask_per_element():
    from omkit.posets import FinitePoset

    found = [hit for path in sorted(SRC.glob("*.py")) for hit in above_reads(path.read_text(), path.name)]
    assert found == []
    assert not hasattr(FinitePoset, "above") and not hasattr(FinitePoset, "_above")
    # the scan sees each kind of read where one is written
    source = "def _above_along_covers(): return poset.above(x) | poset._above[x]"
    assert sorted(above_reads(source, "m.py")) == ["m.py:1 _above", "m.py:1 _above_along_covers", "m.py:1 above"]


def test_numbered_modules_parse_no_sign_text():
    found = [hit for module in BY_NUMBER for hit in text_parsing_calls(SRC / f"{module}.py")]
    assert found == []


def test_mask_modules_parse_no_label_text():
    found = [
        hit
        for module in BY_MASK
        for hit in text_parsing_calls(SRC / f"{module}.py", LABEL_PARSERS)
    ]
    assert found == []


def test_the_scan_sees_the_command_line_parsers():
    # the command line is where sign and flat text is parsed, so the scan finds it there
    assert any(hit.endswith(" vector") for hit in text_parsing_calls(SRC / "cli.py"))
    cli_flats = text_parsing_calls(SRC / "cli.py", LABEL_PARSERS)
    assert any(hit.endswith(" parse_flat") for hit in cli_flats)
    assert any(hit.endswith(" label_mask") for hit in cli_flats)
