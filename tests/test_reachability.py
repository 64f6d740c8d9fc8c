"""The package holds what a command reaches.  Every top-level function,
class and method of `src/omkit` must be reachable by name from the
command line (`cli.main`, `cli.build_parser` and every `cli.cmd_*`) or
from `tools/generate_non_pappus.py`; reference code the tests compare
against lives in the tests.

Reachability is by bare name: a definition reaches every definition
whose name it mentions, as a name or an attribute, in any module; an
attribute of a string literal (`", ".join`) mentions nothing.  A
reached class reaches its dunder methods and whatever its body outside
its methods mentions.  Module-level statements run on import, so what
they mention is reached.  Imports, and the re-exports of `__init__.py`,
reach nothing.  Matching by name over-approximates reachability, so the
guard may miss dead code (a method that shares its name with a live one)
but never flags live code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "omkit"
TOOL = ROOT / "tools" / "generate_non_pappus.py"

# perfbench/tracing.py wraps `FinitePoset.order_complex` and reads its
# `.faces` (tests/test_tracing_hooks.py asserts the wrapped entry points
# resolve), so the order-complex code stays in the package until the
# benchmark drops that span (ROADMAP item 5) and it moves to
# tests/simplicial_oracle.py.
ALLOWED = {
    "posets.FinitePoset.order_complex",
    "posets.FinitePoset.chains",
    "posets.SimplicialComplexRecord",
}
DEFS = (ast.FunctionDef, ast.ClassDef)


def library_sources() -> dict[str, str]:
    """The source of each module of the package, by module name."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def mentions(*nodes: ast.AST) -> set[str]:
    """The bare names the nodes mention, as names or attributes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and not is_string(sub.value):
                out.add(sub.attr)
    return out


def is_string(node: ast.AST) -> bool:
    """A string literal or f-string, whose attributes are str methods."""
    if isinstance(node, ast.JoinedStr):
        return True
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def scan(sources: dict[str, str], tool: str) -> tuple[set[str], set[str]]:
    """The definitions of the package, as "module.name" or
    "module.Class.method", and those of them that nothing reaches.  A
    method of an unreached class is not listed on its own."""
    by_name: dict[str, list[str]] = {}  # bare name -> definitions
    uses: dict[str, set[str]] = {}  # definition -> names it mentions
    dunders: dict[str, list[str]] = {}  # class -> its dunder methods
    owner: dict[str, str] = {}  # method -> its class
    names = mentions(ast.parse(tool))
    for module, text in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, DEFS):
                names |= mentions(node)
                continue
            key = f"{module}.{node.name}"
            by_name.setdefault(node.name, []).append(key)
            if not isinstance(node, ast.ClassDef):
                uses[key] = mentions(node)
                continue
            body = [s for s in node.body if not isinstance(s, DEFS)]
            uses[key] = mentions(*node.bases, *node.keywords, *node.decorator_list, *body)
            dunders[key] = []
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                method = f"{key}.{item.name}"
                by_name.setdefault(item.name, []).append(method)
                uses[method] = mentions(item)
                owner[method] = key
                if item.name.startswith("__") and item.name.endswith("__"):
                    dunders[key].append(method)

    roots = ["cli.main", "cli.build_parser"]
    roots += [k for k in uses if k.startswith("cli.cmd_") and k not in owner]
    todo = roots + [k for n in names for k in by_name.get(n, ())]
    reached: set[str] = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in uses:
            continue
        reached.add(key)
        todo += dunders.get(key, ())
        for name in uses[key] - names:
            names.add(name)
            todo += by_name.get(name, ())
    dead = {k for k in uses.keys() - reached if k not in owner or owner[k] in reached}
    return set(uses), dead


def complaints(sources: dict[str, str], tool: str) -> list[str]:
    """Dead definitions not on the allowlist, and allowlisted names that
    are no longer defined or are now reached."""
    defined, dead = scan(sources, tool)
    out = [f"unreached: {k}" for k in sorted(dead - ALLOWED)]
    out += [f"allowlisted but not defined: {k}" for k in sorted(ALLOWED - defined)]
    out += [f"allowlisted but reached: {k}" for k in sorted(ALLOWED & defined - dead)]
    return out


def test_every_definition_is_reached_from_a_command():
    assert complaints(library_sources(), TOOL.read_text()) == []


def test_a_planted_dead_function_is_flagged():
    sources = library_sources()
    sources["planted"] = "def _planted():\n    pass\n"
    assert complaints(sources, TOOL.read_text()) == ["unreached: planted._planted"]


def test_a_method_reached_only_through_a_string_is_flagged():
    sources = library_sources()
    sources["cli"] += (
        "\n\nclass Planted:\n    def join(self, parts):\n        return parts\n"
        "\n\ndef cmd_planted(args):\n    return Planted, \", \".join(args), f\"{args}\".join(args)\n"
    )
    assert complaints(sources, TOOL.read_text()) == ["unreached: cli.Planted.join"]


def test_the_allowlist_is_exact():
    tool = TOOL.read_text()
    sources = library_sources()
    sources["cli"] += "\n\ndef cmd_planted(args):\n    return args.order_complex()\n"
    assert "allowlisted but reached: posets.FinitePoset.order_complex" in complaints(sources, tool)
    sources = library_sources()
    sources["posets"] = sources["posets"].replace(
        "class SimplicialComplexRecord", "class RenamedRecord"
    )
    found = complaints(sources, tool)
    assert "allowlisted but not defined: posets.SimplicialComplexRecord" in found
    assert "unreached: posets.RenamedRecord" in found
