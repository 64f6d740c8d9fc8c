"""Sign-vector text is parsed only by the command line.  The library
modules that work by element number must not turn text back into sign
vectors: this scans their source for calls of `CovectorSystem.vector`,
`SignVector.from_string` and `CovectorSystem.from_strings`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "omkit"
BY_NUMBER = ("salvetti", "topes", "morse", "homology")
PARSERS = {"vector", "from_string", "from_strings"}


def text_parsing_calls(path: Path) -> list[str]:
    """`file:line name` for every call of a sign-text parser in a file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in PARSERS:
            out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_numbered_modules_parse_no_sign_text():
    found = [hit for module in BY_NUMBER for hit in text_parsing_calls(SRC / f"{module}.py")]
    assert found == []


def test_the_scan_sees_the_command_line_parsers():
    # the command line is where sign text is parsed, so the scan finds it there
    assert any(hit.endswith(" vector") for hit in text_parsing_calls(SRC / "cli.py"))
