"""Byte-for-byte CLI transcript: stdout, stderr and exit status of a fixed
command list, compared against `golden/cli_transcript.json`.

The transcript pins every report a refactor must leave unchanged.  To
re-record it after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from omkit.cli import main
from omkit.corpus import CORPUS_NAMES, corpus
from omkit.omfile import format_system
from omkit.posets import bits

GOLDEN = Path(__file__).with_name("golden") / "cli_transcript.json"

# (corpus member, flat) pairs for the localization commands
LOCALIZED = (("sec3-arrangement", "H1,H2,H3"), ("braid3", "12,13,23"))


def commands() -> list[tuple[str, list[str]]]:
    """(corpus member read on stdin, argv) for every recorded command."""
    out = []
    for name in CORPUS_NAMES:
        system = corpus(name)
        topes = system.covector_poset().names_of(system.topes())
        halfspace = [t for t in topes if t[0] == "+"]
        out += [
            (name, ["salvetti"]),
            (name, ["homology"]),
            (name, ["ranks"]),
            (name, ["shelling", f"--base={topes[0]}"]),
            (name, ["morse", "--construction", "convex", "--topes", ",".join(halfspace)]),
        ]
    for name, flat in LOCALIZED:
        system = corpus(name)
        loc = system.restriction(system.label_mask(flat.split(",")))
        poset = loc.covector_poset()
        loc_topes = poset.names_of(loc.topes())
        cells = sorted(
            f"({poset.names[c]};{poset.names[t]})"
            for t in bits(loc.topes())
            for c in bits(poset.below(t))
        )
        out.append((name, ["certify-qf", "--flat", flat, "--exhaustive"]))
        out += [(name, ["stratify", "--flat", flat, f"--tope={t}"]) for t in loc_topes]
        for cell in cells:
            out.append((name, ["fiber", "--flat", flat, "--cell", cell]))
        bp = loc_topes[0]
        out.append(
            (name, ["morse", "--construction", "fiber", "--flat", flat,
                    "--cell", f"({bp};{bp})", f"--tope={bp}"])
        )
    for name in CORPUS_NAMES:
        # the corank-one flats are the zero sets of the cocircuits
        system = corpus(name)
        coatoms = sorted(
            {
                ",".join(system.labels(system.zero_set(c))) or "{}"
                for c in bits(system.cocircuits())
            }
        )
        out += [(name, ["lattice"]), (name, ["supersolvable"])]
        out += [(name, ["modular", flat]) for flat in coatoms]
    for name, flat in LOCALIZED:
        out.append((name, ["localize", "--flat", flat]))
    for generic in ([], ["--generic"]):
        out.append(("sec3-arrangement", ["extend-levi", "--flats", "H2,H4", "H3,H5", *generic]))
    out += [("non-pappus", ["extend-ss"]), ("sec3-arrangement", ["extend-ss"])]
    # a label set that is not a flat
    out += [
        ("sec3-arrangement", ["modular", "H1,H4"]),
        ("sec3-arrangement", ["localize", "--flat", "H1,H4"]),
        ("sec3-arrangement", ["certify-qf", "--flat", "H1,H4"]),
    ]
    return out


def run_cli(name: str, argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(format_system(corpus(name)))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
    finally:
        sys.stdin = old
    return {
        "input": name,
        "argv": argv,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "status": status,
    }


def test_cli_transcript_is_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    assert [(g["input"], g["argv"]) for g in golden] == commands()
    for want in golden:
        got = run_cli(want["input"], want["argv"])
        assert got == want, (want["input"], want["argv"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run_cli(name, argv) for name, argv in commands()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} commands -> {GOLDEN}")
