"""Text formats: covector files, arrangement matrices, reports.

Everything is line-oriented and byte-deterministic so outputs can be
diffed and frozen as golden files.  A covector file has a ground line
and either a full covector body or an arrangement matrix; the topes-only
body that `topes` writes reads back only to be refused.  Reports are
key/value lines whose FAIL clauses always carry a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .matroids import CovectorSystem, RationalArrangement, from_arrangement
from .posets import bits


class OMFileError(ValueError):
    pass


@dataclass(frozen=True)
class OMFile:
    ground: tuple[str, ...]
    covectors: Optional[tuple[str, ...]] = None
    arrangement: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def to_system(self) -> CovectorSystem:
        if self.covectors is not None:
            return CovectorSystem.from_strings(self.ground, self.covectors)
        if self.arrangement is not None:
            return from_arrangement(RationalArrangement(self.ground, self.arrangement))
        raise OMFileError(
            "file lists topes only; covector operations need the full system"
        )


def format_system(system: CovectorSystem) -> str:
    lines = ["ground: " + " ".join(system.ground), "covectors:"]
    lines += system.names()
    return "\n".join(lines) + "\n"


def format_topes(system: CovectorSystem) -> str:
    lines = ["ground: " + " ".join(system.ground), "topes:"]
    names = system.names()
    lines += [names[t] for t in bits(system.topes())]
    return "\n".join(lines) + "\n"


def parse_om_text(text: str) -> OMFile:
    ground: Optional[tuple[str, ...]] = None
    section: Optional[str] = None
    covectors: list[str] = []
    topes: list[str] = []
    rows: list[tuple[Fraction, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ground:"):
            if ground is not None:
                raise OMFileError(f"second ground line {line!r}")
            ground = tuple(line[len("ground:"):].split())
            dup = next((lab for i, lab in enumerate(ground) if lab in ground[:i]), None)
            if dup is not None:
                raise OMFileError(f"duplicate ground label {dup!r}")
            # flat ids join labels with commas and name the empty flat {}
            for lab in ground:
                if "," in lab:
                    raise OMFileError(f"ground label {lab!r} contains a comma")
                if lab == "{}":
                    raise OMFileError(f"ground label {lab!r} is the empty flat's id")
            continue
        if line in ("covectors:", "topes:", "arrangement:"):
            section = line[:-1]
            continue
        if section == "covectors":
            covectors.append(line)
        elif section == "topes":
            topes.append(line)
        elif section == "arrangement":
            rows.append(_parse_row(line))
        else:
            raise OMFileError(f"line outside any section: {line!r}")
    if ground is None:
        raise OMFileError("missing ground line")
    if ground == () and section in ("covectors", "topes") and not covectors and not topes:
        # over an empty ground the zero covector, also the one tope, is the empty line
        (covectors if section == "covectors" else topes).append("")
    if sum(1 for body in (covectors, topes, rows) if body) != 1:
        raise OMFileError("exactly one of covectors/topes/arrangement required")
    if not covectors:
        # a topes-only body leaves both bodies unset, which to_system refuses
        return OMFile(ground, arrangement=tuple(rows) or None)
    seen = set()
    for line in covectors:
        if len(line) != len(ground):
            raise OMFileError(
                f"line {line!r} has length {len(line)}, ground has {len(ground)}"
            )
        if line in seen:
            raise OMFileError(f"duplicate line {line!r}")
        seen.add(line)
    if "0" * len(ground) not in seen:
        raise OMFileError("covector body must contain the zero vector")
    return OMFile(ground, covectors=tuple(covectors))


def _parse_row(line: str) -> tuple[Fraction, ...]:
    row = []
    for tok in line.split():
        try:
            row.append(Fraction(tok))
        except ZeroDivisionError:
            raise OMFileError(f"zero denominator in {tok!r}") from None
    return tuple(row)


def parse_matrix_text(text: str) -> list[tuple[Fraction, ...]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(_parse_row(line))
    if not rows:
        raise OMFileError("empty matrix file")
    return rows


# -- reports -------------------------------------------------------------------


@dataclass
class Report:
    """An ordered list of PASS/FAIL clauses with witnesses.  A report
    with no clause, only notes, claims nothing and prints no verdict."""

    title: str
    clauses: list[tuple[str, bool, Optional[str]]] = field(default_factory=list)
    notes: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, passed: bool, witness: Optional[str] = None) -> None:
        if not passed and witness is None:
            raise ValueError(f"FAIL clause {key!r} needs a witness")
        self.clauses.append((key, passed, witness))

    def note(self, key: str, value: object) -> None:
        self.notes.append((key, str(value)))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.clauses)

    def render(self) -> str:
        lines = [f"report: {self.title}"]
        for key, value in self.notes:
            lines.append(f"{key}: {value}")
        for key, passed, witness in self.clauses:
            if passed:
                lines.append(f"{key}: PASS")
            else:
                lines.append(f"{key}: FAIL witness={witness}")
        if self.clauses:
            lines.append(f"verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"
