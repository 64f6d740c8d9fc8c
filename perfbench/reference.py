"""Reference answers computed from covector text alone.

Nothing here imports omkit: every expected value is derived from the
sign-vector text a job was given, with plain Python, so a defect in the
code under test cannot also corrupt the reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


def parse_text(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ground labels and covector rows of a covector file."""
    ground: tuple[str, ...] = ()
    rows: list[str] = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ground:"):
            ground = tuple(line[len("ground:"):].split())
        elif line.endswith(":"):
            section = line[:-1]
        elif section in ("covectors", "topes"):
            rows.append(line)
    return ground, tuple(rows)


def relabel(text: str, old_prefix: str, new_prefix: str) -> str:
    """Rename every ground label: strip old_prefix where present, add new_prefix."""
    out = []
    for line in text.splitlines():
        if line.startswith("ground:"):
            labels = [
                lab[len(old_prefix):] if old_prefix and lab.startswith(old_prefix) else lab
                for lab in line[len("ground:"):].split()
            ]
            line = "ground: " + " ".join(new_prefix + lab for lab in labels)
        out.append(line)
    return "\n".join(out) + "\n"


def _leq(f: str, t: str) -> bool:
    """f is a conformal face of t: every nonzero entry of f agrees with t."""
    return all(a == "0" or a == b for a, b in zip(f, t))


def _compose(f: str, r: str) -> str:
    return "".join(b if a == "0" else a for a, b in zip(f, r))


@dataclass
class Reference:
    """Combinatorial invariants of one covector system, from its text."""

    ground: tuple[str, ...]
    rows: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str) -> "Reference":
        return cls(*parse_text(text))

    @cached_property
    def topes(self) -> frozenset[str]:
        # no loops in these inputs, so the maximal covectors are the full-support ones
        return frozenset(r for r in self.rows if "0" not in r)

    @cached_property
    def flats(self) -> dict[frozenset[str], int]:
        """Every flat (zero set of a covector) with its rank."""
        zsets = {
            frozenset(lab for lab, s in zip(self.ground, r) if s == "0")
            for r in self.rows
        }
        rank: dict[frozenset[str], int] = {}
        for z in sorted(zsets, key=len):
            rank[z] = max((rank[y] + 1 for y in rank if y < z), default=0)
        return rank

    @cached_property
    def rank(self) -> int:
        return max(self.flats.values())

    def flats_of_rank(self, k: int) -> list[frozenset[str]]:
        return sorted(
            (f for f, r in self.flats.items() if r == k),
            key=lambda f: sorted(f),
        )

    @cached_property
    def whitney(self) -> tuple[int, ...]:
        """|Moebius| summed per rank: the Betti numbers of the complement."""
        mu: dict[frozenset[str], int] = {}
        for z in sorted(self.flats, key=len):
            mu[z] = 1 if not z else -sum(mu[y] for y in mu if y < z)
        out = [0] * (self.rank + 1)
        for z, m in mu.items():
            out[self.flats[z]] += abs(m)
        return tuple(out)

    def is_modular_coatom(self, x: frozenset[str]) -> bool:
        """In rank 3 a rank-2 flat is modular iff it meets every other one."""
        return all(x & y for y in self.flats_of_rank(self.rank - 1))

    @cached_property
    def salvetti_cells(self) -> int:
        return sum(1 for t in self.topes for f in self.rows if _leq(f, t))

    def salvetti_pairs(self, labels: frozenset[str]) -> int:
        """Comparable pairs a <= b (a = b included) of the Salvetti poset of
        the restriction to labels."""
        keep = [i for i, lab in enumerate(self.ground) if lab in labels]
        rows = {"".join(r[i] for i in keep) for r in self.rows}
        topes = [r for r in rows if "0" not in r]
        cells = [(f, t) for t in topes for f in rows if _leq(f, t)]
        # (F, T) <= (G, R)  iff  G is a face of F and F o R = T
        return sum(
            1
            for f, t in cells
            for g, r in cells
            if _leq(g, f) and _compose(f, r) == t
        )


def report_fields(out: str) -> dict[str, str]:
    """The key: value lines of an omkit report (first occurrence wins)."""
    fields: dict[str, str] = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields
