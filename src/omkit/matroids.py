"""Covector systems: axiom checking, standard constructions, realizable input.

A covector system is a finite set of covectors over an ordered ground
set.  Each covector is kept once, as its (plus, minus) pair of ground-bit
masks, and numbered in the order of its sign text: covector i is the
pair `vectors()[i]` with text `names()[i]`, and a set of covectors is a
mask over that numbering.  A system read from text (`from_strings`) is
numbered by one sort of the texts it was given, each parsed once; a
system built from pairs renders each pair once and sorts by the text.
The four covector axioms are checked exhaustively and on failure a
concrete witness is reported; failures are data here, not exceptions,
because the extension search uses the axiom check as its validity
arbiter.

The sign columns (for each element, the masks of the covectors that are
+, - and 0 there) are built once per system; the covector order, the
parallel classes and the elimination check read them.  The covector
order is built once per system and cached: its below masks, ANDs of
columns, live only until the cover pass has found its covers, from which
it is built, so its masks are derived when first read.  Every other order
question is read off it: the topes are its maximal elements and the rank
its height, both read off the covers, the cocircuits the nonzero elements
with only zero below, and the dual ball, the sphere and the Salvetti
poset are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Iterable, Optional

from .posets import FinitePoset, _cover_pass, bits, mask_of
from .signs import (
    GroundSetMismatchError,
    compose_masks,
    parse_signs,
    restrict_masks,
    sign_text,
)


class NotAFlatError(ValueError):
    pass


class DegenerateArrangementError(ValueError):
    pass


def flat_id(flat: int, ground: tuple[str, ...]) -> str:
    """The text of a ground-bit mask: its labels comma-joined in ground
    order, "{}" when empty."""
    return ",".join(lab for i, lab in enumerate(ground) if flat >> i & 1) or "{}"


def section_lift(alpha: tuple[int, int], flat: int, v: tuple[int, int]) -> tuple[int, int]:
    """The lift of v along the section at alpha: v's entries on the flat
    z(alpha), alpha's entries everywhere else.

    v is a pair over the localization at the flat, so bit j of v is the
    j-th element of the flat in ground order.
    """
    plus, minus = alpha
    if (plus | minus) & flat:
        raise ValueError("alpha does not vanish on the flat")
    spots = bits(flat)
    if (v[0] | v[1]) >> len(spots):
        raise GroundSetMismatchError("the lifted vector is not over the flat")
    for j, i in enumerate(spots):
        if v[0] >> j & 1:
            plus |= 1 << i
        elif v[1] >> j & 1:
            minus |= 1 << i
    return plus, minus


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking the four covector axioms."""

    zero_vector: AxiomCheck
    opposites: AxiomCheck
    composition: AxiomCheck
    elimination: AxiomCheck

    @property
    def ok(self) -> bool:
        return (
            self.zero_vector.passed
            and self.opposites.passed
            and self.composition.passed
            and self.elimination.passed
        )

    def items(self):
        return [
            ("axiom1.zero_vector", self.zero_vector),
            ("axiom2.opposites", self.opposites),
            ("axiom3.composition", self.composition),
            ("axiom4.elimination", self.elimination),
        ]


@dataclass(frozen=True)
class SimplifyResult:
    system: "CovectorSystem"
    representative: dict[str, str]  # surviving label for each non-loop label
    loops: tuple[str, ...]


class CovectorSystem:
    """An oriented matroid presented by its set of covectors."""

    __slots__ = ("ground", "_vectors", "_names", "_numbering", "_poset", "_memo")

    def __init__(self, ground: Iterable[str], pairs: Iterable[tuple[int, int]]):
        """The system of the distinct (plus, minus) pairs over the ground."""
        ground = tuple(ground)
        n = len(ground)
        covs = set(pairs)
        for p, m in covs:
            if p & m:
                raise ValueError("an entry cannot be both + and -")
            if (p | m) >> n:
                raise ValueError("mask bits outside the ground set")
        named = sorted((sign_text(p, m, n), (p, m)) for p, m in covs)
        self._store(ground, tuple(c for _, c in named), tuple(t for t, _ in named))

    @classmethod
    def from_strings(cls, ground: Iterable[str], rows: Iterable[str]) -> "CovectorSystem":
        """The system of the distinct sign texts over the ground.  Each row
        is parsed once, in input order, so the first bad row is the one
        named; the texts themselves are the names, numbered by one sort."""
        ground = tuple(ground)
        n = len(ground)
        pairs = {r: parse_signs(r, n) for r in rows}
        names = tuple(sorted(pairs))
        out = object.__new__(cls)
        out._store(ground, tuple(pairs[t] for t in names), names)
        return out

    def _store(
        self, ground: tuple[str, ...], vectors: tuple[tuple[int, int], ...], names: tuple[str, ...]
    ) -> None:
        """Keep the covectors numbered in the order of their sign texts."""
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_vectors", vectors)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_numbering", {c: i for i, c in enumerate(vectors)})
        object.__setattr__(self, "_poset", None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("CovectorSystem is immutable")

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._vectors)

    def vector(self, text: str) -> tuple[int, int]:
        """The (plus, minus) pair of a sign text over this ground."""
        return parse_signs(text, len(self.ground))

    def vectors(self) -> tuple[tuple[int, int], ...]:
        """The (plus, minus) pair of each covector, in the numbering."""
        return self._vectors

    def names(self) -> tuple[str, ...]:
        """The sign text of each covector, in the numbering (sorted)."""
        return self._names

    def numbering(self) -> dict[tuple[int, int], int]:
        """The number of each covector, keyed by its (plus, minus) pair."""
        return self._numbering

    def zero_set(self, c: int) -> int:
        """The zero set of covector number c, as a ground-bit mask."""
        p, m = self._vectors[c]
        return ((1 << len(self.ground)) - 1) & ~(p | m)

    def label_mask(self, labels: Iterable[str]) -> int:
        """The ground-bit mask of a set of labels (bit i is ground[i])."""
        wanted = set(labels)
        unknown = wanted.difference(self.ground)
        if unknown:
            raise ValueError(f"unknown labels: {sorted(unknown)}")
        return mask_of(i for i, lab in enumerate(self.ground) if lab in wanted)

    def labels(self, mask: int) -> tuple[str, ...]:
        """The labels of the ground elements in a mask, in ground order."""
        return tuple(lab for i, lab in enumerate(self.ground) if mask >> i & 1)

    def topes(self) -> int:
        """The mask of the maximal covectors of the covector order."""
        return self.covector_poset().maximal_elements()

    def rank(self) -> int:
        """Length of a maximal chain in the covector poset."""
        return self.covector_poset().height()

    def loops(self) -> tuple[str, ...]:
        support = 0
        for p, m in self._vectors:
            support |= p | m
        return self.labels(((1 << len(self.ground)) - 1) & ~support)

    def _sign_columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """For each element e, the masks of the covectors that are +, -
        and 0 at e, built once per system; parallel elements have equal
        zero columns."""

        def build():
            plus_at = [0] * len(self.ground)
            minus_at = [0] * len(self.ground)
            for k, (p, m) in enumerate(self._vectors):
                for e in bits(p):
                    plus_at[e] |= 1 << k
                for e in bits(m):
                    minus_at[e] |= 1 << k
            everything = (1 << len(self)) - 1
            zero_at = tuple(everything & ~(p | m) for p, m in zip(plus_at, minus_at))
            return tuple(plus_at), tuple(minus_at), zero_at

        return self.memo(("sign columns",), build)

    def _not_simple(self) -> Optional[str]:
        """The loops, or else the first pair of parallel elements (vanishing
        on the same covectors) in ground order; None for a simple system."""
        if self.loops():
            return f"loops {','.join(self.loops())}"
        first: dict[int, str] = {}
        for lab, z in zip(self.ground, self._sign_columns()[2]):
            if first.setdefault(z, lab) != lab:
                return f"parallel elements {first[z]},{lab}"
        return None

    def is_simple(self) -> bool:
        """No loops, no two elements vanishing on the same covectors."""
        return self._not_simple() is None

    def require_simple(self, what: str) -> None:
        """Refuse a system that is not simple by naming its loops or its
        first parallel pair."""
        why = self._not_simple()
        if why:
            raise ValueError(f"{why}: {what} needs a simple system; remove them with omkit simplify")

    # -- axioms ------------------------------------------------------------

    def check_axioms(self) -> AxiomReport:
        """The four axioms, each failure with its first witness: pairs are
        taken in row-major order over the covector numbering."""
        masks, names, number = self._vectors, self._names, self._numbering

        ax1 = AxiomCheck((0, 0) in number, None if (0, 0) in number else "zero vector missing")

        ax2 = AxiomCheck(True)
        for i, (p, m) in enumerate(masks):
            if (m, p) not in number:
                ax2 = AxiomCheck(False, f"opposite of {names[i]} missing")
                break

        ax3 = AxiomCheck(True)
        escapes = _composition_escape(masks, number, len(self.ground))
        if escapes:
            i, j = escapes[0]
            xy = sign_text(*compose_masks(*masks[i], *masks[j]), len(self.ground))
            ax3 = AxiomCheck(False, f"{names[i]} o {names[j]} = {xy} escapes the set")

        ax4 = AxiomCheck(True)
        unmet = _unmet_elimination(masks, *self._sign_columns(), escapes)
        if unmet is not None:
            i, j, e = unmet
            ax4 = AxiomCheck(
                False,
                f"no eliminating covector for pair ({names[i]}, {names[j]}) at {self.ground[e]}",
            )

        return AxiomReport(ax1, ax2, ax3, ax4)

    # -- simplification ------------------------------------------------------

    def simplify(self) -> SimplifyResult:
        """Remove loops and collapse parallel classes to representatives."""
        loops = self.loops()
        columns = self._sign_columns()[2]
        rep: dict[str, str] = {}
        chosen: dict[int, str] = {}
        for lab, z in zip(self.ground, columns):
            if lab not in loops:
                rep[lab] = chosen.setdefault(z, lab)
        keep = mask_of(i for i, lab in enumerate(self.ground) if rep.get(lab) == lab)
        return SimplifyResult(self.restriction(keep), rep, loops)

    # -- constructions ---------------------------------------------------------

    def _check_mask(self, mask: int) -> None:
        if mask >> len(self.ground):
            raise ValueError("mask bits outside the ground set")

    def restriction(self, keep: int) -> "CovectorSystem":
        """The covectors restricted to the elements of a ground-bit mask."""
        self._check_mask(keep)
        return CovectorSystem(self.labels(keep), restrict_masks(self._vectors, keep))

    def localization(self, flat: int) -> tuple["CovectorSystem", tuple[int, ...]]:
        """The restriction to a flat (a ground-bit mask), with the
        projection rho: `rho[i]` is the number of covector i's restriction.

        Restriction is order preserving, so no covector poset is needed.
        Built once per flat and kept on the system, with what the
        localized system keeps, such as the local matchings of its faces
        (`morse.local_matchings`)."""

        def build():
            if not any(self.zero_set(c) == flat for c in range(len(self))):
                raise NotAFlatError(f"{flat_id(flat, self.ground)} is not a flat")
            restricted = restrict_masks(self._vectors, flat)
            loc = CovectorSystem(self.labels(flat), restricted)
            number = loc.numbering()
            return loc, tuple(number[r] for r in restricted)

        return self.memo(("localization", flat), build)

    def cocircuits(self) -> int:
        """The mask of the minimal nonzero covectors: nothing but zero lies below them."""
        poset = self.covector_poset()
        zero = self._numbering.get((0, 0))
        floor = 0 if zero is None else 1 << zero
        return mask_of(
            x for x in poset.elements if x != zero and poset.below(x) & ~floor == 1 << x
        )

    # -- poset views ----------------------------------------------------------

    def covector_poset(self) -> FinitePoset:
        """The covectors under the product order, built once per system.

        Element i is covector i, named by its sign text.  Every other
        covector order is a view of this one: the dual ball is its
        `.dual()`, the sphere its subposet without the zero vector, and the
        Salvetti poset reads its principal ideals off it.

        Covector i lies below covector j when at every element i is 0 or
        has j's sign, so j's below mask is an AND of one column per
        element: not minus where j is +, not plus where j is -, zero where
        j is 0.  The cover pass finds the covers from these masks, and the
        poset is built from the covers (`FinitePoset.from_covers`), so it
        derives its masks again only when one is read.  The conformal
        order of distinct sign vectors is a partial order, so the pass
        refuses nothing (an `AssertionError` if it does).
        """
        if self._poset is None:
            everything = (1 << len(self)) - 1
            # per element, the column for each sign of j: 0, +, -
            columns = [
                (zero, everything & ~m, everything & ~p)
                for p, m, zero in zip(*self._sign_columns())
            ]
            below = []
            for pb, mb in self._vectors:
                mask = everything
                for e, (zero, not_minus, not_plus) in enumerate(columns):
                    mask &= not_minus if pb >> e & 1 else not_plus if mb >> e & 1 else zero
                below.append(mask)
            found = _cover_pass(below, range(len(below)))
            if found is None:
                raise AssertionError("the conformal order of distinct sign vectors is no partial order")
            lower, _, _, order = found
            poset = FinitePoset.from_covers(self._names, {y: lower[y] for y in order})
            object.__setattr__(self, "_poset", poset)
        return self._poset

    def memo(self, key: tuple, build: Callable[[], object]) -> object:
        """`build()`, called once per key and kept on this system, so it
        lives exactly as long as the system; for structures derived
        downstream, such as the lattice of flats and, on a localized
        system, the local matchings of `omkit.morse`, per face."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


# -- axiom kernels ----------------------------------------------------------
# Both take the (plus, minus) masks of the covectors in witness order, the
# elimination check also the system's sign columns and the pairs that
# escape composition, and name failing pairs in row-major order, as list
# positions.
#
# Elimination has one path.  When X o Y and Y o X are covectors they have
# equal supports and, between them, the same + and - unions as X and Y,
# so they raise the same obligation as X and Y, inside one support class.
# Each class is settled at once, by ANDs of bitsets over its grid of
# pairs; the pairs that axiom 3 finds escaping are the only others, and
# each of their obligations is settled by its own AND of the sign columns.


def _composition_escape(
    masks: tuple[tuple[int, int], ...], number: dict[tuple[int, int], int], n: int
) -> list[tuple[int, int]]:
    """Every pair (i, j) whose composition is not in the set, in row-major
    order; the first is axiom 3's witness.

    X o Y reads Y only on the zero set z of X, so a row composes the
    restrictions of the covectors to z, collected once per zero set, each
    packed as one int, plus above minus; only a failing row is scanned in
    order, to list its pairs.
    """
    full = (1 << n) - 1
    packed = [p << n | m for p, m in masks]
    present = set(packed)
    restricted: dict[int, set[int]] = {}
    escapes: list[tuple[int, int]] = []
    for i, w in enumerate(packed):
        z = full & ~(w >> n | w)
        if z not in restricted:
            both = z << n | z
            restricted[z] = {v & both for v in packed}
        if not present.issuperset([w | r for r in restricted[z]]):
            p1, m1 = masks[i]
            escapes += [(i, j) for j, (p, m) in enumerate(masks) if (p1 | p & z, m1 | m & z) not in number]
    return escapes


def _unmet_elimination(
    masks: tuple[tuple[int, int], ...],
    plus_at: tuple[int, ...],
    minus_at: tuple[int, ...],
    zero_at: tuple[int, ...],
    escapes: list[tuple[int, int]],
) -> Optional[tuple[int, int, int]]:
    """The first pair (i, j) and element e of their separator S with no
    covector Z such that Z_e = 0 and Z agrees with X o Y off S.

    With P and M the unions of the + and - masks of X and Y, S = P & M,
    and off S X o Y is + on P ^ S, - on M ^ S and 0 off P | M, so an
    obligation depends on (P, M) only and is packed as one int.  Y o X
    agrees with X o Y off S, so the pairs i < j raise every obligation.
    The failing obligations are those of `_failing_by_class` and those of
    the escaping pairs that miss an element.  The witness is the first
    pair i < j in row-major order whose obligation fails, with its least
    missed element.
    """
    n = len(plus_at)
    full = (1 << n) - 1
    everything = (1 << len(masks)) - 1

    def missed(key: int) -> list[int]:
        # the covectors agreeing off S are an AND of the sign columns, one
        # int per element and sign with bit k for covector k, and e in S is
        # missed when that AND misses the zero column of e
        plus, minus = key >> n, key & full
        sep = plus & minus
        agree = everything
        for e in bits(plus ^ sep):
            agree &= plus_at[e]
        for e in bits(minus ^ sep):
            agree &= minus_at[e]
        for e in bits(full & ~(plus | minus)):
            agree &= zero_at[e]
        return [e for e in bits(sep) if not agree & zero_at[e]]

    packed = [p << n | m for p, m in masks]
    failing = _failing_by_class(masks, packed)
    failing.update(filter(missed, {packed[i] | packed[j] for i, j in escapes}))
    if failing:
        for i, w in enumerate(packed):
            row = [w | v for v in packed[i + 1 :]]
            if not failing.isdisjoint(row):
                j = next(j for j, key in enumerate(row) if key in failing)
                return i, i + 1 + j, missed(row[j])[0]
    return None


def _failing_by_class(masks: tuple[tuple[int, int], ...], packed: list[int]) -> set[int]:
    """The packed (P, M) of every failing elimination obligation raised by
    two covectors of one support, settled one support class at a time.

    The t covectors of a support U make a grid of ordered pairs, the
    pair of members x and y at bit x*t + y.  Per element f of U, P_f
    holds the pairs with f in P (the members + at f spread over whole
    rows, OR their column repeated in every row), M_f those with f in M,
    and S_f = P_f & M_f those that separate at f.  A covector Z whose support W lies strictly inside U
    agrees with X o Y off S on the AND of P_f over Z's +, M_f over Z's -
    and S_f over U - W, and is 0 at every e in U - W; so the OR of those
    ANDs over the covectors of support W covers each such e.  An
    obligation fails exactly on the bits of S_e left uncovered.
    """
    classes: dict[int, list[int]] = {}
    for k, (p, m) in enumerate(masks):
        classes.setdefault(p | m, []).append(k)
    signs = [(bits(p), bits(m)) for p, m in masks]
    failing: set[int] = set()
    for support, members in classes.items():
        t = len(members)
        row_ones, every_pair = (1 << t) - 1, (1 << t * t) - 1
        unit = [1 << x * t for x in range(t)]
        in_every_row = sum(unit)

        def grids(side: int) -> dict[int, int]:
            # per element f of U, the members with this sign at f as a
            # column (bit x) and spread over rows (bit x*t)
            column, rows = dict.fromkeys(bits(support), 0), dict.fromkeys(bits(support), 0)
            for x, k in enumerate(members):
                for f in signs[k][side]:
                    column[f] |= 1 << x
                    rows[f] |= unit[x]
            return {f: rows[f] * row_ones | c * in_every_row for f, c in column.items()}

        grid_p, grid_m = grids(0), grids(1)
        grid_s = {f: grid_p[f] & grid_m[f] for f in grid_p}
        covered = dict.fromkeys(grid_s, 0)
        for inner, zs in classes.items():
            if inner & ~support or inner == support:
                continue
            zeros = bits(support & ~inner)
            agree = every_pair
            for f in zeros:
                agree &= grid_s[f]
            if not agree:
                continue
            union = 0
            for k in zs:
                a = agree
                for f in signs[k][0]:
                    a &= grid_p[f]
                for f in signs[k][1]:
                    a &= grid_m[f]
                union |= a
            for e in zeros:
                covered[e] |= union
        unmet = 0
        for f, s in grid_s.items():
            unmet |= s & ~covered[f]
        for b in bits(unmet):
            x, y = divmod(b, t)
            failing.add(packed[members[x]] | packed[members[y]])
    return failing


# -- realizable construction ----------------------------------------------


def _normalize_row(row: Iterable[Fraction]) -> tuple[int, ...]:
    fracs = [Fraction(x) for x in row]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


class RationalArrangement:
    """Rational linear forms, one per label, defining a central arrangement."""

    __slots__ = ("labels", "forms", "dimension")

    def __init__(self, labels: Iterable[str], forms: Iterable[Iterable[Fraction]]):
        labels = tuple(labels)
        rows = [_normalize_row(r) for r in forms]
        if len(rows) != len(labels):
            raise ValueError("one form per label required")
        if not rows:
            raise DegenerateArrangementError("empty arrangement")
        dim = len(rows[0])
        if dim < 1:
            raise DegenerateArrangementError("ambient dimension must be >= 1")
        for lab, r in zip(labels, rows):
            if len(r) != dim:
                raise ValueError("forms of unequal dimension")
            if not any(r):
                raise DegenerateArrangementError(f"zero form for {lab!r}")
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _proportional(rows[i], rows[j]):
                    raise DegenerateArrangementError(
                        f"forms for {labels[i]!r} and {labels[j]!r} are proportional"
                    )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "forms", tuple(rows))
        object.__setattr__(self, "dimension", dim)

    def __setattr__(self, name, value):
        raise AttributeError("RationalArrangement is immutable")


def _proportional(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # a, b nonzero integer rows
    for x, y in zip(a, b):
        if x == 0 and y != 0 or x != 0 and y == 0:
            return False
    # cross-multiply against the first nonzero coordinate
    k = next(i for i, x in enumerate(a) if x)
    return all(a[k] * y == b[k] * x for x, y in zip(a, b))


def _null_space(rows: Iterable[tuple[int, ...]], dim: int) -> list[list[Fraction]]:
    """A basis of the vectors on which every row vanishes, by exact
    Gauss-Jordan elimination (rows kept reduced against each other)."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for r in rows:
        row = [Fraction(x) for x in r]
        for col, prow in pivots:
            if row[col]:
                row = [a - row[col] * b for a, b in zip(row, prow)]
        col = next((i for i, x in enumerate(row) if x), None)
        if col is None:
            continue
        row = [x / row[col] for x in row]
        for j, (pcol, prow) in enumerate(pivots):
            if prow[col]:
                pivots[j] = (pcol, [a - prow[col] * b for a, b in zip(prow, row)])
        pivots.append((col, row))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(dim):
        if free not in pivot_cols:
            v = [Fraction(0)] * dim
            v[free] = Fraction(1)
            for col, prow in pivots:
                v[col] = -prow[free]
            basis.append(v)
    return basis


def _closure_from_cocircuits(cocircuit_masks: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Composition closure of the cocircuits and the zero vector, for its
    one caller, `from_arrangement`.  A cocircuit Y whose support lies inside
    X's leaves X o Y = X, so X is composed only with the others, and a tope
    with none; X o Y is `compose_masks` written out, X's free bits found once."""
    closed: set[tuple[int, int]] = {(0, 0)} | set(cocircuit_masks)
    frontier = list(closed)
    composers = [(p, m, p | m) for p, m in cocircuit_masks]
    while frontier:
        new: list[tuple[int, int]] = []
        for p1, m1 in frontier:
            free = ~(p1 | m1)
            for p2, m2, s2 in composers:
                if s2 & free:
                    q = (p1 | (p2 & free), m1 | (m2 & free))
                    if q not in closed:
                        closed.add(q)
                        new.append(q)
        frontier = new
    return closed


def from_arrangement(arrangement: RationalArrangement) -> CovectorSystem:
    """All sign vectors realized by rational points of the arrangement.

    The covectors are the composition closure of the cocircuits.  Every
    (r-1)-subset of forms of rank r-1 (r the rank of all forms) spans a
    hyperplane of the matroid; a vector of its null space outside the
    common kernel of all forms has that hyperplane as its zero set, and
    its sign vector and the opposite are cocircuits.
    """
    forms, dim = arrangement.forms, arrangement.dimension
    corank = len(_null_space(forms, dim))
    cocircuits: set[tuple[int, int]] = set()
    for subset in combinations(forms, dim - corank - 1):
        kernel = _null_space(subset, dim)
        if len(kernel) != corank + 1:
            continue
        for v in kernel:
            plus = minus = 0
            for i, f in enumerate(forms):
                value = sum(a * x for a, x in zip(f, v))
                if value > 0:
                    plus |= 1 << i
                elif value < 0:
                    minus |= 1 << i
            if plus | minus:
                cocircuits |= {(plus, minus), (minus, plus)}
                break
    return CovectorSystem(arrangement.labels, _closure_from_cocircuits(cocircuits))
