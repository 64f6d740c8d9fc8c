"""Integral homology of Salvetti complexes, plus the derived checks.

`_incidences` reads the incidence signs of the cellular boundary off a
`FinitePoset` taken as the face poset of a regular CW complex (the cells
of dimension d are the elements of height d, the facets of a cell its
lower covers), and so certifies regularity: every cover climbs one
height, every edge has two vertices, every codimension-2 face of a cell
lies in exactly two of its facets, and the signs propagated across those
faces agree (`NotRegularError` names the cell otherwise).  It spreads
the signs cell by cell: each face g two heights below a cell lies in
exactly two of its facets f and f2, whose signs are set (or checked) so
that sign[f2] * s(f2, g) = -sign[f] * s(f, g); so the boundary squares
to zero with no second pass.  The tests multiply the maps out as an
oracle.

The Salvetti complex takes its signs once per covector, not once per
cell, from the dual covector complex.  The ideal below a cell (G, R) is
{(U, U o R) : U >= G}, and U -> (U, U o R) is an order isomorphism onto
it from the closed dual cell of G, the ideal below G in the dual
covector poset, since U1 >= U2 implies U1 o (U2 o R) = U1 o R; it
increases with U, as cells are numbered by (face, tope).  So
`_incidences`, run once on `system.covector_poset().dual()` and kept on
the system, gives (G, R) the signs of G's upper covers U at its lower
covers (U, U o R), in the same order: the signs it would give cell by
cell on the Salvetti poset, whose regularity and cancellations carry
over through the isomorphism.  A localization fiber is an ideal of its
source, by the order check of `salvetti_localization`, so its complex is
the restriction of the source's, and a certificate proves its source
regular here, once per system, in its minimal fibers' chain complexes.
No Salvetti `FinitePoset` is built for homology; the per-cell chain
complex of a face poset is the tests'.

The boundary maps are reduced from the top dimension down by exact
integer elimination, left-looking and with no row index (the column
algorithm of persistent homology; Bauer, "Ripser", J. Appl. Comput.
Topol. 2021), with clearing (Chen and Kerber, "Persistent homology
computation with a twist", 2011; Bauer, Kerber and Reininghaus, "Clear
and compress", 2014).  Each column in turn is reduced at its largest row
by the pivot column there, until there is none; that row becomes its
pivot when the entry is +-1, so each pivot column is zero above its
pivot row.  A column whose largest entry is no unit goes to the core; at
the end each core column is reduced on every pivot row, largest first (a
pivot column changes only rows at or below its own), and a textbook
Smith reduction of the core makes torsion exact.  This is exact over Z:
the eliminations are unimodular column operations, and the pivot columns
are triangular with +-1 on their pivot rows, so integral row operations
clear them off the other rows without touching the core, now zero on
those rows.  The rank is the pivot count plus the core's, and the
invariant factors are the core's.  No core is left on the Salvetti
complexes of the corpus, np14 and the braid arrangements A_4 and A_5.
Clearing leaves the k-cells that are unit pivot rows of the boundary
C_{k+1} -> C_k out of the boundary C_k -> C_{k-1}, which is exact too,
torsion included: the reduced pivot columns are integer combinations of
boundaries, so they lie in ker d_k, and being triangular with +-1 on
their pivot rows they form a basis of C_k with the other k-cells.  Hence
d_k(C_k) is spanned by the images of the other cells, and the rank and
invariant factors of d_k do not change.  Pivots of the Smith core clear
nothing.  The simplicial chain complex of the order complex is the
tests' independent oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .lattices import build_lattice
from .matroids import CovectorSystem
from .morse import MorseCertificate, certify_fibers
from .posets import FinitePoset
from .salvetti import (
    SalvettiLocalization,
    SalvettiPoset,
    salvetti_localization,
    stratify_fiber,
)

# -- exact Smith data ---------------------------------------------------------


def _eliminate(col: dict[int, int], r: int, pivot: dict[int, int]) -> None:
    """Clear row r of a column with a pivot column whose entry there is
    +-1: col -= (col[r] / pivot[r]) * pivot."""
    factor = col[r] * pivot[r]
    for rr, v in pivot.items():
        cur = col.get(rr, 0) - factor * v
        if cur:
            col[rr] = cur
        else:
            del col[rr]


def _unit_pivot_reduce(
    cols: dict[int, dict[int, int]]
) -> tuple[list[int], list[dict[int, int]]]:
    """Left-looking elimination of the columns in their order, rows
    numbered from 0: each is reduced at its largest row by the pivot
    column there, until there is none, and takes that row as its pivot
    when the entry is +-1.  Returns (the pivot rows, the other nonzero
    columns: the core, reduced on every pivot row).  A column is copied
    before its first change."""
    pivot: dict[int, dict[int, int]] = {}
    core = []
    for col in cols.values():
        r = max(col, default=-1)
        if r in pivot:
            col = dict(col)
            while r in pivot:
                _eliminate(col, r, pivot[r])
                r = max(col, default=-1)
        if r < 0:
            continue
        if col[r] in (1, -1):
            pivot[r] = col
        else:
            core.append(dict(col))
    for col in core:
        while (r := max((x for x in col if x in pivot), default=-1)) >= 0:
            _eliminate(col, r, pivot[r])
    return list(pivot), [col for col in core if col]


def _dense_smith(core: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of a small dense integer matrix."""
    a = [row[:] for row in core]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < m and top < n:
        # locate the smallest nonzero entry
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        piv = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            if a[i][top]:
                q = a[i][top] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, n):
            if a[top][j]:
                q = a[top][j] // piv
                for i in range(m):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility fix-up: pivot must divide the rest of the matrix
        offender = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        diag.append(abs(piv))
        top += 1
    return diag


def rank_and_torsion(
    cols: dict[int, dict[int, int]], pivot_rows: Optional[set[int]] = None
) -> tuple[int, tuple[int, ...]]:
    """Rank and the invariant factors > 1 of an integer matrix.

    The rows of the unit pivots are added to `pivot_rows` when it is
    given; the pivots of the dense Smith core are not."""
    pivots, core = _unit_pivot_reduce(cols)
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    if not core:
        return len(pivots), ()
    rows = sorted({r for col in core for r in col})
    diag = _dense_smith([[col.get(r, 0) for col in core] for r in rows])
    return len(pivots) + len(diag), tuple(d for d in diag if d > 1)


# -- chain complexes and homology ----------------------------------------------


class NotRegularError(ValueError):
    """The poset is not the face poset of a regular CW complex."""


@dataclass(frozen=True)
class ChainComplexRecord:
    """Ordered bases of cells per dimension, with integer boundary maps."""

    bases: tuple[tuple[int, ...], ...]
    boundaries: tuple[dict[int, dict[int, int]], ...]  # boundaries[k]: C_k -> C_{k-1}


def _incidences(poset: FinitePoset) -> dict[int, dict[int, int]]:
    """The signed facets of every cell of a regular CW face poset.

    An edge gets -1 on its first vertex and +1 on the other.  A higher
    cell gets +1 on its first facet, and the signs spread across its
    codimension-2 faces: each lies in exactly two of its facets f and f2,
    whose signs are set (or checked) so that the two cancel in the
    boundary of the boundary, and the spread must reach every facet.
    """
    heights = poset.heights()
    names = poset.names
    facets = poset.lower_covers
    # the first cover that skips a height, at the first cell that has one
    skip = poset.skipping_cover()
    signs: dict[int, dict[int, int]] = {}
    for c in sorted(poset.elements, key=heights.__getitem__):
        if skip is not None and skip[1] == c:
            raise NotRegularError(
                f"cell {names[c]!r}: the cover {names[skip[0]]!r} < {names[c]!r} skips a height"
            )
        fs = facets(c)
        if not fs:
            signs[c] = {}
            continue
        if heights[c] == 1:
            if len(fs) != 2:
                raise NotRegularError(
                    f"edge {names[c]!r} has vertices {[names[f] for f in fs]}, not exactly 2"
                )
            signs[c] = {fs[0]: -1, fs[1]: 1}
            continue
        over: dict[int, list[int]] = {}
        for f in fs:
            for g in facets(f):
                over.setdefault(g, []).append(f)
        across: dict[int, list[tuple[int, int]]] = {f: [] for f in fs}
        for g, pair in sorted(over.items()):
            if len(pair) != 2:
                raise NotRegularError(
                    f"cell {names[c]!r}: its face {names[g]!r} lies in {len(pair)} of its facets, not 2"
                )
            f1, f2 = pair
            across[f1].append((f2, g))
            across[f2].append((f1, g))
        sign = {fs[0]: 1}
        stack = [fs[0]]
        while stack:
            f = stack.pop()
            for f2, g in across[f]:
                want = -sign[f] * signs[f][g] * signs[f2][g]
                if f2 not in sign:
                    sign[f2] = want
                    stack.append(f2)
                elif sign[f2] != want:
                    raise NotRegularError(
                        f"cell {names[c]!r}: incidence signs disagree across its face {names[g]!r}"
                    )
        if len(sign) != len(fs):
            raise NotRegularError(f"cell {names[c]!r}: its facet graph is disconnected")
        signs[c] = sign
    return signs


def _dual_signs(system: CovectorSystem) -> dict[int, tuple[int, ...]]:
    """For each covector, the signs `_incidences` gives its upper covers
    on the dual covector poset, in their order; found once per system."""
    dual = system.covector_poset().dual()
    return system.memo(("dual signs",), lambda: {
        g: tuple(map(s.__getitem__, dual.lower_covers(g))) for g, s in _incidences(dual).items()
    })


def chain_complex(salvetti: SalvettiPoset, cells: Optional[Sequence[int]] = None) -> ChainComplexRecord:
    """The cellular chain complex of a Salvetti poset, or of its
    restriction to an ideal, its `cells` in increasing order, such as a
    localization fiber.  Cell (G, R) lies in the dimension of G's dual
    cell, and its column pairs its covers with the signs of G's upper
    covers (see the module docstring).  A boundary is keyed by cell
    number, in the order of the bases."""
    system = salvetti.system
    signs = _dual_signs(system)
    heights = system.covector_poset().dual().heights()
    keys, covers = salvetti.keys, salvetti.covers
    bases: list[list[int]] = [[] for _ in range(system.rank() + 1)]
    boundaries: list[dict[int, dict[int, int]]] = [{} for _ in bases]
    for k in range(len(keys)) if cells is None else cells:
        g = keys[k][0]
        h = heights[g]
        bases[h].append(k)
        if h:
            boundaries[h][k] = dict(zip(covers[k], signs[g]))
    while bases and not bases[-1]:
        bases.pop()
        boundaries.pop()
    return ChainComplexRecord(tuple(map(tuple, bases)), tuple(boundaries))


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def is_torsion_free(self) -> bool:
        return all(not t for t in self.torsion)


def homology(rec: ChainComplexRecord) -> HomologyResult:
    """Exact integral homology (Betti numbers and torsion coefficients) of
    a chain complex."""
    if not rec.bases:
        return HomologyResult((), ())
    dim = len(rec.bases) - 1
    sizes = [len(b) for b in rec.bases]
    ranks = [0] * (dim + 2)
    torsions: list[tuple[int, ...]] = [()] * (dim + 2)
    # clearing: from the top down, the k-cells that are unit pivot rows of
    # the boundary above are not reduced again (see the module docstring)
    cleared: set[int] = set()
    for k in range(dim, 0, -1):
        cols = {j: col for j, col in rec.boundaries[k].items() if j not in cleared}
        cleared = set()
        ranks[k], torsions[k] = rank_and_torsion(cols, cleared)
    betti = []
    tors = []
    for k in range(dim + 1):
        betti.append(sizes[k] - ranks[k] - ranks[k + 1])
        tors.append(torsions[k + 1])
    return HomologyResult(tuple(betti), tuple(tors))


# -- spec-level checks ----------------------------------------------------------


class WhitneyCheck(NamedTuple):
    ok: bool
    betti: tuple[int, ...]  # padded with zeros to the length of whitney
    whitney: tuple[int, ...]
    homology: HomologyResult


def salvetti_betti_match_whitney(system: CovectorSystem) -> WhitneyCheck:
    """The global cross-oracle: Betti numbers of the Salvetti poset must
    equal the unsigned Whitney numbers, with no torsion."""
    w = build_lattice(system).whitney()
    res = homology(chain_complex(SalvettiPoset(system)))
    betti = res.betti + (0,) * (len(w) - len(res.betti))
    return WhitneyCheck(betti[: len(w)] == w and res.is_torsion_free(), betti, w, res)


def semidirect_rank_sequence(system: CovectorSystem) -> tuple[int, ...]:
    """Generator counts of the iterated semidirect factorization, outer
    factor first, derived from a maximal chain X_0 < ... < X_r of modular
    flats of a simple system: |X_{i+1} - X_i| for i from r - 1 down to 0.
    The innermost count is 1, and a rank-0 system gives the empty
    sequence.  The chain runs from the empty flat to the ground, so the
    counts add up to the ground size."""
    system.require_simple("the semidirect rank sequence")
    lat = build_lattice(system)
    flats = lat.is_supersolvable()
    if flats is None:
        raise ValueError("system is not supersolvable")
    return tuple((flats[i + 1] & ~flats[i]).bit_count() for i in range(len(flats) - 2, -1, -1))


# -- the quasi-fibration certificate --------------------------------------------


def graph_rank(rec: ChainComplexRecord) -> Union[int, str]:
    """The free rank of a connected graph, by union-find over the vertices
    and edge columns of its chain complex, or why it is no connected
    graph.  Each edge column holds two vertices, as `_incidences`, which
    gives the signs, refuses an edge without two."""
    if len(rec.bases) > 2:
        return "complex has cells of dimension above one"
    parent = {v: v for v in rec.bases[0]} if rec.bases else {}
    edges = rec.boundaries[1].values() if len(rec.bases) == 2 else ()

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = len(parent)
    for col in edges:
        a, b = map(root, col)
        if a != b:
            parent[a] = b
            components -= 1
    if components != 1:
        return f"graph has {components} components"
    return len(edges) - len(parent) + 1


@dataclass(frozen=True)
class PairEvidence:
    """The fiber matchings of cells lower <= upper, both into the fiber of
    `ambient`, the least maximal cell above upper, and the pair's link:
    the matching of that fiber onto the fiber of `minimal`, the least
    minimal cell below lower."""

    lower: int
    upper: int
    ambient: int
    minimal: int
    lower_matching: MorseCertificate
    upper_matching: MorseCertificate
    link: MorseCertificate

    @property
    def ok(self) -> bool:
        """Both fiber matchings hold; the link is evidence of the fiber
        types, which `QuasiFibrationCertificate.fibers` reads."""
        return self.lower_matching.ok and self.upper_matching.ok


@dataclass(frozen=True)
class QuasiFibrationCertificate:
    """Evidence over the cells of `loc.target`, by number: the graph rank
    of the fiber of every minimal cell, or why it has none, and the
    checked pairs with their links."""

    loc: SalvettiLocalization
    sample: Optional[int]  # None exactly when every pair was checked
    expected_rank: int
    graph_ranks: tuple[tuple[int, Union[int, str]], ...]
    pairs: tuple[PairEvidence, ...]

    @property
    def fibers(self) -> tuple[tuple[int, Optional[str]], ...]:
        """Each minimal cell and each cell of a checked pair, with why its
        fiber is not proven a wedge of `expected_rank` circles, or None.
        A minimal fiber is proven by its graph rank, any other by every
        collapse onto it in a checked pair, with that pair's link and the
        graph rank of the linked minimal fiber; the first failure is kept."""
        d = self.expected_rank
        names, source = self.loc.target.poset.names, self.loc.source
        graph = {
            m: None if r == d else r if isinstance(r, str) else f"graph rank {r}"
            for m, r in self.graph_ranks
        }
        why = dict(graph)
        for p in self.pairs:
            amb, m = names[p.ambient], names[p.minimal]
            for cell, own in ((p.lower, p.lower_matching), (p.upper, p.upper_matching)):
                if cell in graph or why.get(cell) is not None:
                    continue
                if not own.ok:
                    why[cell] = f"collapse from {amb}: {'; '.join(own.witnesses(source.poset.names))}"
                elif not p.link.ok:
                    why[cell] = f"link {amb} -> {m}: {'; '.join(p.link.witnesses(source.poset.names))}"
                elif graph[p.minimal] is not None:
                    why[cell] = f"linked minimal fiber {m}: {graph[p.minimal]}"
                else:
                    why[cell] = None
        return tuple(sorted(why.items()))

    @property
    def failed_pairs(self) -> tuple[PairEvidence, ...]:
        return tuple(p for p in self.pairs if not p.ok)

    @property
    def failed_fibers(self) -> tuple[tuple[int, str], ...]:
        return tuple(f for f in self.fibers if f[1] is not None)

    @property
    def failed_graph_ranks(self) -> tuple[tuple[int, Union[int, str]], ...]:
        return tuple(g for g in self.graph_ranks if g[1] != self.expected_rank)

    @property
    def ok(self) -> bool:
        return not (self.failed_graph_ranks or self.failed_pairs or self.failed_fibers)


def quasi_fibration_certify(
    system: CovectorSystem,
    flat: int,
    sample: Optional[int] = None,
) -> QuasiFibrationCertificate:
    """Certify that localization of the Salvetti poset at a modular
    corank-one flat behaves as a poset quasi-fibration, at desk scale.

    For every ordered pair a <= b of cells of the localized poset, the
    fiber of A, the least maximal cell above b, carries acyclic matchings
    whose critical cells are exactly the fibers of a and of b; the fibers
    over the minimal cells are connected graphs of free rank d, one per
    element outside the flat (by union-find); and the fibers of every
    checked pair are wedges of d circles.  Every pair is checked by
    default; `sample` pairs, drawn with a fixed seed, are checked instead
    when that is fewer.  The certificate's `sample` is None exactly when
    every pair is checked, and the minimal cells are checked either way.
    The fiber inclusions hold by construction: the fiber of q is the
    union of the preimages over the cells below q, so a minimal cell's
    is its own preimage.

    The wedges are read off the collapses, and no fiber is reduced: an
    acyclic matching whose critical cells are a subcomplex collapses the
    complex onto it, and a collapse is a homotopy equivalence (Forman,
    "Morse theory for cell complexes", 1998).  Each pair also checks its
    link, the matching of the fiber of A onto the fiber of m, the least
    minimal cell below a, so the fibers of a, b and A have the homotopy
    type of the graph over m: a wedge of d circles when it is connected of
    free rank d.  An exhaustive run has checked the link already, as the
    lower matching of the pair (m, b).  The reading needs regular CW
    complexes, as the cellular homology does.  The chain complexes of the
    minimal fibers, built before any matching, read their signs off
    `_incidences` on the dual covector poset, once per system, which
    proves the whole source regular (see the module docstring) or raises
    `NotRegularError`; every fiber a matching lives on is an ideal of it.
    The pairs are certified one ambient at a time, with one
    stratification alive at a time.  The target order is read by its sign
    rule (`SalvettiPoset.ideal`) and along its covers, not off its masks.

    No glued matching is built or walked: a PASS's acyclicity and
    critical cells rest on the patchwork theorem, as `morse.certify_fibers`
    argues, with its hypotheses checked once per ambient (a
    `MatchingError` when one fails).  A PASS builds no source
    `FinitePoset`, which names failures only, and no sphere or ball
    poset: each local matching collapses its ball on the covers of its
    system's covector poset.
    """
    if sample is not None and sample < 1:
        raise ValueError("sample must be at least 1")
    lat = build_lattice(system)
    x = lat.check_flat(flat)
    if lat.rank_of[x] != lat.rank() - 1:
        raise ValueError("flat must have corank one")
    check = lat.is_modular_flat(x)
    if not check.ok:
        raise ValueError(f"flat must be modular; witness {check.witness_text(system.ground)}")
    loc = salvetti_localization(system, x)
    expected = len(system.ground) - x.bit_count()

    target = loc.target
    pairs_all = [(a, b) for b in range(len(target)) for a in target.ideal(b)]
    if sample is not None and sample < len(pairs_all):
        pairs_all = random.Random(0).sample(pairs_all, sample)
    else:
        sample = None

    # each cell's least minimal cell below, handed up the covers (a cell's lower
    # covers come first), and its least maximal cell above, its pairs' ambient, handed down
    low, ambient = list(range(len(target))), {}
    for q, lower in target.covers.items():
        low[q] = min((low[c] for c in lower), default=q)
    for q, lower in reversed(target.covers.items()):
        top = ambient.setdefault(q, q)  # nothing handed down to q: it is maximal
        for c in lower:
            ambient[c] = min(ambient.get(c, top), top)
    minimal = [m for m, least in enumerate(low) if least == m]
    graph_ranks = tuple((m, graph_rank(chain_complex(loc.source, loc.preimages[m]))) for m in minimal)

    by_ambient: dict[int, list[tuple[int, int]]] = {}
    for a, b in sorted(pairs_all):
        by_ambient.setdefault(ambient[b], []).append((a, b))
    pairs = []
    for amb, amb_pairs in sorted(by_ambient.items()):
        # one stratification serves every matching into the fiber of amb,
        # and is let go before the next is built
        triples = [(a, b, low[a]) for a, b in amb_pairs]
        strat = stratify_fiber(loc, target.keys[amb][1])
        certs = certify_fibers(strat, dict.fromkeys(cell for triple in triples for cell in triple))
        pairs.extend(PairEvidence(a, b, amb, m, certs[a], certs[b], certs[m]) for a, b, m in triples)
        del strat
    pairs.sort(key=lambda p: (p.lower, p.upper))
    return QuasiFibrationCertificate(loc, sample, expected, graph_ranks, tuple(pairs))
