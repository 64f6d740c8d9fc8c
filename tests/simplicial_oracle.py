"""The independent homology oracle: the simplicial chain complex, with
ordered-vertex orientations, reduced by `rank_and_torsion`.  Production
homology takes the signs of a Salvetti complex from the dual covector
complex, once per covector; `cellular_chain_complex` reads them off any
regular CW face poset cell by cell, with `_incidences`, the per-cell
reference for those signs, and `poset_homology` reduces it.  The
cellular and simplicial complexes meet on order complexes (barycentric
subdivisions) and on simplicial complexes given by their facets, whose
face posets `from_facets` builds.  `uncleared_homology` reduces every
column of a chain complex, the reference for production homology's
clearing, and `squares_to_zero` multiplies the boundary maps out, the
oracle for the sign construction that makes them square to zero.
`betti_numbers` is `poset_homology` with trailing zeros trimmed."""

from itertools import combinations

from omkit.homology import (
    ChainComplexRecord,
    HomologyResult,
    _incidences,
    homology,
    rank_and_torsion,
)
from omkit.posets import FinitePoset, SimplicialComplexRecord
from poset_builders import from_below

# the minimal triangulation of the real projective plane, on six vertices:
# torsion Z/2 in dimension one
RP2_FACETS = [
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
    [2, 3, 5], [3, 5, 6], [3, 4, 6], [2, 4, 6], [2, 4, 5],
]


def from_facets(facets) -> FinitePoset:
    """The face poset of the simplicial complex the facets span (no
    empty face); a face is named by its vertices, sorted and joined
    with commas."""
    faces: set[frozenset[str]] = set()
    for facet in facets:
        stack = [frozenset(facet)]
        while stack:
            f = stack.pop()
            if f and f not in faces:
                faces.add(f)
                stack.extend(f - {v} for v in f)
    name = {f: ",".join(sorted(f)) for f in faces}
    index = {f: i for i, f in enumerate(sorted(faces, key=name.__getitem__))}
    # in size order, each face's below mask is read off those one vertex smaller
    below: dict[int, int] = {}
    for f in sorted(faces, key=len):
        m = 1 << index[f]
        if len(f) > 1:
            for v in f:
                m |= below[index[f - {v}]]
        below[index[f]] = m
    return from_below(sorted(name.values()), below)


def cellular_chain_complex(poset: FinitePoset) -> ChainComplexRecord:
    """The cellular chain complex of a regular CW face poset, cell by
    cell: the cells of each height in increasing order, and column c the
    signed facets `_incidences` finds for c."""
    signs = _incidences(poset)
    heights = poset.heights()
    bases: list[list[int]] = [[] for _ in range(max(heights.values(), default=-1) + 1)]
    for c in poset.elements:
        bases[heights[c]].append(c)
    boundaries = [{}] + [{c: signs[c] for c in level} for level in bases[1:]]
    return ChainComplexRecord(tuple(map(tuple, bases)), tuple(boundaries))


def poset_homology(poset: FinitePoset) -> HomologyResult:
    """Production homology of the cell-by-cell chain complex of a face
    poset."""
    return homology(cellular_chain_complex(poset))


def betti_numbers(poset: FinitePoset) -> tuple[int, ...]:
    """The Betti numbers of a face poset, trailing zeros trimmed."""
    betti = list(poset_homology(poset).betti)
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def homology_of_ranks(sizes, ranks, torsion) -> HomologyResult:
    """Homology from the basis sizes and, per k, the rank and torsion of
    the boundary C_k -> C_{k-1} (index 0 and dim + 1 hold zeros)."""
    dim = len(sizes) - 1
    betti = tuple(sizes[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1))
    return HomologyResult(betti, tuple(torsion[1:dim + 2]))


def uncleared_homology(rec: ChainComplexRecord) -> HomologyResult:
    """Homology of a chain complex, every column of every boundary
    reduced."""
    dim = len(rec.bases) - 1
    ranks = [0] * (dim + 2)
    torsion = [()] * (dim + 2)
    for k in range(1, dim + 1):
        ranks[k], torsion[k] = rank_and_torsion(rec.boundaries[k])
    return homology_of_ranks([len(b) for b in rec.bases], ranks, torsion)


def squares_to_zero(rec: ChainComplexRecord) -> bool:
    """Every composite C_k -> C_{k-1} -> C_{k-2} is zero, multiplied out
    column by column."""
    for k in range(2, len(rec.boundaries)):
        inner = rec.boundaries[k - 1]
        for col in rec.boundaries[k].values():
            acc: dict[int, int] = {}
            for r, v in col.items():
                for rr, vv in inner.get(r, {}).items():
                    acc[rr] = acc.get(rr, 0) + v * vv
            if any(acc.values()):
                return False
    return True


def complex_of_facets(facets) -> SimplicialComplexRecord:
    """The simplicial complex the facets span, every face listed."""
    faces = {
        frozenset(face)
        for facet in map(set, facets)
        for k in range(1, len(facet) + 1)
        for face in combinations(facet, k)
    }
    return SimplicialComplexRecord(sorted(set().union(*faces)), faces)


def simplicial_homology(complex_record: SimplicialComplexRecord) -> HomologyResult:
    """Betti numbers and torsion from the simplicial chain complex."""
    vertex_order = {v: i for i, v in enumerate(complex_record.vertices)}
    dim = max((len(f) - 1 for f in complex_record.faces), default=-1)
    bases = [[] for _ in range(dim + 1)]
    for f in complex_record.faces:
        bases[len(f) - 1].append(tuple(sorted(f, key=vertex_order.__getitem__)))
    index = [{s: i for i, s in enumerate(level)} for level in bases]
    # ranks[k] is the rank of the boundary C_k -> C_{k-1}
    ranks = [0] * (dim + 2)
    torsion = [()] * (dim + 2)
    for d in range(1, dim + 1):
        boundary = {
            j: {index[d - 1][s[:k] + s[k + 1:]]: (-1) ** k for k in range(len(s))}
            for s, j in index[d].items()
        }
        ranks[d], torsion[d] = rank_and_torsion(boundary)
    return homology_of_ranks([len(b) for b in bases], ranks, torsion)


def order_complex_homology(poset) -> HomologyResult:
    """Homology of the barycentric subdivision of a face poset."""
    return simplicial_homology(poset.order_complex())
