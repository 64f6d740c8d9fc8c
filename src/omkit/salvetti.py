"""The Salvetti poset of a covector system and its localization maps.

Cells are pairs (sigma, T) with sigma below the tope T, ordered by
(sigma, T) <= (tau, R)  iff  sigma >= tau and sigma o R = T, so the ideal
below (G, R) is {(F, F o R) : F >= G}.  It is read off the system's cached
covector poset.  Cell k is the pair `keys[k]` of covector numbers; cells
are numbered in the order of their ids "(sigma;T)", which are rendered
once, as the poset's names.  The fiber stratification over a modular
corank-one flat is the combinatorial heart of the quasi-fibration
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .lattices import build_lattice, GeometricLattice
from .matroids import CovectorSystem, section_lift
from .posets import FinitePoset, PosetMap, bits, mask_of
from .signs import SignVector, compose_masks


class StratificationError(ValueError):
    """The fiber stratification hypotheses (modular, corank one) fail."""


class SalvettiCell(NamedTuple):
    face: SignVector
    tope: SignVector

    @property
    def id(self) -> str:
        return cell_id(self.face, self.tope)


def cell_id(face: SignVector, tope: SignVector) -> str:
    """The display name of a cell."""
    return f"({face};{tope})"


def parse_cell_id(text: str, system: CovectorSystem) -> SalvettiCell:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        a, b = body.split(";")
    except ValueError:
        raise ValueError(f"malformed cell id {text!r}") from None
    return SalvettiCell(system.vector(a), system.vector(b))


class SalvettiPoset:
    """Face poset of the Salvetti complex of a covector system."""

    __slots__ = ("system", "cells", "keys", "index", "poset")

    def __init__(self, system: CovectorSystem):
        order = system.covector_poset()
        names = order.names
        vectors = system.vectors()
        number = system.numbering()
        topes = order.maximal_elements()
        keys = sorted((c, t) for t in bits(topes) for c in bits(order.below(t)))
        index = {key: k for k, key in enumerate(keys)}
        below = {}
        for r in bits(topes):
            vr = vectors[r]
            for g in bits(order.below(r)):
                m = 0
                for f in bits(order.above(g)):
                    vf = vectors[f]
                    fr = compose_masks(vf.plus, vf.minus, vr.plus, vr.minus)
                    t = number.get(fr, -1)
                    if t < 0 or not topes >> t & 1:
                        bad = SignVector(system.ground, *fr)
                        what = "tope" if bad in system else "covector"
                        raise ValueError(f"composition {names[f]} o {names[r]} = {bad} is not a {what}")
                    m |= 1 << index[f, t]
                below[index[g, r]] = m
        poset = FinitePoset([f"({names[c]};{names[t]})" for c, t in keys], below)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "cells", tuple(SalvettiCell(vectors[c], vectors[t]) for c, t in keys))
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "poset", poset)
        # sanity of the construction: extremes are as forced by the order
        zero = number.get((0, 0), -1)
        if poset.maximal_elements() != mask_of(k for k, (g, _) in enumerate(keys) if g == zero):
            raise AssertionError("maximal cells are not the (0, T)")
        if poset.minimal_elements() != mask_of(k for k, (g, r) in enumerate(keys) if g == r):
            raise AssertionError("minimal cells are not the (T, T)")

    def __setattr__(self, name, value):
        raise AttributeError("SalvettiPoset is immutable")

    def __len__(self) -> int:
        return len(self.cells)

    def cell_number(self, face: SignVector, tope: SignVector) -> Optional[int]:
        """The cell (face, tope), or None when it is not a cell."""
        number = self.system.numbering()
        return self.index.get(
            (number.get((face.plus, face.minus)), number.get((tope.plus, tope.minus)))
        )

    def dimension_of(self, cell: int) -> int:
        """The dimension of a cell: its height in the Salvetti poset."""
        return self.poset.heights()[cell]


def salvetti(system: CovectorSystem) -> SalvettiPoset:
    return SalvettiPoset(system)


def affine_salvetti(system: CovectorSystem, g: str) -> FinitePoset:
    """The subposet on the cells whose face (hence tope) is positive on g."""
    bit = system.label_mask([g])
    salv = SalvettiPoset(system)
    return salv.poset.subposet(mask_of(k for k, c in enumerate(salv.cells) if c.face.plus & bit))


@dataclass(frozen=True)
class SalvettiLocalization:
    """The localization map between Salvetti posets at a flat, with the
    covector-level localization `rho` it is induced by."""

    system: CovectorSystem
    flat: frozenset[str]
    localized: CovectorSystem
    source: SalvettiPoset
    target: SalvettiPoset
    map: PosetMap
    rho: PosetMap

    def section(self, alpha: SignVector) -> PosetMap:
        """The section induced by a covector with zero set equal to the flat."""
        if alpha not in self.system or alpha.zero_set() != self.flat:
            raise ValueError("alpha must be a covector with zero set the flat")
        number = self.system.numbering()
        lift = []
        for v in self.localized.vectors():
            w = section_lift(alpha, v)
            lift.append(number.get((w.plus, w.minus)))
        assignment = {}
        for k, (f, t) in enumerate(self.target.keys):
            cell = self.source.index.get((lift[f], lift[t]))
            if cell is None:
                raise AssertionError(f"section image of {self.target.poset.names[k]} not a cell")
            assignment[k] = cell
        out = PosetMap(self.target.poset, self.source.poset, assignment)
        for k in self.target.poset.elements:
            if self.map.assignment[assignment[k]] != k:
                raise AssertionError("section identity fails")
        return out

    def target_cell(self, cell: SalvettiCell) -> int:
        """The number of a cell of the localized poset; ValueError if it is
        not one."""
        k = self.target.cell_number(cell.face, cell.tope)
        if k is None:
            raise ValueError(f"unknown cell {cell.id!r} of the localized poset")
        return k

    def fiber(self, cell: int) -> FinitePoset:
        return self.map.fiber(cell)


def salvetti_localization(
    system: CovectorSystem, flat: Iterable[str]
) -> SalvettiLocalization:
    x = frozenset(flat)
    localized, rho = system.localization(x)
    source = SalvettiPoset(system)
    target = SalvettiPoset(localized)
    r = rho.assignment
    assignment = {k: target.index[r[f], r[t]] for k, (f, t) in enumerate(source.keys)}
    pmap = PosetMap(source.poset, target.poset, assignment)
    return SalvettiLocalization(system, x, localized, source, target, pmap, rho)


def principal_ideal_iso(
    salv: SalvettiPoset, tope: SignVector
) -> tuple[PosetMap, PosetMap]:
    """The isomorphism between the ideal below (0, T) and the dual covector
    poset: (F, R) maps to F, with inverse F maps to (F, F o T)."""
    system = salv.system
    top = salv.cell_number(system.zero, tope)
    if top is None:
        raise ValueError(f"{cell_id(system.zero, tope)} is not a cell")
    ideal_mask = salv.poset.below(top)
    ideal = salv.poset.subposet(ideal_mask)
    dual = system.covector_poset().dual()
    number = system.numbering()
    fwd = {k: salv.keys[k][0] for k in bits(ideal_mask)}
    bwd = {
        c: salv.index[c, number[compose_masks(v.plus, v.minus, tope.plus, tope.minus)]]
        for c, v in enumerate(system.vectors())
    }
    to_dual = PosetMap(ideal, dual, fwd)
    from_dual = PosetMap(dual, ideal, bwd)
    if len(ideal) != len(system.covectors):
        raise AssertionError("principal ideal has the wrong size")
    for k in ideal.elements:
        if bwd[fwd[k]] != k:
            raise AssertionError("principal-ideal maps are not mutually inverse")
    return to_dual, from_dual


def localization_square_commutes(
    loc: SalvettiLocalization, tope: SignVector
) -> bool:
    """Check cell-by-cell that localization restricted to the ideal below
    (0, T) matches the covector-level localization under the ideal
    isomorphisms."""
    keep = [lab for lab in loc.system.ground if lab in loc.flat]
    to_dual, _ = principal_ideal_iso(loc.source, tope)
    to_dual_loc, _ = principal_ideal_iso(loc.target, tope.restrict(keep))
    return all(
        to_dual_loc.assignment[loc.map.assignment[k]] == loc.rho.assignment[face]
        for k, face in to_dual.assignment.items()
    )


@dataclass(frozen=True)
class FiberStratification:
    """The stratification of a maximal-cell fiber over a modular
    corank-one flat into copies of contraction balls.

    `lifts[0]` sends each covector c to its cell (c, c o T_0) of stratum
    0; for i > 0, `lifts[i]` sends each localized covector to the cell
    (c, c o T_i) of stratum i whose face c restricts to it.  `projection`
    sends each fiber cell to its stratum, on the chain of strata."""

    loc: SalvettiLocalization
    base_tope: SignVector  # B' in the localized system
    top: int  # the cell (0, B') of the localized poset
    fiber: FinitePoset
    tope_string: tuple[SignVector, ...]
    separators: tuple[frozenset[str], ...]  # S(T_{i-1}, T_i), singletons
    strata: tuple[int, ...]  # masks of cells, N_0, ..., N_k
    filters: tuple[frozenset[frozenset[str]], ...]  # J_i as sets of flats
    lifts: tuple[tuple[int, ...], ...]
    projection: PosetMap


def stratify_fiber(
    loc: SalvettiLocalization,
    base_tope: SignVector,
    lattice: Optional[GeometricLattice] = None,
) -> FiberStratification:
    """Order the fiber topes into a string and slice the fiber into strata.

    Requires the flat to be modular of corank one; anything else is
    refused since the string structure is exactly what modularity of a
    coatom buys.
    """
    system = loc.system
    lattice = lattice or build_lattice(system)
    x = loc.flat
    if lattice.rank_of[x] != lattice.rank() - 1:
        raise StratificationError(f"{lattice.id(x)} does not have corank 1")
    check = lattice.is_modular_flat(x)
    if not check.ok:
        raise StratificationError(
            f"{lattice.id(x)} is not modular; witness {check.witness}"
        )
    if base_tope not in loc.localized.topes():
        raise ValueError(f"{base_tope} is not a tope of the localization")

    order = system.covector_poset()
    vectors = system.vectors()
    number = system.numbering()
    rho = loc.rho.assignment
    b = loc.localized.numbering()[base_tope.plus, base_tope.minus]
    fiber_topes = [vectors[t] for t in bits(order.maximal_elements()) if rho[t] == b]
    # the two covectors with zero set X; the lex-smaller one anchors the string
    xmask = system.label_mask(x)
    anchors = [v for v in vectors if v.zero_mask == xmask]
    if len(anchors) != 2:
        raise AssertionError("corank-one flat must carry exactly two covectors")
    alpha = anchors[0]
    # iota_alpha(B') = B' on X, alpha elsewhere
    t0 = section_lift(alpha, base_tope)
    if t0 not in system:
        raise AssertionError("lifted base tope is not a covector")
    string = sorted(fiber_topes, key=lambda t: len(t.separator(t0)))
    # the induced order must be a chain: distances 0..k and nested separators
    for i, t in enumerate(string):
        if len(t.separator(t0)) != i:
            raise AssertionError("fiber topes do not form a string")
        if i > 0 and not (string[i - 1].separator(t0) < t.separator(t0)):
            raise AssertionError("fiber tope separators are not nested")
    separators = tuple(
        string[i - 1].separator(string[i]) for i in range(1, len(string))
    )
    for s in separators:
        if len(s) != 1:
            raise AssertionError(f"consecutive fiber topes separate by {sorted(s)}")

    top = loc.target.cell_number(loc.localized.zero, base_tope)
    fiber = loc.fiber(top)
    source = loc.source
    zero = number[0, 0]
    tnum = [number[t.plus, t.minus] for t in string]
    strata: list[int] = []
    used = 0
    for t in tnum:
        ideal = source.poset.below(source.index[zero, t])
        strata.append(ideal & ~used)
        used |= ideal
    if used != fiber.members:
        raise AssertionError("strata do not cover the fiber exactly")
    # J_i: flats meeting every separator from earlier topes; principal
    filters = [frozenset(lattice.flats)] + [
        frozenset(f for f in lattice.flats if s <= f) for s in separators
    ]

    def cell_over(c: int, t: int) -> int:
        vc, vt = vectors[c], vectors[t]
        return source.index[c, number[compose_masks(vc.plus, vc.minus, vt.plus, vt.minus)]]

    lifts = [tuple(cell_over(c, tnum[0]) for c in order.elements)]
    width = len(loc.localized.covectors)
    for i in range(1, len(string)):
        ebit = system.label_mask(separators[i - 1])
        iso: dict[int, int] = {}
        for c in order.elements:
            if vectors[c].support_mask & ebit:
                continue
            if rho[c] in iso:
                raise AssertionError("restriction is not injective on the stratum")
            iso[rho[c]] = c
        if len(iso) != width:
            raise AssertionError("restriction is not onto the localization")
        lifts.append(tuple(cell_over(iso[y], tnum[i]) for y in range(width)))

    digits = len(str(len(string) - 1))
    chain = FinitePoset(
        [f"t{i:0{digits}d}" for i in range(len(string))],
        {i: (2 << i) - 1 for i in range(len(string))},
    )
    stratum_of = {c: i for i, s in enumerate(strata) for c in bits(s)}
    return FiberStratification(
        loc,
        base_tope,
        top,
        fiber,
        tuple(string),
        separators,
        tuple(strata),
        tuple(filters),
        tuple(lifts),
        PosetMap(fiber, chain, stratum_of),
    )


def fiber_rank2_model(
    loc: SalvettiLocalization, base_tope: SignVector, g: str = "g"
) -> tuple[CovectorSystem, dict[str, str]]:
    """A rank-two system whose decone matches the covector fiber over a
    tope of the localization.

    The fiber cells keep their values off the flat and gain a positive
    entry on a fresh element; the two covectors supported exactly off the
    flat become the model's extra cocircuit pair.  Returns the model and
    the cell correspondence (fiber covector text -> model covector text).
    """
    system = loc.system
    x = loc.flat
    if g in system.ground:
        raise ValueError(f"label {g!r} already in use")
    rest = [lab for lab in system.ground if lab not in x]
    keep = [lab for lab in system.ground if lab in x]
    fiber_cells = [c for c in system.covectors if c.restrict(keep) == base_tope]
    ground = tuple(rest) + (g,)
    gi = len(rest)
    model: set[SignVector] = {SignVector.zero(ground)}
    mapping: dict[str, str] = {}
    for c in fiber_cells:
        r = c.restrict(rest)
        v = SignVector(ground, r.plus | (1 << gi), r.minus)
        model.add(v)
        model.add(v.opposite())
        mapping[str(c)] = str(v)
    anchors = sorted((c for c in system.covectors if c.zero_set() == x), key=str)
    for a in anchors:
        r = a.restrict(rest)
        model.add(SignVector(ground, r.plus, r.minus))
    return CovectorSystem(ground, model), mapping
