"""The Salvetti poset of a covector system and its localization maps.

Cells are pairs (sigma, T) with sigma below the tope T, ordered by
(sigma, T) <= (tau, R)  iff  sigma >= tau and sigma o R = T, so the ideal
below (G, R) is {(F, F o R) : F >= G}.  It is read off the system's cached
covector poset, and each cell id "(sigma;T)" is rendered once.  The fiber
stratification over a modular corank-one flat is the combinatorial heart
of the quasi-fibration certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .lattices import build_lattice, GeometricLattice
from .matroids import CovectorSystem, NotAFlatError, section_lift
from .posets import FinitePoset, PosetMap
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

    __slots__ = ("system", "cells", "poset", "by_id")

    def __init__(self, system: CovectorSystem):
        order = system.covector_poset()
        vec = system.by_text()
        topes = {(t.plus, t.minus): str(t) for t in system.topes()}
        ids = {
            (c, t): f"({c};{t})"
            for t in sorted(topes.values())
            for c in sorted(order.below(t))
        }
        pairs = []
        for (g, r), y in ids.items():
            for f in sorted(order.above(g)):
                fr = compose_masks(vec[f].plus, vec[f].minus, vec[r].plus, vec[r].minus)
                if fr not in topes:
                    bad = SignVector(system.ground, *fr)
                    what = "tope" if bad in system else "covector"
                    raise ValueError(f"composition {f} o {r} = {bad} is not a {what}")
                pairs.append((ids[f, topes[fr]], y))
        cells = [SalvettiCell(vec[c], vec[t]) for c, t in ids]
        poset = FinitePoset(ids.values(), pairs)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "cells", tuple(cells))
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "by_id", dict(zip(ids.values(), cells)))
        # sanity of the construction: extremes are as forced by the order
        zero = str(system.zero)
        if poset.maximal_elements() != {y for (g, _), y in ids.items() if g == zero}:
            raise AssertionError("maximal cells are not the (0, T)")
        if poset.minimal_elements() != {y for (g, r), y in ids.items() if g == r}:
            raise AssertionError("minimal cells are not the (T, T)")

    def __setattr__(self, name, value):
        raise AttributeError("SalvettiPoset is immutable")

    def __len__(self) -> int:
        return len(self.cells)

    def dimension_of(self, cid: str) -> int:
        """The dimension of a cell: its height in the Salvetti poset."""
        return self.poset.heights()[cid]


def salvetti(system: CovectorSystem) -> SalvettiPoset:
    return SalvettiPoset(system)


def affine_salvetti(system: CovectorSystem, g: str) -> FinitePoset:
    """The subposet on the cells whose face (hence tope) is positive on g."""
    bit = system.label_mask([g])
    salv = SalvettiPoset(system)
    return salv.poset.subposet(cid for cid, c in salv.by_id.items() if c.face.plus & bit)


@dataclass(frozen=True)
class SalvettiLocalization:
    """The localization map between Salvetti posets at a flat."""

    system: CovectorSystem
    flat: frozenset[str]
    localized: CovectorSystem
    source: SalvettiPoset
    target: SalvettiPoset
    map: PosetMap

    def section(self, alpha: SignVector) -> PosetMap:
        """The section induced by a covector with zero set equal to the flat."""
        if alpha not in self.system or alpha.zero_set() != self.flat:
            raise ValueError("alpha must be a covector with zero set the flat")
        assignment = {}
        for cell in self.target.cells:
            lifted = SalvettiCell(
                section_lift(alpha, cell.face), section_lift(alpha, cell.tope)
            )
            if lifted.id not in self.source.by_id:
                raise AssertionError(f"section image {lifted.id} not a cell")
            assignment[cell.id] = lifted.id
        out = PosetMap(self.target.poset, self.source.poset, assignment)
        for cid in self.target.poset.elements:
            if self.map.assignment[out.assignment[cid]] != cid:
                raise AssertionError("section identity fails")
        return out

    def target_cell(self, cell: str | SalvettiCell) -> SalvettiCell:
        """The cell of the localized poset with this id (or equal to this
        cell); ValueError if there is none."""
        cid = cell.id if isinstance(cell, SalvettiCell) else cell
        if cid not in self.target.by_id:
            raise ValueError(f"unknown cell {cid!r} of the localized poset")
        return self.target.by_id[cid]

    def fiber(self, cell: str | SalvettiCell) -> FinitePoset:
        return self.map.fiber(self.target_cell(cell).id)


def salvetti_localization(
    system: CovectorSystem, flat: Iterable[str]
) -> SalvettiLocalization:
    x = frozenset(flat)
    if not system.is_flat(x):
        raise NotAFlatError(f"{sorted(x)} is not a flat")
    localized = system.restriction(x)
    source = SalvettiPoset(system)
    target = SalvettiPoset(localized)
    keep = [lab for lab in system.ground if lab in x]
    assignment = {
        cid: cell_id(c.face.restrict(keep), c.tope.restrict(keep))
        for cid, c in source.by_id.items()
    }
    pmap = PosetMap(source.poset, target.poset, assignment)
    return SalvettiLocalization(system, x, localized, source, target, pmap)


def principal_ideal_iso(
    salv: SalvettiPoset, tope: SignVector
) -> tuple[PosetMap, PosetMap]:
    """The isomorphism between the ideal below (0, T) and the dual covector
    poset: (F, R) maps to F, with inverse F maps to (F, F o T)."""
    system = salv.system
    top_id = cell_id(system.zero, tope)
    if top_id not in salv.by_id:
        raise ValueError(f"{top_id} is not a cell")
    ideal_ids = salv.poset.below(top_id)
    ideal = salv.poset.subposet(ideal_ids)
    dual = system.covector_poset().dual()
    fwd = {cid: str(salv.by_id[cid].face) for cid in ideal_ids}
    bwd = {
        str(c): cell_id(c, c.compose(tope)) for c in system.covectors
    }
    to_dual = PosetMap(ideal, dual, fwd)
    from_dual = PosetMap(dual, ideal, bwd)
    if len(ideal_ids) != len(system.covectors):
        raise AssertionError("principal ideal has the wrong size")
    for cid in ideal_ids:
        if bwd[fwd[cid]] != cid:
            raise AssertionError("principal-ideal maps are not mutually inverse")
    return to_dual, from_dual


def localization_square_commutes(
    loc: SalvettiLocalization, tope: SignVector
) -> bool:
    """Check cell-by-cell that localization restricted to the ideal below
    (0, T) matches the covector-level localization under the ideal
    isomorphisms."""
    system = loc.system
    keep = [lab for lab in system.ground if lab in loc.flat]
    to_dual, _ = principal_ideal_iso(loc.source, tope)
    tope_loc = tope.restrict(keep)
    to_dual_loc, _ = principal_ideal_iso(loc.target, tope_loc)
    for cid in to_dual.source.elements:
        down = loc.map.assignment[cid]
        via_target = to_dual_loc.assignment[down]
        via_dual = str(loc.source.by_id[cid].face.restrict(keep))
        if via_target != via_dual:
            return False
    return True


@dataclass(frozen=True)
class FiberStratification:
    """The stratification of a maximal-cell fiber over a modular
    corank-one flat into copies of contraction balls."""

    loc: SalvettiLocalization
    base_tope: SignVector  # B' in the localized system
    fiber: FinitePoset
    tope_string: tuple[SignVector, ...]
    separators: tuple[frozenset[str], ...]  # S(T_{i-1}, T_i), singletons
    strata: tuple[frozenset[str], ...]  # cell ids, N_0, ..., N_k
    filters: tuple[frozenset[frozenset[str]], ...]  # J_i as sets of flats


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

    keep = [lab for lab in system.ground if lab in x]
    fiber_topes = sorted(
        (t for t in system.topes() if t.restrict(keep) == base_tope), key=str
    )
    # the two covectors with zero set X; the lex-smaller one anchors the string
    anchors = sorted(
        (c for c in system.covectors if c.zero_set() == x), key=str
    )
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

    top_cell = cell_id(loc.localized.zero, base_tope)
    fiber = loc.fiber(top_cell)
    zero = system.zero
    ideals = [
        loc.source.poset.below(cell_id(zero, t)) for t in string
    ]
    strata: list[frozenset[str]] = []
    used: set[str] = set()
    for i, ideal in enumerate(ideals):
        stratum = frozenset(ideal - used)
        strata.append(stratum)
        used |= ideal
    if frozenset(used) != frozenset(fiber.elements):
        raise AssertionError("strata do not cover the fiber exactly")
    # J_i: flats meeting every separator from earlier topes; principal
    filters: list[frozenset[frozenset[str]]] = []
    all_flats = frozenset(lattice.flats)
    for i in range(len(string)):
        if i == 0:
            filters.append(all_flats)
        else:
            e = next(iter(separators[i - 1]))
            filters.append(frozenset(f for f in lattice.flats if e in f))
    return FiberStratification(
        loc,
        base_tope,
        fiber,
        tuple(string),
        separators,
        tuple(strata),
        tuple(filters),
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
