"""The Salvetti poset of a covector system and its localization maps.

Cells are pairs (sigma, T) with sigma below the tope T, ordered by
(sigma, T) <= (tau, R)  iff  sigma >= tau and sigma o R = T, so the ideal
below (G, R) is {(F, F o R) : F >= G}.  It is read off the system's cached
covector poset, from the top height down: F o R = F o (U o R) for F >= U,
so the lower covers of (G, R) are the cells (U, U o R) for the upper
covers U of G, each one composition, and U -> (U, U o R) is an order
isomorphism from the closed dual cell of G onto the ideal below (G, R);
`omkit.homology` reads the incidence signs through it, once per covector.
A `SalvettiPoset` keeps its cells, read off the topes above each
covector as they are handed down the lower covers (so no mask is
derived), and their covers, and lists the cells below a cell by the rule
above (`ideal`); its `FinitePoset`, named by the cell ids "(sigma;T)", is
built on the first read of `poset` to name cells, and its masks only for
the fiber `morse --construction fiber` glues on.  The compositions are topes
exactly when every F o R with F above a face of R is one; when one is
not, the direct loop over topes, faces and covectors is rescanned to
name its first failing composition.  Everything here is by number: a
covector or tope is its element of `system.covector_poset()`, its value
the (plus, minus) pair `system.vectors()[i]`, and cell k is the pair
`keys[k]` of covector numbers (`index` inverts it), numbered by (sigma,
T), the order of their ids.  Sign text is parsed and rendered only by
the command line.  A flat is a ground-bit mask.  Localization at a flat
is restriction to it: the covector projection rho, the cell map and its
preimages are tuples of element numbers; a poset fiber is the preimages
over a target ideal.  The fiber stratification over a modular
corank-one flat, the combinatorial heart of the quasi-fibration
certificates, is proposed here as a tope string; `morse.check_patchwork`
walks its strata down the source covers and reads their lifts off them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattices import build_lattice
from .matroids import CovectorSystem, flat_id, section_lift
from .posets import FinitePoset, PosetError, bits
from .signs import compose_masks, separator_masks, sign_text


class StratificationError(ValueError):
    """The fiber stratification hypotheses (modular, corank one) fail."""


def _raise_first_bad_composition(system: CovectorSystem) -> None:
    """Name the first composition f o r that is not a tope, over the
    topes r, then the faces g of r, then the covectors f >= g."""
    order = system.covector_poset()
    vectors = system.vectors()
    number = system.numbering()
    topes = system.topes()
    for r in bits(topes):
        for g in bits(order.below(r)):
            for f in bits(order.dual().below(g)):
                fr = compose_masks(*vectors[f], *vectors[r])
                t = number.get(fr, -1)
                if t < 0 or not topes >> t & 1:
                    bad = sign_text(*fr, len(system.ground))
                    what = "tope" if fr in number else "covector"
                    raise ValueError(f"composition {order.names[f]} o {order.names[r]} = {bad} is not a {what}")
    raise AssertionError("no composition fails")


class SalvettiPoset:
    """Face poset of the Salvetti complex of a covector system: its cells
    (`keys`, `index`) and their lower covers, walked top down (`covers`)."""

    __slots__ = ("system", "keys", "index", "covers", "_poset")

    def __init__(self, system: CovectorSystem):
        order = system.covector_poset()
        vectors = system.vectors()
        number = system.numbering()
        topes = bits(system.topes())
        heights = order.heights()
        lower, upper = order.lower_covers, order.dual().lower_covers
        down = sorted(order.elements, key=lambda c: -heights[c])
        # the topes above each covector, a mask over `topes`, handed down
        # the lower covers: a covector's upper covers are walked before it
        above = [0] * len(vectors)
        for i, t in enumerate(topes):
            above[t] = 1 << i
        for g in down:
            for c in lower(g):
                above[c] |= above[g]
        keys = [(c, topes[i]) for c in order.elements for i in bits(above[c])]
        index = {key: k for k, key in enumerate(keys)}
        # the cells (c, t) on each face c, keyed by the signs of t off the
        # support of c, as one int (plus bits, then minus bits above them):
        # t agrees with c on its support, so that key names t
        n = len(system.ground)
        off = [~(s | s << n) for s in (p | m for p, m in vectors)]
        over: list[dict[int, int]] = [{} for _ in vectors]
        for k, (c, t) in enumerate(keys):
            over[c][(vectors[t][0] | vectors[t][1] << n) & off[c]] = k
        # top down: the lower covers of (g, r) are the cells (u, u o r) for
        # the upper covers u of g, walked before it; they increase with u.
        # u o r is r off the support of u, which lies off that of g, so its
        # key on u is the key of r on g off the support of u; it is a tope
        # exactly when that key names a cell on u
        covers: dict[int, tuple[int, ...]] = {}
        for g in down:
            ups = [(over[u], off[u]) for u in upper(g)]
            for key, k in over[g].items():
                cs = []
                for cells, free in ups:
                    cell = cells.get(key & free)
                    if cell is None:
                        _raise_first_bad_composition(system)
                    cs.append(cell)
                covers[k] = tuple(cs)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "_poset", None)
        # sanity of the construction, read off the covers: the cells with
        # no covers, and those no cell covers, are the (T, T) and the (0, T)
        zero = number.get((0, 0), -1)
        minimal = [index[t, t] for t in topes]
        if list(covers.values()).count(()) != len(minimal) or any(covers[k] for k in minimal):
            raise AssertionError("minimal cells are not the (T, T)")
        covered = set().union(*covers.values())
        maximal = [index.get((zero, t), -1) for t in topes]
        if len(keys) - len(covered) != len(maximal) or any(k in covered or k < 0 for k in maximal):
            raise AssertionError("maximal cells are not the (0, T)")

    def ideal(self, cell: int) -> list[int]:
        """The cells below (G, R) = `keys[cell]`, in increasing order: the
        (H, H o R) for H >= G, read off the dual covector poset."""
        (g, r), vectors, number = self.keys[cell], self.system.vectors(), self.system.numbering()
        up = bits(self.system.covector_poset().dual().below(g))
        return [self.index[h, number[compose_masks(*vectors[h], *vectors[r])]] for h in up]

    @property
    def poset(self) -> FinitePoset:
        """The face poset, named by the cell ids, built on the first read."""
        if self._poset is None:
            names = self.system.covector_poset().names
            ids = [f"({names[c]};{names[t]})" for c, t in self.keys]
            object.__setattr__(self, "_poset", FinitePoset.from_covers(ids, self.covers))
        return self._poset

    def __setattr__(self, name, value):
        raise AttributeError("SalvettiPoset is immutable")

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class SalvettiLocalization:
    """The localization map between Salvetti posets at a flat, by number:
    `rho[i]` is the restriction of covector i to the flat, `cells[k]` the
    target cell of source cell k, and `preimages[q]` the source cells over
    target cell q, increasing; the poset fiber f^{-1}(<= q) is the source
    cells over `target.ideal(q)`."""

    system: CovectorSystem
    flat: int
    localized: CovectorSystem
    source: SalvettiPoset
    target: SalvettiPoset
    cells: tuple[int, ...]
    preimages: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...]

    def fiber(self, cell: int) -> tuple[int, ...]:
        """The poset fiber over a target cell: its source cells, increasing."""
        if not 0 <= cell < len(self.preimages):
            raise PosetError(f"unknown target cell {cell!r}")
        return tuple(sorted(k for q in self.target.ideal(cell) for k in self.preimages[q]))


def salvetti_localization(system: CovectorSystem, flat: int) -> SalvettiLocalization:
    """The localization at a flat of a simple system; with parallel
    elements the fibers are not wedges of circles and the fiber topes no
    string, so such a system is refused by name.  The cell map is checked
    order preserving once, on the source covers, which generate the order
    (no source mask is derived), so each fiber is an ideal of the source
    (a cell below one over the ideal below q maps below q), which the fiber
    certificates read; each distinct image (H, T) <= (G, R) of a cover is
    checked once, by the sign rule H >= G and H o R = T."""
    system.require_simple("the Salvetti localization")
    localized, rho = system.localization(flat)
    source = SalvettiPoset(system)
    target = SalvettiPoset(localized)
    cells = []
    over: list[list[int]] = [[] for _ in range(len(target))]
    for k, (f, t) in enumerate(source.keys):
        q = target.index.get((rho[f], rho[t]))
        if q is None:
            image = ";".join(localized.names()[c] for c in (rho[f], rho[t]))
            raise ValueError(f"localization sends cell {source.poset.names[k]} to ({image}), which is not a cell")
        cells.append(q)
        over[q].append(k)
    # order preserving on the covers, which generate the order: each image pair once
    up, vectors, seen = localized.covector_poset().dual().below, localized.vectors(), set()
    for k, q in enumerate(cells):
        for x in source.covers[k]:
            if (cells[x], q) in seen:
                continue
            seen.add((cells[x], q))
            (h, t), (g, r) = target.keys[cells[x]], target.keys[q]
            if not (up(g) >> h & 1 and compose_masks(*vectors[h], *vectors[r]) == vectors[t]):
                raise ValueError(
                    f"localization is not order preserving: {source.poset.names[x]} <= {source.poset.names[k]} "
                    f"but {target.poset.names[cells[x]]} !<= {target.poset.names[q]}"
                )
    return SalvettiLocalization(system, flat, localized, source, target, tuple(cells), tuple(map(tuple, over)), rho)


def restriction_iso(loc: SalvettiLocalization, separator: int) -> tuple[int, ...]:
    """For each localized covector, by number, the covector of the system
    that restricts to it and is zero at `separator` (one ground bit
    outside the flat): the inverse of rho on that set of covectors.

    The covectors zero at the separator are an ideal of the covector
    order, so their covers are the order's covers.  Rho must be a
    bijection of them onto the localized covectors that sends the lower
    covers of each onto the lower covers of its image; then it is an
    isomorphism of posets, since each order is generated by its covers.
    Checked once per (flat, separator) and kept on the system."""
    return loc.system.memo(("restriction", loc.flat, separator), lambda: _restriction_iso(loc, separator))


def _restriction_iso(loc: SalvettiLocalization, separator: int) -> tuple[int, ...]:
    order, target = loc.system.covector_poset(), loc.localized.covector_poset()
    rho = loc.rho
    iso: dict[int, int] = {}
    for c, (p, m) in enumerate(loc.system.vectors()):
        if (p | m) & separator:
            continue
        if rho[c] in iso:
            raise AssertionError("restriction is not injective on the stratum")
        iso[rho[c]] = c
    if len(iso) != len(loc.localized):
        raise AssertionError("restriction is not onto the localization")
    for y, c in iso.items():
        if tuple(sorted(rho[d] for d in order.lower_covers(c))) != target.lower_covers(y):
            raise AssertionError(
                f"restriction does not send the covers of {order.names[c]} onto those of {target.names[y]}"
            )
    return tuple(iso[y] for y in range(len(iso)))


@dataclass(frozen=True)
class FiberStratification:
    """The stratification of a maximal-cell fiber over a modular
    corank-one flat into copies of contraction balls.

    The tope string T_0, ..., T_k is by covector number; `separators[i-1]`
    is the ground-bit mask S(T_{i-1}, T_i), a single bit.  Stratum i, the
    ideal below (0, T_i) less the strata before it, and its lift are
    walked and checked by `morse.check_patchwork`."""

    loc: SalvettiLocalization
    top: int  # the cell (0, B') of the localized poset; its fiber is loc.fiber(top)
    tope_string: tuple[int, ...]
    separators: tuple[int, ...]


def stratify_fiber(loc: SalvettiLocalization, base: int) -> FiberStratification:
    """Order the fiber topes over the localized tope `base` (by number)
    into a string, with the separators of its consecutive topes.

    Requires the flat to be modular of corank one; anything else is
    refused since the string structure is exactly what modularity of a
    coatom buys.  The strata are left to `morse.check_patchwork`.
    """
    system = loc.system
    lattice = build_lattice(system)
    x = loc.flat
    if lattice.rank_of[x] != lattice.rank() - 1:
        raise StratificationError(f"{flat_id(x, system.ground)} does not have corank 1")
    check = lattice.is_modular_flat(x)
    if not check.ok:
        witness = check.witness_text(system.ground)
        raise StratificationError(f"{flat_id(x, system.ground)} is not modular; witness {witness}")
    if not loc.localized.topes() >> base & 1:
        raise ValueError(f"{loc.localized.covector_poset().names[base]} is not a tope of the localization")

    order = system.covector_poset()
    vectors = system.vectors()
    number = system.numbering()
    rho = loc.rho
    # the two covectors with zero set X; the lex-smaller one anchors the string
    anchors = [c for c in order.elements if system.zero_set(c) == x]
    if len(anchors) != 2:
        raise AssertionError("corank-one flat must carry exactly two covectors")
    # iota_alpha(B') = B' on X, alpha elsewhere
    v0 = section_lift(vectors[anchors[0]], x, loc.localized.vectors()[base])
    if v0 not in number:
        raise AssertionError("lifted base tope is not a covector")
    dist = {
        t: separator_masks(*v0, *vectors[t])
        for t in bits(system.topes())
        if rho[t] == base
    }
    string = sorted(dist, key=lambda t: dist[t].bit_count())
    # the induced order must be a chain: distances 0..k and nested separators
    for i, t in enumerate(string):
        if dist[t].bit_count() != i:
            raise AssertionError("fiber topes do not form a string")
        if i > 0 and dist[string[i - 1]] & ~dist[t]:
            raise AssertionError("fiber tope separators are not nested")
    separators = tuple(
        separator_masks(*vectors[string[i - 1]], *vectors[string[i]]) for i in range(1, len(string))
    )
    for s in separators:
        if s.bit_count() != 1:
            raise AssertionError(f"consecutive fiber topes separate by {flat_id(s, system.ground)}")

    top = loc.target.index[loc.localized.numbering()[0, 0], base]
    return FiberStratification(loc, top, tuple(string), separators)

