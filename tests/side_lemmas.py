"""Side lemmas of the paper that the tests check, written as functions of
the library's objects: the Brylawski interval isomorphism and the rank-3
modular-coatom criterion on the lattice of flats, the section of a
localization and its Salvetti lift, the principal-ideal isomorphism and
the localization square, the rank-two fiber model, the enumeration of
all convex tope sets, the dual of a matching, and an acyclicity test of
a matching by Kahn's sort, the oracle for `Matching.cycle`.  The greedy
collapse that counts every alive cell above a cell through the masks is
the oracle for the one that counts alive upper covers.  The
covector order by pairs is the definition that the column-built order
is checked against; closure, rank, Moebius function and join by scans
over the flats are the definitions that the one-pass lattice
constructor is checked against, and `join` reads the constructor's
table.  The modular chain search that checks each flat inside its
interval and re-checks the whole chain it returns is the oracle for the
one that checks each flat once, over the whole lattice.  Convexity by
betweenness, and the halfspaces of the signs a set's topes share, are
the oracles for the convex hull, and the
homology of a fiber by the reduction of its chain complex the oracle
for the fiber types and the graph ranks that the quasi-fibration
certificate reads off its collapses and by union-find.  The Salvetti
ideals by one composition per pair are the oracle for the constructor's
covers and the masks derived from them.  The composition closure that
composes every vector with every cocircuit is the oracle for the one
that composes it only with the cocircuits' restrictions to its zero
set, and the null space by Gauss-Jordan elimination over `Fraction`
the oracle for the fraction-free one of `from_arrangement`.  The
subcomplex L(Q) of the covectors below the topes of Q, and the dual
subcomplex as the complement of L(Q) of the other topes,
are the oracle for `dual_subcomplex`.  The contraction at a coline, its
circle of cocircuits walked along its topes and the placements of a new
element on that circle are the oracle for the extension search, which
reads the circle off the edge cells of the base; the candidate closed
from its signed cocircuits and the crossing ones is the oracle for the
candidate it lifts off the base covectors.  The tope poset T(B)
built all-pairs, with its least-first linear extension that puts an
order ideal first, is the oracle for the shelling orders that walk T(B)'s
covers, and the shelling check that searches each boundary on a subposet
of its own the oracle for the one that searches it on the host's
covers.  A frozen copy of `_incidences` is the refactor reference that
a rewrite of the sign spread is compared with; the boundary maps
multiplied out, `squares_to_zero`, are the independent check.  No
command needs them, so they live with the tests."""

import heapq
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from omkit.homology import NotRegularError
from omkit.lattices import GeometricLattice, build_lattice
from omkit.matroids import CovectorSystem, flat_id, section_lift
from omkit.morse import Matching, MatchingError
from omkit.posets import FinitePoset, PosetError, bits, mask_of
from omkit.salvetti import SalvettiLocalization, SalvettiPoset
from omkit.signs import compose_masks, restrict_masks, separator_masks, sign_text
from omkit.topes import NotATopeError, ShellingReport, _purity_failure, _require_topes
from poset_builders import PosetMap, from_below
from poset_oracle import scanned_covers
from simplicial_oracle import poset_homology

# -- the covector order and the join, by definition ---------------------------


def pairwise_below(system: CovectorSystem) -> dict[int, int]:
    """Each covector's below mask, one pair at a time: X <= Y when every
    + and - entry of X is also Y's."""
    masks = system.vectors()
    return {
        j: mask_of(i for i, (pa, ma) in enumerate(masks) if not (pa & ~pb or ma & ~mb))
        for j, (pb, mb) in enumerate(masks)
    }


def join(lat: GeometricLattice, x: int, y: int) -> int:
    """The join of two flats, read off the table the lattice constructor
    fills and its modularity check reads."""
    return lat._joins[x][y]


def scan_join(flats: Sequence[int], a: int, b: int) -> int:
    """The first flat of `flats` (sorted by size) that contains a and b."""
    u = a | b
    return next(f for f in flats if not u & ~f)


def scan_ranks(flats: Sequence[int]) -> dict[int, int]:
    """Each flat's rank by a full scan of `flats` (sorted by size): one
    more than the largest rank of a proper subflat, 0 for the bottom."""
    rank: dict[int, int] = {}
    for x in flats:
        rank[x] = max((rank[y] + 1 for y in flats if y != x and not y & ~x), default=0)
    return rank


def scan_mobius(flats: Sequence[int]) -> dict[int, int]:
    """mu(bottom, x) by a full scan of `flats` (sorted by size): 1 at the
    bottom, minus the sum over the proper subflats elsewhere."""
    mob: dict[int, int] = {}
    for x in flats:
        mob[x] = -sum(mob[y] for y in flats if y != x and not y & ~x) if x else 1
    return mob


def lattice_refusal(ground: tuple[str, ...], family: Iterable[int]) -> Optional[str]:
    """Why the lattice of a family with a bottom and a top is refused, by
    double loops over the family in size then id order: the first (x, y)
    whose meet is not in the family, else the first (x, y) with
    r(x) + r(y) < r(x v y) + r(x ^ y) by the scan rank and join; None
    when there is neither."""
    flats = sorted(set(family), key=lambda f: (f.bit_count(), flat_id(f, ground)))
    members = set(flats)
    for x in flats:
        for y in flats:
            if x & y not in members:
                return f"flats not closed under intersection: {flat_id(x, ground)} ^ {flat_id(y, ground)}"
    rank = scan_ranks(flats)
    for x in flats:
        for y in flats:
            if rank[x] + rank[y] < rank[scan_join(flats, x, y)] + rank[x & y]:
                return f"rank not semimodular at {flat_id(x, ground)}, {flat_id(y, ground)}"
    return None


# -- the lattice of flats ------------------------------------------------------


def lattice_poset(lat: GeometricLattice) -> FinitePoset:
    """The flats under inclusion, element `index[f]` being flat f."""
    index = lat.index
    below = {index[y]: mask_of(index[x] for x in lat.flats if not x & ~y) for y in lat.flats}
    return from_below(lat.names, below)


def interval(lat: GeometricLattice, lo: int, hi: int) -> FinitePoset:
    """The flats between lo and hi, as a subposet of `lattice_poset(lat)`."""
    lo, hi = lat.check_flat(lo), lat.check_flat(hi)
    cells = mask_of(lat.index[f] for f in lat.flats if not lo & ~f and not f & ~hi)
    return lattice_poset(lat).subposet(cells)


def rank3_modular_coatom_test(lat: GeometricLattice, flat: int) -> bool:
    """Rank-3 criterion: a rank-2 flat is modular iff it meets every
    rank-2 flat."""
    x = lat.check_flat(flat)
    if lat.rank() != 3:
        raise ValueError("criterion applies to rank-3 lattices only")
    if lat.rank_of[x] != 2:
        raise ValueError("criterion applies to rank-2 flats only")
    return all(x & y for y in lat.flats_of_rank(2))


def interval_modular_chain(lat: GeometricLattice) -> Optional[tuple[int, ...]]:
    """A maximal chain of modular flats, bottom first, or None, by the
    search that checks each candidate only inside the interval below the
    flat it would sit under (the flats of the next rank down, by flat
    number), then re-checks every flat of the chain it returns against
    the definition over the whole lattice; a chain that fails the
    re-check raises AssertionError."""

    def modular_within(x: int, universe: Sequence[int]) -> bool:
        return all(
            join(lat, z, x & y) == join(lat, z, x) & y
            for y in universe
            for z in universe
            if not z & ~y
        )

    def search(top: int) -> Optional[list[int]]:
        r = lat.rank_of[top]
        if r == 0:
            return [top]
        sub = [f for f in lat.flats if not f & ~top]
        for m in sorted((f for f in sub if lat.rank_of[f] == r - 1), key=lat.index.__getitem__):
            if modular_within(m, sub):
                rest = search(m)
                if rest is not None:
                    return rest + [top]
        return None

    chain = search((1 << len(lat.ground)) - 1)
    if chain is None:
        return None
    for f in chain:
        if not modular_within(f, lat.flats):
            raise AssertionError(
                f"the interval search returned {flat_id(f, lat.ground)}, which is not modular"
            )
    return tuple(chain)


def brylawski_iso(lat: GeometricLattice, modular: int, other: int) -> tuple[PosetMap, PosetMap]:
    """The interval isomorphism [Y, X v Y] -> [X ^ Y, X] at a modular X,
    Z maps to Z ^ X, with inverse W maps to W v Y."""
    x = lat.check_flat(modular)
    y = lat.check_flat(other)
    check = lat.is_modular_flat(x)
    if not check.ok:
        z, w = check.witness
        g = lat.ground
        raise ValueError(
            f"{flat_id(x, g)} is not modular; witness Z={flat_id(z, g)} Y={flat_id(w, g)}"
        )
    xy, top = x & y, join(lat, x, y)
    top_int = interval(lat, y, top)
    bot_int = interval(lat, xy, x)
    index = lat.index
    down = {index[f]: index[f & x] for f in lat.flats if not y & ~f and not f & ~top}
    up = {index[f]: index[join(lat, f, y)] for f in lat.flats if not xy & ~f and not f & ~x}
    p_x = PosetMap(top_int, bot_int, down)
    s_y = PosetMap(bot_int, top_int, up)
    for e in top_int.elements:
        if up[down[e]] != e:
            raise AssertionError("brylawski maps are not mutually inverse")
    for e in bot_int.elements:
        if down[up[e]] != e:
            raise AssertionError("brylawski maps are not mutually inverse")
    return p_x, s_y


# -- sections, principal ideals and fibers --------------------------------------


def section_iota(system: CovectorSystem, alpha: int) -> PosetMap:
    """The section iota_alpha of the localization at the zero set of
    covector number alpha."""
    if not 0 <= alpha < len(system):
        raise ValueError("alpha is not a covector of this system")
    flat = system.zero_set(alpha)
    loc, _rho = system.localization(flat)
    number = system.numbering()
    assignment = {}
    for i, c in enumerate(loc.vectors()):
        lifted = section_lift(system.vectors()[alpha], flat, c)
        if lifted not in number:
            text = sign_text(*lifted, len(system.ground))
            raise ValueError(f"section image {text} is not a covector; alpha invalid")
        assignment[i] = number[lifted]
    return PosetMap(loc.covector_poset(), system.covector_poset(), assignment)


def localization_section(loc: SalvettiLocalization, alpha: int) -> PosetMap:
    """The section of the Salvetti localization induced by a covector (by
    number) with zero set equal to the flat."""
    system = loc.system
    if not 0 <= alpha < len(system) or system.zero_set(alpha) != loc.flat:
        raise ValueError("alpha must be a covector with zero set the flat")
    lift = section_iota(system, alpha).assignment
    assignment = {}
    for k, (f, t) in enumerate(loc.target.keys):
        cell = loc.source.index.get((lift[f], lift[t]))
        if cell is None:
            raise AssertionError(f"section image of {loc.target.poset.names[k]} not a cell")
        assignment[k] = cell
    out = PosetMap(loc.target.poset, loc.source.poset, assignment)
    for k in loc.target.poset.elements:
        if loc.cells[assignment[k]] != k:
            raise AssertionError("section identity fails")
    return out


def direct_salvetti_below(system: CovectorSystem) -> dict[int, int]:
    """The below mask of each Salvetti cell, numbered as `SalvettiPoset`
    numbers them, straight from the ideal {(F, F o R) : F >= G} below
    (G, R): one composition for each tope R, face G of R and covector
    F >= G, in that order.  The first composition that is not a tope is
    refused with the constructor's message."""
    order = system.covector_poset()
    vectors = system.vectors()
    number = system.numbering()
    topes = system.topes()
    keys = sorted((c, t) for t in bits(topes) for c in bits(order.below(t)))
    index = {key: k for k, key in enumerate(keys)}
    below = {}
    for r in bits(topes):
        for g in bits(order.below(r)):
            m = 0
            for f in bits(order.dual().below(g)):
                fr = compose_masks(*vectors[f], *vectors[r])
                t = number.get(fr, -1)
                if t < 0 or not topes >> t & 1:
                    bad = sign_text(*fr, len(system.ground))
                    what = "tope" if fr in number else "covector"
                    raise ValueError(f"composition {order.names[f]} o {order.names[r]} = {bad} is not a {what}")
                m |= 1 << index[f, t]
            below[index[g, r]] = m
    return below


def closure_composing_all(cocircuit_masks: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Composition closure of the cocircuits together with the zero vector,
    composing each new vector with every cocircuit."""
    closed: set[tuple[int, int]] = {(0, 0)} | set(cocircuit_masks)
    frontier = list(closed)
    composers = list(cocircuit_masks)
    while frontier:
        new: list[tuple[int, int]] = []
        for p1, m1 in frontier:
            for p2, m2 in composers:
                q = compose_masks(p1, m1, p2, m2)
                if q not in closed:
                    closed.add(q)
                    new.append(q)
        frontier = new
    return closed


def null_space_by_fractions(rows: Iterable[tuple[int, ...]], dim: int) -> list[list[Fraction]]:
    """A basis of the vectors on which every row vanishes, by exact
    Gauss-Jordan elimination (rows kept reduced against each other): the
    vector of each free column is 1 there and 0 at the other free columns."""
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


def principal_ideal_iso(salv: SalvettiPoset, tope: int) -> tuple[PosetMap, PosetMap]:
    """The isomorphism between the ideal below (0, T) and the dual covector
    poset: (F, R) maps to F, with inverse F maps to (F, F o T)."""
    system = salv.system
    zero = system.numbering().get((0, 0))
    top = salv.index.get((zero, tope))
    if top is None:
        raise ValueError(f"element {tope!r} is not a tope")
    ideal_mask = salv.poset.below(top)
    ideal = salv.poset.subposet(ideal_mask)
    dual = system.covector_poset().dual()
    vectors, number = system.vectors(), system.numbering()
    fwd = {k: salv.keys[k][0] for k in bits(ideal_mask)}
    bwd = {c: salv.index[c, number[compose_masks(*vectors[c], *vectors[tope])]] for c in range(len(system))}
    to_dual = PosetMap(ideal, dual, fwd)
    from_dual = PosetMap(dual, ideal, bwd)
    if len(ideal) != len(system):
        raise AssertionError("principal ideal has the wrong size")
    for k in ideal.elements:
        if bwd[fwd[k]] != k:
            raise AssertionError("principal-ideal maps are not mutually inverse")
    return to_dual, from_dual


def fiber_poset(loc: SalvettiLocalization, cell: int) -> FinitePoset:
    """The poset fiber over a target cell, as a subposet of the source,
    for the oracles that read a fiber's own order."""
    return loc.source.poset.subposet(mask_of(loc.fiber(cell)))


def fibers_by_cover_gather(loc: SalvettiLocalization) -> tuple[int, ...]:
    """Each poset fiber f^{-1}(<= q) as a mask over the source cells: the
    preimage masks ORed along the target covers, each cell's lower covers
    being listed before it, so each is gathered before it is read."""
    over = [mask_of(cells) for cells in loc.preimages]
    for q, lower in loc.target.covers.items():
        for c in lower:
            over[q] |= over[c]
    return tuple(over)


def fibers_by_preimage_sums(loc: SalvettiLocalization) -> tuple[int, ...]:
    """Each poset fiber f^{-1}(<= q) as the sum of the preimages of the
    target cells below q, read off the target's masks: the preimages are
    disjoint, so their sum is their union."""
    over = [0] * len(loc.target)
    for k, q in enumerate(loc.cells):
        over[q] |= 1 << k
    below = loc.target.poset.below
    return tuple(sum(over[y] for y in bits(below(q))) for q in range(len(loc.target)))


def localization_square_commutes(loc: SalvettiLocalization, tope: int) -> bool:
    """Check cell-by-cell that localization restricted to the ideal below
    (0, T) matches the covector-level localization under the ideal
    isomorphisms."""
    to_dual, _ = principal_ideal_iso(loc.source, tope)
    to_dual_loc, _ = principal_ideal_iso(loc.target, loc.rho[tope])
    return all(
        to_dual_loc.assignment[loc.cells[k]] == loc.rho[face]
        for k, face in to_dual.assignment.items()
    )


def fiber_rank2_model(loc: SalvettiLocalization, base: int) -> tuple[CovectorSystem, dict[int, int]]:
    """A rank-two system whose decone matches the covector fiber over a
    tope of the localization (by number).

    The fiber cells keep their values off the flat and gain a positive
    entry on a fresh element "g"; the two covectors supported exactly off the
    flat become the model's extra cocircuit pair.  Returns the model and
    the cell correspondence (fiber covector number -> model covector
    number).
    """
    system = loc.system
    if "g" in system.ground:
        raise ValueError("label 'g' already in use")
    rest = ((1 << len(system.ground)) - 1) & ~loc.flat
    vectors = system.vectors()
    rho = loc.rho
    ground = system.labels(rest) + ("g",)
    gbit = 1 << (len(ground) - 1)
    fiber = [c for c in range(len(system)) if rho[c] == base]
    restricted = restrict_masks([vectors[c] for c in fiber], rest)
    lifted = {c: (p | gbit, m) for c, (p, m) in zip(fiber, restricted)}
    on_flat = [vectors[c] for c in range(len(system)) if system.zero_set(c) == loc.flat]
    model = {(0, 0), *lifted.values(), *((m, p) for p, m in lifted.values())}
    model.update(restrict_masks(on_flat, rest))
    out = CovectorSystem(ground, model)
    number = out.numbering()
    return out, {c: number[v] for c, v in lifted.items()}


# -- rank-two contractions -----------------------------------------------------


def contraction(system: CovectorSystem, flat: int) -> CovectorSystem:
    """Covectors vanishing on a ground-bit mask, restricted to the rest."""
    rest = ((1 << len(system.ground)) - 1) & ~flat
    vanishing = [(p, m) for p, m in system.vectors() if not (p | m) & flat]
    return CovectorSystem(system.labels(rest), restrict_masks(vanishing, rest))


def contraction_cycle(system: CovectorSystem, coline: int) -> list[int]:
    """The cocircuits of the contraction at a coline in circular order,
    walked along its topes, each numbered as the base cocircuit it
    restricts from."""
    con = contraction(system, coline)
    poset = con.covector_poset()
    cocirc = con.cocircuits()
    adj: dict[int, list[int]] = {y: [] for y in bits(cocirc)}
    for t in bits(con.topes()):
        a, b = bits(poset.below(t) & cocirc)
        adj[a].append(b)
        adj[b].append(a)
    cycle = [min(adj)]
    while True:
        nxt = next(y for y in adj[cycle[-1]] if y not in cycle[-2:-1])
        if nxt == cycle[0]:
            break
        cycle.append(nxt)
    assert len(cycle) == len(adj), "the contraction's topes form one circle"
    rest = ((1 << len(system.ground)) - 1) & ~coline
    vectors = system.vectors()
    through = [y for y in bits(system.cocircuits()) if not coline & ~system.zero_set(y)]
    base = dict(zip(restrict_masks([vectors[y] for y in through], rest), through))
    return [base[con.vectors()[y]] for y in cycle]


def cycle_placements(system: CovectorSystem, cycle: Sequence[int]) -> set[frozenset]:
    """The signatures of every placement of a new element on a circle of
    cocircuits (base numbers): through a vertex and its antipode, or
    inside an arc and its antipode, in both orientations.  A signature
    maps each coatom on the circle to the sign of its cocircuit of least
    number, as (coatom, sign) items."""
    n = len(cycle)
    m = n // 2
    rep: dict[int, int] = {}
    for y in sorted(cycle):
        rep.setdefault(system.zero_set(y), y)
    out = set()
    for j in range(n):
        for orient in (1, -1):
            through = [0] + [orient] * (m - 1) + [0] + [-orient] * (m - 1)
            arc = [-orient] + [orient] * m + [-orient] * (m - 1)
            for signs in (through, arc):
                signature: dict[int, int] = {}
                for k, s in enumerate(signs):
                    y = cycle[(j + k) % n]
                    x = system.zero_set(y)
                    v = s if y == rep[x] else -s
                    assert signature.setdefault(x, v) == v, "antipodes agree"
                out.add(frozenset(signature.items()))
    return out


def candidate_by_closure(system: CovectorSystem, values: dict[int, int]) -> set[tuple[int, int]]:
    """The covectors of an extension's candidate for a full signature (coatom
    flat -> sign of its cocircuit of least number), built from cocircuits:
    each base cocircuit extended by its sign, plus the crossing cocircuits,
    the edge cells (zero set a coline) whose two vertices land on opposite
    sides of the new element, closed under composition.  The new element
    is the bit above the base ground."""
    vectors = system.vectors()
    poset = system.covector_poset()
    cocirc = system.cocircuits()
    gbit = 1 << len(system.ground)
    rep: dict[int, int] = {}
    for y in bits(cocirc):
        rep.setdefault(system.zero_set(y), y)

    def signed_value(y: int) -> int:
        x = system.zero_set(y)
        return values[x] if y == rep[x] else -values[x]

    cocircuits = set()
    for y in bits(cocirc):
        (p, m), s = vectors[y], signed_value(y)
        cocircuits.add((p | (gbit if s > 0 else 0), m | (gbit if s < 0 else 0)))
    lattice = build_lattice(system)
    colines = set(lattice.flats_of_rank(lattice.rank() - 2))
    for f in poset.elements:
        if system.zero_set(f) in colines:
            v1, v2 = map(signed_value, bits(poset.below(f) & cocirc))
            if v1 and v2 and v1 == -v2:
                cocircuits.add(vectors[f])
    return closure_composing_all(cocircuits)


# -- tope sets and matchings ---------------------------------------------------


def tope_poset(system: CovectorSystem, base: int) -> FinitePoset:
    """The tope poset T(B) all-pairs: topes ordered by containment of
    their separators from a base tope, the oracle for the covers that
    `shelling_order_from_extension` walks."""
    topes = _require_topes(system, 1 << base)
    vectors = system.vectors()
    seps = [(t, separator_masks(*vectors[base], *vectors[t])) for t in bits(topes)]
    below = {t: mask_of(r for r, sr in seps if not sr & ~st) for t, st in seps}
    return from_below(system.covector_poset().names, below)


def shelling_order_by_composition(system: CovectorSystem, base: int, prefix: int = 0) -> tuple[int, ...]:
    """The least-first Kahn walk over the covers of T(B), its tope graph
    built afresh on every call, one composition F o (-T) and one lookup
    per facet F of each tope T: the oracle for the tope graph that
    `omkit.topes.shelling_order_from_extension` keeps on the system.  A
    nonzero prefix comes first, as there."""
    topes = _require_topes(system, 1 << base)
    prefix = prefix or 1 << base
    poset, vectors, number = system.covector_poset(), system.vectors(), system.numbering()
    if prefix & ~topes:
        unknown = [poset.names[x] if x < len(poset.names) else x for x in bits(prefix & ~topes)[:4]]
        raise PosetError(f"unknown elements: {unknown}")
    sep = {t: separator_masks(*vectors[base], *vectors[t]) for t in bits(topes)}
    upper: dict[int, list[int]] = {t: [] for t in sep}
    waiting = dict.fromkeys(sep, 0)
    for t in sep:
        tp, tm = vectors[t]
        for f in poset.lower_covers(t):
            u = number.get(compose_masks(*vectors[f], tm, tp), -1)
            if u < 0 or not topes >> u & 1:
                raise NotATopeError(f"no tope lies across the facet {poset.names[f]} of the tope {poset.names[t]}")
            if not sep[t] & ~sep[u]:
                if prefix >> u & 1 and not prefix >> t & 1:
                    raise PosetError("the given set is not an order ideal")
                upper[t].append(u)
                waiting[u] += 1
    ready = sorted((not prefix >> t & 1, t) for t, n in waiting.items() if not n)
    order: list[int] = []
    while ready:
        _, t = heapq.heappop(ready)
        order.append(t)
        for u in upper[t]:
            waiting[u] -= 1
            if not waiting[u]:
                heapq.heappush(ready, (not prefix >> u & 1, u))
    return tuple(order)


def is_ideal(poset: FinitePoset, mask: int) -> bool:
    """Every element below an element of the mask is in it."""
    return all(not poset.below(x) & ~mask for x in bits(mask))


def linear_extension_ideal_first(poset: FinitePoset, ideal: int) -> list[int]:
    """A linear extension of the poset in which the given order ideal
    comes first, ties going to the least element: one least-first pass
    of Kahn's sort over the ideal, then one over the rest."""
    unknown = bits(ideal & ~poset.members)
    if unknown:
        names = poset.names
        raise PosetError(f"unknown elements: {[names[x] if x < len(names) else x for x in unknown[:4]]}")
    if not is_ideal(poset, ideal):
        raise PosetError("the given set is not an order ideal")
    out: list[int] = []
    placed = 0
    for part in (ideal, poset.members & ~ideal):
        ready = [x for x in bits(part) if not poset.below(x) & ~placed & ~(1 << x)]
        heapq.heapify(ready)
        while ready:
            x = heapq.heappop(ready)
            if placed >> x & 1:
                continue
            out.append(x)
            placed |= 1 << x
            for y in bits(poset.dual().below(x) & part & ~placed):
                if not poset.below(y) & ~placed & ~(1 << y):
                    heapq.heappush(ready, y)
    if len(out) != len(poset):
        raise PosetError("linear extension failed")
    return out


def shelling_by_subposets(complex_poset: FinitePoset, order: Sequence[int]) -> ShellingReport:
    """The shelling check with every boundary searched on a subposet of
    its own: the oracle for `omkit.topes.verify_shelling`, which searches
    each boundary on the host's covers.  Same conditions, same
    backtracking order and same witnesses."""
    cells = list(order)
    dims = complex_poset.heights()
    maximal = complex_poset.maximal_elements()
    if mask_of(cells) != maximal or len(cells) != maximal.bit_count():
        return ShellingReport(False, "order is not a permutation of the maximal cells")
    if not cells:
        return ShellingReport(True)
    d = dims[cells[0]]
    if any(dims[c] != d for c in bits(maximal)):
        return ShellingReport(False, "complex is not pure")
    if d == 0:
        return ShellingReport(True)
    union = 0
    for j, c in enumerate(cells):
        bad = _subposet_step_failure(complex_poset, dims, c, union, j)
        if bad is not None:
            return ShellingReport(False, bad)
        union |= complex_poset.below(c) ^ 1 << c
    return ShellingReport(True)


def _subposet_step_failure(
    complex_poset: FinitePoset, dims: dict[int, int], c: int, union: int, position: int
) -> Optional[str]:
    boundary = complex_poset.below(c) ^ 1 << c
    facets = 0
    if position > 0:
        inter = boundary & union
        bad = _purity_failure(complex_poset, inter, dims, dims[c] - 1)
        if bad is not None:
            return f"condition (i) fails at position {position + 1}: {bad}"
        facets = mask_of(x for x in bits(inter) if dims[x] == dims[c] - 1)
    if not _subposet_has_shelling_with_prefix(complex_poset.subposet(boundary), facets):
        if position == 0:
            return "condition (iii) fails: first boundary not shellable"
        return (
            f"condition (ii) fails at position {position + 1}: no shelling "
            f"of the boundary starts with the shared facets"
        )
    return None


def _subposet_has_shelling_with_prefix(complex_poset: FinitePoset, prefix: int) -> bool:
    """Backtracking search for a shelling of the whole poset whose first
    cells are the given set."""
    dims = complex_poset.heights()
    maximal = bits(complex_poset.maximal_elements())
    if not maximal:
        return not prefix
    d = dims[maximal[0]]
    if any(dims[c] != d for c in maximal):
        return False
    if d == 0:
        return True
    prefix_size = prefix.bit_count()

    def search(chosen: list[int], union: int, pool: set[int]) -> bool:
        if len(chosen) == len(maximal):
            return True
        stage = [c for c in sorted(pool) if prefix >> c & 1] if len(chosen) < prefix_size else sorted(pool)
        for c in stage:
            if _subposet_step_failure(complex_poset, dims, c, union, len(chosen)) is None:
                chosen.append(c)
                pool.discard(c)
                if search(chosen, union | complex_poset.below(c) ^ 1 << c, pool):
                    return True
                pool.add(c)
                chosen.pop()
        return False

    return search([], 0, set(maximal))


def halfspace(system: CovectorSystem, label: str, sign: int) -> int:
    """The mask of the topes on the given side of one element."""
    if label not in system.ground:
        raise ValueError(f"unknown label {label!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bit = 1 << system.ground.index(label)
    vectors = system.vectors()
    return mask_of(
        t for t in bits(system.topes()) if vectors[t][0 if sign > 0 else 1] & bit
    )


def all_convex_tope_sets(system: CovectorSystem) -> list[int]:
    """All nonempty convex tope sets: every intersection of halfspaces."""
    topes = system.covector_poset().maximal_elements()
    sides = [halfspace(system, label, sign) for label in system.ground for sign in (1, -1)]
    out = {topes}
    frontier = [topes]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in sides:
                cut = cur & s
                if cut and cut not in out:
                    out.add(cut)
                    nxt.append(cut)
        frontier = nxt
    return sorted(out, key=lambda s: (s.bit_count(), bits(s)))


def is_convex_betweenness(system: CovectorSystem, q: int) -> bool:
    """T, R in Q and dist(T,W) + dist(W,R) = dist(T,R) forces W in Q.

    For topes S(T,R) is the symmetric difference of S(T,W) and S(W,R), so
    W lies between T and R exactly when S(T,W) is a subset of S(T,R)."""
    vectors = system.vectors()
    outside = [vectors[w] for w in bits(system.topes() & ~q)]
    for t in bits(q):
        pt, mt = vectors[t]
        to_outside = [separator_masks(pt, mt, p, m) for p, m in outside]
        for r in bits(q):
            s = separator_masks(pt, mt, *vectors[r])
            if any(not (sw & ~s) for sw in to_outside):
                return False
    return True


def subcomplex_LQ(system: CovectorSystem, q: int) -> int:
    """The mask of covectors below some tope of Q (an order ideal)."""
    if q & ~system.topes():
        raise NotATopeError("Q holds a covector that is not a tope")
    return system.covector_poset().order_ideal(q)


def dual_by_complement(system: CovectorSystem, q: int) -> int:
    """The dual subcomplex of Q: the covectors below no tope outside Q."""
    outside = system.topes() & ~q
    return system.covector_poset().members & ~subcomplex_LQ(system, outside)


def dual_matching(matching: Matching) -> Matching:
    """The same pairs on the dual poset."""
    return Matching(matching.host.dual(), frozenset((b, a) for a, b in matching.pairs))


def matched_digraph(matching: Matching) -> dict[int, list[int]]:
    """The modified Hasse digraph, as successor lists: matched cover edges
    point up and the others down."""
    host = matching.host
    succ: dict[int, list[int]] = {x: [] for x in host.elements}
    for a, b in scanned_covers(host):
        tail, head = (a, b) if (a, b) in matching.pairs else (b, a)
        succ[tail].append(head)
    return succ


def kahn_acyclic(matching: Matching) -> bool:
    """Kahn's sort of the whole modified Hasse digraph: acyclic exactly
    when every cell is sorted."""
    succ = matched_digraph(matching)
    indegree = dict.fromkeys(succ, 0)
    for heads in succ.values():
        for y in heads:
            indegree[y] += 1
    ready = [x for x, d in indegree.items() if d == 0]
    done = 0
    while ready:
        x = ready.pop()
        done += 1
        for y in succ[x]:
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return done == len(succ)


def matching_from_shelling_by_masks(complex_poset: FinitePoset, order: Sequence[int], vertex: int) -> Matching:
    """The greedy collapse of a shellable ball onto a vertex, counting
    every alive cell above each cell through the below masks of the
    complex and of its dual:
    the oracle for `omkit.morse.matching_from_shelling`, which counts
    alive upper covers.  Free faces of the most recently shelled cells
    go first: the heap is keyed by the partner's birth, then its height,
    then the least element."""
    cells = list(order)
    if vertex not in complex_poset:
        raise MatchingError(f"unknown vertex {vertex!r}")
    if cells and not complex_poset.leq(vertex, cells[0]):
        raise MatchingError("vertex must lie in the first maximal cell")
    below, above = complex_poset.below, complex_poset.dual().below
    birth: dict[int, int] = {}
    born = 0
    for i, c in enumerate(cells):
        birth.update(dict.fromkeys(bits(below(c) & ~born), i))
        born |= below(c)
    if born != complex_poset.members:
        raise MatchingError("order does not cover the complex")
    heights = complex_poset.heights()
    alive = complex_poset.members
    # the number of alive cells strictly above each alive cell
    updeg = {x: above(x).bit_count() - 1 for x in complex_poset.elements}
    heap: list = []

    def push(tau: int) -> None:
        sigma = (above(tau) & alive ^ 1 << tau).bit_length() - 1
        heapq.heappush(heap, (-birth[sigma], -heights[sigma], sigma, tau))

    for x in complex_poset.elements:
        if x != vertex and updeg[x] == 1:
            push(x)
    pairs: list[tuple[int, int]] = []
    while alive & (alive - 1):
        while heap:
            _, _, sigma, tau = heapq.heappop(heap)
            live = alive >> sigma & 1 and alive >> tau & 1 and updeg[tau] == 1
            if live and complex_poset.is_cover(tau, sigma):
                break
        else:
            raise MatchingError(f"greedy collapse jammed with {alive.bit_count()} cells alive")
        pairs.append((tau, sigma))
        for cell in (sigma, tau):
            alive ^= 1 << cell
            for x in bits(below(cell) & alive):
                updeg[x] -= 1
                if updeg[x] == 1 and x != vertex:
                    push(x)
    if alive != 1 << vertex:
        raise MatchingError(f"collapse ended at {complex_poset.names_of(alive)} instead of the vertex")
    return Matching(complex_poset, frozenset(pairs))


# -- fiber homology --------------------------------------------------------------


class FiberHomology(NamedTuple):
    dimension: int  # the fiber's height
    betti: tuple[int, ...]  # trailing zeros trimmed, padded to length 2
    torsion_free: bool

    @property
    def graph_rank(self) -> Union[int, str]:
        """The free rank of the fiber as a connected graph, or why it has
        none, in the words of `omkit.homology.graph_rank`."""
        if self.dimension > 1:
            return "complex has cells of dimension above one"
        if self.betti[0] != 1:
            return f"graph has {self.betti[0]} components"
        return self.betti[1]

    def is_wedge(self, d: int) -> bool:
        """The fiber has the homology of a wedge of d circles."""
        return self.betti == (1, d) and self.torsion_free


def fiber_homology(fiber: FinitePoset) -> FiberHomology:
    """The homology of a fiber, by the reduction of its cellular chain
    complex, built cell by cell."""
    res = poset_homology(fiber)
    betti = list(res.betti)
    while len(betti) > 2 and betti[-1] == 0:
        betti.pop()
    betti += [0] * (2 - len(betti))
    return FiberHomology(fiber.height(), tuple(betti), res.is_torsion_free())


# -- incidence signs, the refactor reference -------------------------------------


def incidences_refactor_reference(poset: FinitePoset) -> dict[int, dict[int, int]]:
    """A frozen copy of `omkit.homology._incidences`, against which a
    rewrite of it is checked sign for sign and refusal for refusal: the
    signed facets of every cell of a regular CW face poset, with the
    signs of every cell spread across its own codimension-2 faces: -1 and
    +1 on an edge's first and second vertex, +1 on a higher cell's first
    facet, and the sign of a facet f2 next to f across a face g such that
    the two cancel in the boundary of the boundary."""
    heights = poset.heights()
    names = poset.names
    facets = poset.lower_covers
    skip = poset.skipping_cover()
    signs: dict[int, dict[int, int]] = {}
    for c in sorted(poset.elements, key=heights.__getitem__):
        if skip is not None and skip[1] == c:
            raise NotRegularError(
                f"cell {names[c]!r}: the cover {names[skip[0]]!r} < {names[c]!r} skips a height"
            )
        fs = facets(c)
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
        sign = {fs[0]: 1} if fs else {}
        stack = list(sign)
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
