import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import b3_arrangement, braid_arrangement, sign_vectors
from omkit import matroids
from omkit.extensions import supersolvable_extension
from omkit.lattices import build_lattice
from omkit.matroids import (
    CovectorSystem,
    DegenerateArrangementError,
    NotAFlatError,
    RationalArrangement,
    _normalize_row,
    from_arrangement,
    section_lift,
)
from omkit.corpus import CORPUS_NAMES, corpus
from omkit.omfile import format_system, parse_om_text
from omkit.posets import bits, mask_of
from omkit.signs import GroundSetMismatchError, parse_signs
from poset_builders import PosetMap, cover_pairs, image
from side_lemmas import (
    closure_composing_all,
    contraction,
    lattice_poset,
    null_space_by_fractions,
    pairwise_below,
    section_iota,
)
from sign_vector import SignVector


def test_rank1_axioms(rank1):
    report = rank1.check_axioms()
    assert report.ok
    assert rank1.rank() == 1
    assert rank1.covector_poset().names_of(rank1.topes()) == ["+", "-"]


def test_five_planes_axioms(five_planes):
    assert five_planes.check_axioms().ok


def test_axiom3_fails_with_witness_when_tope_removed(five_planes):
    t = bits(five_planes.topes())[0]
    broken = CovectorSystem(
        five_planes.ground, [v for c, v in enumerate(five_planes.vectors()) if c != t]
    )
    report = broken.check_axioms()
    assert not report.composition.passed
    assert "escapes the set" in report.composition.witness


def test_axiom_reports_on_small_mutations(rank1):
    no_zero = CovectorSystem.from_strings(("e1",), ["+", "-"])
    rep = no_zero.check_axioms()
    assert not rep.zero_vector.passed
    no_opp = CovectorSystem.from_strings(("e1",), ["0", "+"])
    rep = no_opp.check_axioms()
    assert not rep.opposites.passed
    # a pair that is no sign vector over the ground is refused outright
    with pytest.raises(ValueError, match="both"):
        CovectorSystem(("e1",), [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="outside the ground"):
        CovectorSystem(("e1",), [(0, 0), (2, 0)])


def test_elimination_failure_witness():
    # two opposite topes with no separating vertex
    labels = ("e1",)
    system = CovectorSystem.from_strings(labels, ["0", "+", "-"])
    broken = CovectorSystem(labels, [v for v in system.vectors() if v != (0, 0)])
    rep = broken.check_axioms()
    assert not rep.zero_vector.passed
    # elimination needs the zero vector here as the eliminating eta
    assert not rep.elimination.passed


def test_topes_and_rank_against_zaslavsky(five_planes, uniform23):
    lat = build_lattice(five_planes)
    assert sum(lat.whitney()) == five_planes.topes().bit_count() == 18
    assert five_planes.rank() == 3
    assert uniform23.topes().bit_count() == 6
    assert uniform23.rank() == 2


def test_simplify_identity(five_planes):
    result = five_planes.simplify()
    assert result.system.ground == five_planes.ground
    assert result.loops == ()
    assert result.system.vectors() == five_planes.vectors()


def test_simplify_collapses_parallel_and_loops():
    # e2 parallel to e1 (duplicated column), e3 a loop
    rows = ["000", "++0", "--0"]
    system = CovectorSystem.from_strings(("e1", "e2", "e3"), rows)
    result = system.simplify()
    assert result.loops == ("e3",)
    assert result.system.ground == ("e1",)
    assert result.representative == {"e1": "e1", "e2": "e1"}
    assert result.system.names() == ("+", "-", "0")


def test_restriction_composes(five_planes):
    a = ("H1", "H2", "H3", "H4")
    b = ("H1", "H3")
    once = five_planes.restriction(five_planes.label_mask(b))
    sub = five_planes.restriction(five_planes.label_mask(a))
    twice = sub.restriction(sub.label_mask(b))
    assert (once.ground, once.vectors()) == (twice.ground, twice.vectors())
    full = five_planes.restriction(five_planes.label_mask(five_planes.ground))
    assert (full.ground, full.vectors()) == (five_planes.ground, five_planes.vectors())


def test_localization_at_modular_flat(five_planes):
    loc, rho = five_planes.localization(five_planes.label_mask({"H1", "H2", "H3"}))
    assert loc.topes().bit_count() == 6
    assert loc.rank() == 2
    assert set(rho) == set(range(len(loc)))
    with pytest.raises(NotAFlatError, match="^H1,H4 is not a flat$"):
        five_planes.localization(five_planes.label_mask({"H1", "H4"}))


def test_localization_preserves_composition(five_planes):
    keep = five_planes.label_mask({"H1", "H2", "H3"})
    covs = sign_vectors(five_planes)[::7]
    for a in covs:
        for b in covs:
            assert a.compose(b).restrict(keep) == a.restrict(keep).compose(
                b.restrict(keep)
            )


def test_contraction(five_planes):
    contracted = contraction(five_planes, five_planes.label_mask({"H4"}))
    assert contracted.ground == ("H1", "H2", "H3", "H5")
    assert contracted.rank() == 2
    assert contracted.check_axioms().ok


def test_section_iota_identity(five_planes):
    x = five_planes.label_mask({"H1", "H2", "H3"})
    alpha = min(c for c in range(len(five_planes)) if five_planes.zero_set(c) == x)
    iota = section_iota(five_planes, alpha)
    loc, rho = five_planes.localization(x)
    for cid in iota.source.elements:
        assert rho[iota.assignment[cid]] == cid
    # the section preserves composition
    number = loc.numbering()
    full = sign_vectors(five_planes)

    def lift(v):
        return full[iota.assignment[number[v.plus, v.minus]]]

    for a in sign_vectors(loc):
        for b in sign_vectors(loc):
            assert lift(a.compose(b)) == lift(a).compose(lift(b))
    # the lift takes only vectors over z(alpha) in ground order
    with pytest.raises(GroundSetMismatchError):
        section_lift(five_planes.vectors()[alpha], x, five_planes.vector("+++++"))


def test_section_iota_identity_extreme(rank1):
    alpha = rank1.numbering()[0, 0]
    iota = section_iota(rank1, alpha)
    assert all(iota.assignment[x] == x for x in iota.source.elements)


def test_cocircuits(rank1, five_planes, uniform23, non_pappus):
    assert rank1.covector_poset().names_of(rank1.cocircuits()) == ["+", "-"]
    assert five_planes.cocircuits().bit_count() == 12  # two per rank-2 flat
    assert uniform23.cocircuits().bit_count() == 6
    lat = build_lattice(non_pappus)
    assert non_pappus.cocircuits().bit_count() == 2 * len(lat.flats_of_rank(2)) == 36


def test_from_arrangement_single_form():
    system = from_arrangement(RationalArrangement(("e1",), [(1,)]))
    assert system.names() == ("+", "-", "0")


def test_from_arrangement_braid(braid3):
    assert braid3.topes().bit_count() == 24
    assert braid3.rank() == 3
    assert braid3.check_axioms().ok


def _braid(k):
    """The forms x_i - x_j, i < j, on R^k."""
    rows = []
    for i, j in combinations(range(k), 2):
        row = [0] * k
        row[i], row[j] = 1, -1
        rows.append(row)
    return rows


@pytest.mark.parametrize("k, fubini, topes", [(3, 13, 6), (4, 75, 24), (5, 541, 120), (6, 4683, 720), (7, 47293, 5040)])
def test_from_arrangement_braid_fubini(k, fubini, topes):
    # the faces of the braid arrangement are the ordered set partitions of
    # k points, its chambers the k! orderings
    rows = _braid(k)
    system = from_arrangement(RationalArrangement([f"H{i + 1}" for i in range(len(rows))], rows))
    assert len(system) == fubini
    assert sum(1 for c in range(len(system)) if not system.zero_set(c)) == topes


def test_from_arrangement_b3():
    system = from_arrangement(b3_arrangement())
    assert len(system) == 147
    assert system.topes().bit_count() == 48


def test_arrangement_input_validation():
    with pytest.raises(DegenerateArrangementError):
        RationalArrangement(("a", "b"), [(1, 0), (0, 0)])
    with pytest.raises(DegenerateArrangementError):
        RationalArrangement(("a", "b"), [(1, 1), (-2, -2)])
    with pytest.raises(ValueError):
        RationalArrangement(("a",), [(1, 0), (0, 1)])


def test_zero_map_cover_preserving(five_planes):
    # z is order reversing, surjective onto the flats, and sends covers to covers
    lat = build_lattice(five_planes)
    zero_set = {i: lat.index[five_planes.zero_set(i)] for i in range(len(five_planes))}
    zmap = PosetMap(five_planes.covector_poset().dual(), lattice_poset(lat), zero_set)
    assert image(zmap) == zmap.target.members
    lat_covers = cover_pairs(zmap.target)
    for a, b in cover_pairs(zmap.source):
        fa, fb = zmap.assignment[a], zmap.assignment[b]
        assert (fa, fb) in lat_covers


# -- the exhaustive scan over the 3^n sign vectors, kept as an oracle ---------


def _eliminate_variable(rows, k):
    """One Fourier-Motzkin step on strict inequalities  row . v > 0."""
    pos = [r for r in rows if r[k] > 0]
    neg = [r for r in rows if r[k] < 0]
    out = set()
    for r in rows:
        if r[k] == 0:
            rr = _normalize_row(r)
            if not any(rr):
                return None  # 0 > 0
            out.add(rr)
    for p in pos:
        for q in neg:
            comb = _normalize_row(tuple(p[i] * (-q[k]) + q[i] * p[k] for i in range(len(p))))
            if not any(comb):
                return None
            out.add(comb)
    return list(out)


def _strict_system_feasible(rows, dim):
    """Exact feasibility of  row . v > 0  for all rows, over the rationals."""
    if not all(any(r) for r in rows):
        return False
    current = list({_normalize_row(r) for r in rows})
    for k in range(dim):
        current = _eliminate_variable(current, k)
        if current is None:
            return False
        if not current:
            return True
    return not current


def _sign_pattern_feasible(forms, signs, dim):
    """Is there a rational point v with sign(form_i . v) = signs_i for all i?"""
    # the equalities substitute variables away by Gauss-Jordan elimination
    pivots = []
    for i, s in enumerate(signs):
        if s:
            continue
        row = [Fraction(x) for x in forms[i]]
        for col, prow in pivots:
            if row[col]:
                row = [a - row[col] / prow[col] * b for a, b in zip(row, prow)]
        col = next((c for c in range(dim) if row[c]), None)
        if col is None:
            continue
        for j, (pcol, prow) in enumerate(pivots):
            if prow[col]:
                pivots[j] = (pcol, [a - prow[col] / row[col] * b for a, b in zip(prow, row)])
        pivots.append((col, row))
    reduced = []
    for i, s in enumerate(signs):
        if not s:
            continue
        row = [Fraction(x) * s for x in forms[i]]
        for col, prow in pivots:
            if row[col]:
                row = [a - row[col] / prow[col] * b for a, b in zip(row, prow)]
        reduced.append(_normalize_row(row))
    free = [c for c in range(dim) if c not in {col for col, _ in pivots}]
    return _strict_system_feasible([tuple(r[c] for c in free) for r in reduced], len(free))


def _scan_oracle(arrangement):
    """The covectors as every sign vector whose pattern is feasible,
    found by a depth-first scan that prunes infeasible prefixes."""
    forms, dim, n = list(arrangement.forms), arrangement.dimension, len(arrangement.labels)
    found, signs = [], [0] * n

    def scan(i):
        if i == n:
            found.append(SignVector.from_signs(signs, arrangement.labels))
            return
        for s in (0, 1, -1):
            signs[i] = s
            if _sign_pattern_feasible(forms[: i + 1], signs[: i + 1], dim):
                scan(i + 1)
        signs[i] = 0

    scan(0)
    return CovectorSystem(arrangement.labels, [(v.plus, v.minus) for v in found])


def _seeded_arrangements():
    """Eight arrangements of 3 to 7 forms with entries in -2..2 on R^2 to R^4."""
    rng = random.Random(5)
    seeded = []
    while len(seeded) < 8:
        dim, n = rng.randint(2, 4), rng.randint(3, 7)
        rows = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(n)]
        try:
            seeded.append(RationalArrangement(tuple(f"h{i}" for i in range(n)), rows))
        except (DegenerateArrangementError, ValueError):
            continue
    return seeded


def test_closure_composes_only_with_the_restrictions_to_each_zero_set(monkeypatch, non_pappus):
    # every closure of braid3, A4 and seeded arrangements is the closure
    # composing with every cocircuit; extend-ss non-pappus lifts its steps
    # off the base covectors, so it closes nothing
    real = matroids._closure_from_cocircuits
    sizes = []

    def checked(cocircuits):
        closed = real(cocircuits)
        assert closed == closure_composing_all(cocircuits)
        sizes.append(len(closed))
        return closed

    monkeypatch.setattr(matroids, "_closure_from_cocircuits", checked)
    for arrangement in (braid_arrangement(3), braid_arrangement(5), *_seeded_arrangements()):
        from_arrangement(arrangement)
    assert sizes[:2] == [13, 541]
    supersolvable_extension(non_pappus)
    assert len(sizes) == 10


def test_from_arrangement_solves_each_hyperplane_once(monkeypatch):
    # a subset of forms of rank r - 1, whose null space has dimension
    # corank + 1, spans a hyperplane, a coatom of the lattice of flats; the
    # subsets inside the zero set of a cocircuit already found are
    # skipped, so each coatom is solved exactly once
    real = matroids._null_space
    ranks = []

    def counted(rows, dim):
        basis = real(rows, dim)
        ranks.append(dim - len(basis))
        return basis

    monkeypatch.setattr(matroids, "_null_space", counted)
    builds = [lambda: corpus("braid3"), lambda: corpus("sec3-arrangement")]
    arrangements = (b3_arrangement(), braid_arrangement(5), braid_arrangement(6), *_seeded_arrangements())
    builds += [lambda a=a: from_arrangement(a) for a in arrangements]
    for build in builds:
        ranks.clear()
        lat = build_lattice(build())
        assert ranks.count(lat.rank() - 1) == len(lat.flats_of_rank(lat.rank() - 1))


@st.composite
def integer_matrices(draw):
    """Integer rows on 1 to 5 columns: up to four drawn, then up to three
    repeats or integer combinations of them, in a drawn order."""
    dim = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(*[entry] * dim), max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entry), draw(entry)
        rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return draw(st.permutations(rows)), dim


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_null_space_is_the_rational_basis_scaled_to_integers(matrix):
    rows, dim = matrix
    basis, oracle = matroids._null_space(rows, dim), null_space_by_fractions(rows, dim)
    assert len(basis) == len(oracle)
    for v, w in zip(basis, oracle):
        # a vector's free column is its last nonzero entry, where the
        # oracle's is 1; the integer vector is k times the oracle's there
        free = max(i for i, x in enumerate(w) if x)
        assert max(i for i, x in enumerate(v) if x) == free
        k = v[free]
        assert all(type(x) is int for x in v) and k > 0
        assert v == [k * x for x in w]


@st.composite
def small_arrangements(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=7))
    rows = []
    for _ in range(n):
        row = tuple(
            Fraction(draw(st.integers(min_value=-3, max_value=3)))
            for _ in range(dim)
        )
        rows.append(row)
    return rows


@given(small_arrangements())
@settings(max_examples=25, deadline=None)
def test_from_arrangement_always_satisfies_axioms(rows):
    labels = tuple(f"h{i}" for i in range(len(rows)))
    try:
        arr = RationalArrangement(labels, rows)
    except (DegenerateArrangementError, ValueError):
        return
    system = from_arrangement(arr)
    assert system.check_axioms().ok
    assert system.vectors() == _scan_oracle(arr).vectors()
    # restriction, contraction and localization work on pairs; each must
    # give the texts of the reference restriction, covector by covector
    covs = sign_vectors(system)
    full = (1 << len(labels)) - 1
    for flat in build_lattice(system).flats:
        rest = full & ~flat
        want = {str(c.restrict(rest)) for c in covs}
        assert set(system.restriction(rest).names()) == want
        want = {str(c.restrict(rest)) for c in covs if not c.support_mask & flat}
        assert set(contraction(system, flat).names()) == want
        loc, rho = system.localization(flat)
        assert [loc.names()[rho[i]] for i in range(len(covs))] == [
            str(c.restrict(flat)) for c in covs
        ]


@st.composite
def sign_text_sets(draw):
    """Up to 40 sign texts over at most six elements, axioms not required."""
    n = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(st.sampled_from("+-0"), min_size=n, max_size=n).map("".join)
    return tuple(f"e{i}" for i in range(n)), draw(st.lists(row, max_size=40))


@given(sign_text_sets())
@settings(max_examples=200, deadline=None)
def test_covector_order_is_the_pairwise_order(ground_rows):
    # the below masks built as ANDs of sign columns are the product order
    # tested one pair at a time, on any set of sign vectors
    system = CovectorSystem.from_strings(*ground_rows)
    poset = system.covector_poset()
    assert poset.members == (1 << len(system)) - 1
    assert {j: poset.below(j) for j in poset.elements} == pairwise_below(system)
    # the sign columns are the covectors' texts read column by column
    names = system.names()
    assert system._sign_columns() == tuple(
        tuple(mask_of(k for k, t in enumerate(names) if t[e] == sign) for e in range(len(system.ground)))
        for sign in "+-0"
    )


@given(sign_text_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_from_strings_numbers_as_the_constructor(ground_rows, data):
    # the texts themselves, sorted once, give the numbering that rendering
    # every pair back to text gives, in any row order and with duplicates
    ground, rows = ground_rows
    extra = data.draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    rows = data.draw(st.permutations(rows + extra))
    got = CovectorSystem.from_strings(ground, rows)
    want = CovectorSystem(ground, [parse_signs(r, len(ground)) for r in rows])
    assert got.names() == want.names()
    assert got.vectors() == want.vectors()
    assert got.numbering() == want.numbering()


def test_from_strings_names_the_first_bad_row_in_input_order():
    ground = ("a", "b", "c")
    # sorted, 0+x would come first; read in input order, q00 does
    with pytest.raises(ValueError, match="^invalid sign character 'q'$"):
        CovectorSystem.from_strings(ground, ["000", "q00", "0+x"])
    with pytest.raises(ValueError, match="^sign string '\\+' has length 1, ground set has 3$"):
        CovectorSystem.from_strings(ground, ["000", "+", "0+x"])


def test_reading_a_system_renders_no_sign_text(monkeypatch):
    # the reference systems are built before sign_text is patched
    systems = {name: corpus(name) for name in CORPUS_NAMES}
    texts = {name: format_system(system) for name, system in systems.items()}

    def refuse(*args):
        raise AssertionError("sign_text called while reading a system")

    monkeypatch.setattr("omkit.matroids.sign_text", refuse)
    for name, text in texts.items():
        system = parse_om_text(text).to_system()
        assert system.names() == systems[name].names(), name
        assert system.vectors() == systems[name].vectors(), name
