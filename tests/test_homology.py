import io
import re
import sys
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from omkit.homology import (
    NotRegularError,
    _incidences,
    chain_complex,
    graph_rank,
    homology,
    quasi_fibration_certify,
    rank_and_torsion,
    salvetti_betti_match_whitney,
    semidirect_rank_sequence,
)
from omkit.cli import main
from omkit.corpus import corpus
from omkit.matroids import CovectorSystem, from_arrangement
from omkit.omfile import format_system, format_topes
from omkit.posets import FinitePoset, bits, mask_of
from omkit.salvetti import SalvettiPoset, salvetti_localization
from omkit.topes import sphere_poset
from conftest import b3_arrangement, braid_arrangement
from poset_builders import antichain, cover_pairs, from_covers
from side_lemmas import fiber_homology, incidences_refactor_reference, pairwise_below
from simplicial_oracle import (
    RP2_FACETS,
    betti_numbers,
    cellular_chain_complex,
    complex_of_facets,
    from_facets,
    order_complex_homology,
    poset_homology,
    simplicial_homology,
    squares_to_zero,
    uncleared_homology,
)


def test_rank_and_torsion_basics():
    # identity, a torsion map, and a rank-deficient map
    assert rank_and_torsion({0: {0: 1}, 1: {1: 1}}) == (2, ())
    assert rank_and_torsion({0: {0: 2}}) == (1, (2,))
    assert rank_and_torsion({0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}) == (1, ())
    assert rank_and_torsion({0: {0: 6, 1: 4}, 1: {0: 4, 1: 4}}) == (2, (2, 4))


def determinant(a: list[list[int]]) -> int:
    """By expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * determinant([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
        if a[0][j]
    )


def determinantal_divisors(rows: list[list[int]]) -> list[int]:
    """d_k, the gcd of the k x k minors, for k = 1, 2, ... while it is
    nonzero: their number is the rank, and d_k / d_{k-1} are the
    invariant factors."""
    out = []
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                d = gcd(d, determinant([[rows[i][j] for j in cs] for i in rs]))
        if not d:
            break
        out.append(d)
    return out


ENTRIES = st.sampled_from([0] * 6 + [1, -1] * 3 + [2, -2, 3, -3])


@st.composite
def small_matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_and_torsion_matches_the_determinantal_divisors(rows):
    cols = {j: {i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))}
    pivot_rows: set[int] = set()
    rank, torsion = rank_and_torsion(cols, pivot_rows)
    divisors = determinantal_divisors(rows)
    factors = [d // e for d, e in zip(divisors, [1] + divisors)]
    assert (rank, torsion) == (len(divisors), tuple(f for f in factors if f > 1))
    # the unit pivot rows are distinct rows of the input whose maximal
    # minors have gcd 1, which is what clearing relies on
    if pivot_rows:
        assert determinantal_divisors([rows[i] for i in sorted(pivot_rows)])[len(pivot_rows) - 1:] == [1]


def test_the_core_is_reduced_on_pivot_rows_found_after_it():
    # column 0 has no unit at its largest row, 1, and goes to the core;
    # column 1 then takes row 1 as its pivot, and it clears column 0
    assert rank_and_torsion({0: {1: 2}, 1: {1: 1}}) == (1, ())
    # the rows are [4 0 6] and [2 1 0]: the core keeps row 0 of columns 0
    # and 2, [4 6], so the invariant factors are 1 and 2
    assert rank_and_torsion({0: {1: 2, 0: 4}, 1: {1: 1}, 2: {0: 6}}) == (2, (2,))


def recorded_cores(monkeypatch) -> list:
    """Patch the unit-pivot elimination to append each core it leaves to
    the returned list."""
    import importlib

    module = importlib.import_module("omkit.homology")
    real, cores = module._unit_pivot_reduce, []

    def recording(cols):
        pivots, core = real(cols)
        cores.append(core)
        return pivots, core

    monkeypatch.setattr(module, "_unit_pivot_reduce", recording)
    return cores


def test_no_core_is_left_on_salvetti_complexes(monkeypatch, all_corpus, np14, a4):
    cores = recorded_cores(monkeypatch)
    for name, system in {**all_corpus, "np14": np14, "A4": a4}.items():
        cores.clear()
        assert salvetti_betti_match_whitney(system).ok, name
        assert cores and not any(cores), name


def test_a5_betti_numbers_are_its_whitney_numbers(monkeypatch):
    # the braid arrangement A_5, 23,040 Salvetti cells, with no torsion
    # and no core left in any dimension
    cores = recorded_cores(monkeypatch)
    check = salvetti_betti_match_whitney(from_arrangement(braid_arrangement(6)))
    assert check.homology.betti == (1, 15, 85, 225, 274, 120)
    assert check.ok and check.homology.is_torsion_free()
    assert len(cores) == 5 and not any(cores)


def test_sphere_zero():
    two_points = [["a"], ["b"]]
    assert poset_homology(from_facets(two_points)).betti == (2,)
    assert simplicial_homology(complex_of_facets(two_points)).betti == (2,)


def test_circle_from_square():
    circle = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]
    assert poset_homology(from_facets(circle)).betti == (1, 1)
    assert simplicial_homology(complex_of_facets(circle)).betti == (1, 1)


def test_two_sphere():
    # boundary of a tetrahedron
    sphere = [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]]
    assert poset_homology(from_facets(sphere)).betti == (1, 0, 1)
    assert simplicial_homology(complex_of_facets(sphere)).betti == (1, 0, 1)


def rp2():
    return [[str(v) for v in f] for f in RP2_FACETS]


def test_projective_plane_torsion():
    # through the cellular path of its face poset and through the oracle
    for res in (poset_homology(from_facets(rp2())), simplicial_homology(complex_of_facets(rp2()))):
        assert res.betti == (1, 0, 0)
        assert res.torsion[1] == (2,)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=4), max_size=8))
def test_face_poset_homology_matches_the_simplicial_oracle(facets):
    # and clearing changes nothing against reducing every column
    rec = cellular_chain_complex(from_facets(facets))
    assert squares_to_zero(rec)
    assert homology(rec) == simplicial_homology(complex_of_facets(facets)) == uncleared_homology(rec)


def test_clearing_is_exact_on_salvetti_posets_fibers_and_rp2(all_corpus, five_planes):
    for name, system in all_corpus.items():
        rec = chain_complex(SalvettiPoset(system))
        assert homology(rec) == uncleared_homology(rec), name
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for cell, fiber in enumerate(loc.fibers):
        rec = chain_complex(loc.source, fiber)
        assert homology(rec) == uncleared_homology(rec), cell
    rp = cellular_chain_complex(from_facets(rp2()))
    assert homology(rp) == uncleared_homology(rp)
    assert homology(rp).torsion[1] == (2,)


def test_boundary_squares_to_zero_on_salvetti_posets_fibers_a4_and_rp2(all_corpus, five_planes, braid3, np14, a4):
    # the signs of `_incidences`, transported from the dual covector
    # complex, make the boundary square to zero; here the maps are
    # multiplied out, a check independent of the spread
    b3 = from_arrangement(b3_arrangement())
    recs = [chain_complex(SalvettiPoset(s)) for s in (*all_corpus.values(), np14, a4, b3)]
    for system, flat in ((five_planes, {"H1", "H2", "H3"}), (braid3, {"12", "13", "23"})):
        loc = salvetti_localization(system, system.label_mask(flat))
        recs += [chain_complex(loc.source, fiber) for fiber in loc.fibers]
    recs.append(cellular_chain_complex(from_facets(rp2())))
    for rec in recs:
        assert squares_to_zero(rec), rec.bases[0][:3]


def test_homology_reduces_once_per_dimension_after_chain_complex(monkeypatch, all_corpus):
    # one `rank_and_torsion` call per boundary map, each on the columns
    # that clearing left; `chain_complex` itself still holds every column
    import importlib

    module = importlib.import_module("omkit.homology")
    real = module.rank_and_torsion
    columns = []

    def counting(cols, *args):
        columns.append(len(cols))
        return real(cols, *args)

    monkeypatch.setattr(module, "rank_and_torsion", counting)
    for name, system in all_corpus.items():
        salvetti = SalvettiPoset(system)
        poset, rec = salvetti.poset, chain_complex(salvetti)
        # every cover is a nonzero incidence
        assert sum(len(col) for b in rec.boundaries for col in b.values()) == len(cover_pairs(poset)), name
        columns.clear()
        homology(rec)
        assert len(columns) == poset.height(), name
        # the top boundary first and in full, then fewer columns below it
        assert columns[0] == len(rec.bases[-1]), name
        if poset.height() > 1:
            assert sum(columns) < sum(len(b) for b in rec.bases[1:]), name


def test_cellular_matches_order_complex_on_corpus(all_corpus):
    for name, system in all_corpus.items():
        if name == "non-pappus":  # about 18 s through the order complex
            continue
        salvetti = SalvettiPoset(system)
        assert homology(chain_complex(salvetti)) == order_complex_homology(salvetti.poset), name


def test_cellular_matches_order_complex_on_fibers(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for cid in sorted(loc.target.poset.elements):
        rec = chain_complex(loc.source, loc.fibers[cid])
        assert homology(rec) == order_complex_homology(loc.fiber(cid)), cid


def test_poset_homology_does_not_subdivide(monkeypatch, five_planes):
    def refuse(self):
        raise AssertionError("order complex built")

    salvetti = SalvettiPoset(five_planes)
    monkeypatch.setattr(FinitePoset, "order_complex", refuse)
    assert homology(chain_complex(salvetti)).betti == (1, 5, 8, 4)


def test_transported_signs_are_the_per_cell_signs(all_corpus, np14, a4):
    # every column of the chain complex, signs included, is the one
    # `_incidences` finds on the Salvetti poset cell by cell
    b3 = from_arrangement(b3_arrangement())
    for name, system in {**all_corpus, "np14": np14, "A4": a4, "B3": b3}.items():
        salvetti = SalvettiPoset(system)
        assert chain_complex(salvetti) == cellular_chain_complex(salvetti.poset), name


@pytest.mark.parametrize("name, flat", [("sec3-arrangement", "H1,H2,H3"), ("braid3", "12,13,23")])
def test_fiber_complexes_are_the_per_cell_complexes_of_the_fibers(name, flat):
    # restricted to a fiber, the source's chain complex is the fiber
    # subposet's, built cell by cell
    system = corpus(name)
    loc = salvetti_localization(system, system.label_mask(flat.split(",")))
    for q, fiber in enumerate(loc.fibers):
        assert chain_complex(loc.source, fiber) == cellular_chain_complex(loc.fiber(q)), q


def test_cellular_boundary_signs():
    # a square disk: edges run from the vertex that sorts first, and the
    # 2-cell's boundary is the cycle through its four edges
    disk = from_covers(
        ("a", "b", "c", "d", "ab", "bc", "cd", "ad", "f"),
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("c", "cd"),
         ("d", "cd"), ("a", "ad"), ("d", "ad"),
         ("ab", "f"), ("bc", "f"), ("cd", "f"), ("ad", "f")],
    )
    rec = cellular_chain_complex(disk)
    named = tuple(tuple(disk.names[c] for c in level) for level in rec.bases)
    assert named == (("a", "b", "c", "d"), ("ab", "ad", "bc", "cd"), ("f",))
    cell = disk.names.index
    assert rec.boundaries[1][cell("ab")] == {cell("a"): -1, cell("b"): 1}  # ab = b - a
    assert rec.boundaries[2][cell("f")] == {  # ab + bc + cd - ad
        cell("ab"): 1, cell("ad"): -1, cell("bc"): 1, cell("cd"): 1,
    }
    assert homology(rec).betti == (1, 0, 0)


def two_digons():
    # a 2-cell whose boundary is two disjoint circles
    return from_covers(
        ("a", "b", "c", "d", "e1", "e2", "e3", "e4", "f"),
        [(v, e) for e in ("e1", "e2") for v in ("a", "b")]
        + [(v, e) for e in ("e3", "e4") for v in ("c", "d")]
        + [(e, "f") for e in ("e1", "e2", "e3", "e4")],
    )


def theta_cell():
    # a 2-cell on a theta graph: each vertex lies in three of its edges
    return from_covers(
        ("p", "q", "e1", "e2", "e3", "f"),
        [(v, e) for e in ("e1", "e2", "e3") for v in ("p", "q")]
        + [(e, "f") for e in ("e1", "e2", "e3")],
    )


def skipping_cover():
    # the vertex u is covered by the 2-cell c directly
    return from_covers(
        ("v", "w", "u", "e", "c"),
        [("v", "e"), ("w", "e"), ("e", "c"), ("u", "c")],
    )


def walked_skipping_cover():
    # the same poset built from its covers, which `skipping_cover()` names
    poset = FinitePoset.from_covers(("c", "e", "u", "v", "w"), {2: (), 3: (), 4: (), 1: (3, 4), 0: (1, 2)})
    assert poset.skipping_cover() == (2, 0)
    return poset


def rp2_ball():
    # a 3-cell glued along RP^2, which cannot bound it
    faces = from_facets(rp2())
    tops = faces.names_of(faces.maximal_elements())
    covers = [(faces.names[a], faces.names[b]) for a, b in cover_pairs(faces)]
    return from_covers(
        list(faces.names) + ["ball"],
        covers + [(t, "ball") for t in tops],
    )


@pytest.mark.parametrize(
    "poset, message",
    [
        (skipping_cover, "cell 'c': the cover 'u' < 'c' skips a height"),
        (walked_skipping_cover, "cell 'c': the cover 'u' < 'c' skips a height"),
        (lambda: from_covers(("v", "e"), [("v", "e")]), "edge 'e' has vertices"),
        (theta_cell, "cell 'f': its face 'p' lies in 3 of its facets"),
        (rp2_ball, "cell 'ball': incidence signs disagree"),
        (two_digons, "cell 'f': its facet graph is disconnected"),
    ],
)
def test_regularity_failures_name_the_cell(poset, message):
    with pytest.raises(NotRegularError, match=re.escape(message)):
        poset_homology(poset())


def same_signs(poset, ordered=False):
    """`_incidences` gives every cell the signs of its frozen copy,
    `incidences_refactor_reference`, in the same order too when `ordered`."""
    got, want = _incidences(poset), incidences_refactor_reference(poset)
    if ordered:
        return [(c, list(s.items())) for c, s in got.items()] == [(c, list(s.items())) for c, s in want.items()]
    return got == want


def test_incidences_give_the_reference_signs_in_order_on_salvetti_posets(all_corpus, np14, a4):
    # on the Salvetti posets, where the dual signs are transported to,
    # even the order of the signs is the reference's
    for name, system in {**all_corpus, "np14": np14, "A4": a4}.items():
        assert same_signs(SalvettiPoset(system).poset, ordered=True), name


def test_incidences_give_the_reference_signs_on_certified_sources_and_spheres(
    monkeypatch, all_corpus, five_planes, braid3
):
    import importlib

    module = importlib.import_module("omkit.homology")
    checked = []
    counting(monkeypatch, module, "_incidences", checked)
    for system, flat in ((five_planes, "H1,H2,H3"), (braid3, "12,13,23")):
        # a copy with nothing cached on it, no signs among them
        system = CovectorSystem(system.ground, system.vectors())
        checked.clear()
        cert = quasi_fibration_certify(system, system.label_mask(flat.split(",")))
        assert cert.ok
        # the certificate proves its source regular once, on the dual
        # covector poset, whose signs give every source cell its own
        assert len(checked) == 1 and checked[0] is system.covector_poset().dual()
        assert same_signs(cert.loc.source.poset)
    for name, system in all_corpus.items():
        assert same_signs(sphere_poset(system)), name


def relabelled(poset, rng):
    """The poset with its elements renumbered at random: each gets a new
    name, drawn as a permutation, and the covers follow the names."""
    order = list(poset.elements)
    rng.shuffle(order)
    name = {x: f"x{k:03d}" for k, x in enumerate(order)}
    return from_covers(name.values(), [(name[x], name[y]) for x, y in cover_pairs(poset)])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=5), max_size=8),
    st.randoms(use_true_random=False),
)
def test_incidences_give_the_reference_signs_on_random_face_posets(facets, rng):
    # renumbered at random, the signs are the reference's and the
    # boundary squares to zero
    for poset in (from_facets(facets), relabelled(from_facets(facets), rng)):
        assert same_signs(poset)
        assert squares_to_zero(cellular_chain_complex(poset))


def poset_of(covers):
    """The poset of the cover pairs, on the elements they name."""
    return from_covers({n for pair in covers for n in pair}, covers)


def square(edges, cell):
    """The cover pairs of a 2-cell named `cell` on `edges`, which maps
    each edge's name to its two vertices."""
    return [(v, e) for e, ends in edges.items() for v in ends] + [(e, cell) for e in edges]


def two_squares():
    # sq (edges ac, ad, bc, bd) and t (edges f1 = wx, f2 = wz, f3 = yz,
    # f4 = xy): two squares whose faces pair up at other positions of
    # their facets' facets, and whose signs by position differ
    covers = square({"ac": "ac", "ad": "ad", "bc": "bc", "bd": "bd"}, "sq")
    covers += square({"f1": "wx", "f2": "wz", "f3": "yz", "f4": "xy"}, "t")
    return poset_of(covers)


def test_two_squares_get_their_own_signs():
    poset = two_squares()
    signs = _incidences(poset)
    cell = poset.names.index
    assert signs[cell("sq")] == {cell("ac"): 1, cell("ad"): -1, cell("bc"): -1, cell("bd"): 1}
    assert signs[cell("t")] == {cell("f1"): 1, cell("f2"): -1, cell("f3"): 1, cell("f4"): 1}
    assert same_signs(poset, ordered=True)
    assert squares_to_zero(cellular_chain_complex(poset))


def cube(prefix, vertex_names):
    """The cover pairs of the face poset of a 3-cube, its faces named by
    words over 0, 1 and * after `prefix`, each vertex by
    `vertex_names[k]`, where k reads its word in binary."""
    words = ["".join(w) for w in product("01*", repeat=3)]

    def name(w):
        if "*" not in w:
            return f"{prefix}v{vertex_names[int(w, 2)]}"
        return f"{prefix}{'-esc'[w.count('*')]}{w}"

    return [
        (name(w[:i] + b + w[i + 1:]), name(w))
        for w in words
        for i, letter in enumerate(w)
        if letter == "*"
        for b in "01"
    ]


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(8)))
@example([4, 1, 5, 2, 0, 3, 7, 6])
def test_two_cubes_with_renumbered_vertices_get_the_reference_signs(vertex_names):
    # two cubes, the second with its vertices numbered in a drawn order,
    # so that its squares meet their vertices in other orders than the
    # first's squares do
    covers = cube("1", range(8)) + cube("2", vertex_names)
    poset = poset_of(covers)
    assert same_signs(poset)
    assert squares_to_zero(cellular_chain_complex(poset))


def triangle_then_theta():
    # the triangle abc is walked first; the theta cell f also has three
    # edges, and its faces do not pair up
    covers = [(v, e) for e in ("ab", "ac", "bc") for v in e] + [(e, "abc") for e in ("ab", "ac", "bc")]
    covers += [(v, e) for e in ("e1", "e2", "e3") for v in ("p", "q")] + [(e, "f") for e in ("e1", "e2", "e3")]
    return poset_of(covers)


def square_then_pinched():
    # the square sq is walked first; x also has four edges, and its
    # faces pair up at sq's positions, p with p, q with q, r with r and
    # p with p again, so two pairs share the face p
    covers = square({"ac": "ac", "ad": "ad", "bc": "bc", "bd": "bd"}, "sq")
    covers += square({"e1": "pq", "e2": "pr", "e3": "pq", "e4": "pr"}, "x")
    return poset_of(covers)


@pytest.mark.parametrize(
    "poset, message",
    [
        (triangle_then_theta, "cell 'f': its face 'p' lies in 3 of its facets, not 2"),
        (square_then_pinched, "cell 'x': its face 'p' lies in 4 of its facets, not 2"),
    ],
)
def test_irregular_cell_after_a_regular_one_is_refused_in_its_own_words(poset, message):
    poset = poset()
    for incidences in (_incidences, incidences_refactor_reference):
        with pytest.raises(NotRegularError, match=re.escape(message)):
            incidences(poset)


def test_homology_and_certify_qf_spread_the_signs_once_on_the_dual_covector_poset(monkeypatch, braid3, np14):
    # the signs are spread on every cell of the dual covector poset, once
    # per system, and never on a Salvetti poset
    import importlib

    module = importlib.import_module("omkit.homology")
    spread, systems = [], []
    counting(monkeypatch, module, "_incidences", spread)
    counting(monkeypatch, module, "_dual_signs", systems)
    for system, flat in ((braid3, "12,13,23"), (np14, "L1,L4,L6,g1,g2,g3,g4,g5")):
        text = format_system(system)
        for argv in (["homology"], ["certify-qf", "--flat", flat]):
            spread.clear()
            systems.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert main(argv) == 0, argv
            read = systems[0]
            assert len(spread) == 1 and spread[0] is read.covector_poset().dual(), argv
            assert len(spread[0].names) == len(read) < len(SalvettiPoset(read)), argv


def test_rank1_salvetti_circle(rank1):
    assert betti_numbers(SalvettiPoset(rank1).poset) == (1, 1)


def test_uniform23_salvetti(uniform23):
    ok, betti, w, _ = salvetti_betti_match_whitney(uniform23)
    assert ok
    assert w == (1, 3, 2)
    assert betti == (1, 3, 2)


def test_boolean3_salvetti_torus(boolean3):
    ok, betti, w, _ = salvetti_betti_match_whitney(boolean3)
    assert ok
    assert betti == (1, 3, 3, 1)


def test_five_planes_salvetti(five_planes):
    ok, betti, w, _ = salvetti_betti_match_whitney(five_planes)
    assert ok
    assert betti == (1, 5, 8, 4)


def test_graph_rank():
    # union-find agrees with the reduction of the chain complex
    tree = from_covers(
        ("a", "b", "c", "ab", "bc"),
        [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc")],
    )
    assert graph_rank(cellular_chain_complex(tree)) == 0
    wedge3 = from_covers(
        ("p", "q", "e1", "e2", "e3"),
        [("p", "e1"), ("q", "e1"), ("p", "e2"), ("q", "e2"), ("p", "e3"), ("q", "e3")],
    )
    assert graph_rank(cellular_chain_complex(wedge3)) == 2  # theta graph: rank 2
    # a genuine wedge of three circles: one vertex...  use two vertices and
    # four parallel edges instead, rank 3
    multi = from_covers(
        ("p", "q", "e1", "e2", "e3", "e4"),
        [(v, e) for e in ("e1", "e2", "e3", "e4") for v in ("p", "q")],
    )
    assert graph_rank(cellular_chain_complex(multi)) == 3
    for graph in (tree, wedge3, multi):
        assert graph_rank(cellular_chain_complex(graph)) == fiber_homology(graph).graph_rank


def test_graph_rank_disconnected_reports_components():
    graph = antichain(("a", "b"))
    rank = graph_rank(cellular_chain_complex(graph))
    assert rank == "graph has 2 components" == fiber_homology(graph).graph_rank


def test_graph_rank_rejects_high_dimension(five_planes):
    sphere = sphere_poset(five_planes)
    rank = graph_rank(cellular_chain_complex(sphere))
    assert rank == "complex has cells of dimension above one" == fiber_homology(sphere).graph_rank


def test_graph_rank_refuses_an_edge_without_two_vertices():
    # `graph_rank` reads a chain complex, whose signs `_incidences` finds
    # only when every edge has two vertices
    graph = from_covers(("a", "b", "e", "f"), [("a", "e"), ("a", "f"), ("b", "f")])
    message = re.escape("edge 'e' has vertices ['a'], not exactly 2")
    with pytest.raises(NotRegularError, match=message):
        _incidences(graph)


def test_minimal_fiber_rank(five_planes):
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for cid in bits(loc.target.poset.minimal_elements()):
        assert graph_rank(chain_complex(loc.source, loc.fibers[cid])) == 2  # |E \ X| = 2


def test_semidirect_rank_sequences(rank1, boolean3, five_planes, all_corpus, np14, a4):
    assert semidirect_rank_sequence(rank1) == (1,)
    assert semidirect_rank_sequence(boolean3) == (1, 1, 1)
    assert semidirect_rank_sequence(five_planes) == (2, 2, 1)
    # the chain runs from the empty flat to the ground: the counts add up to |E|
    systems = [s for name, s in all_corpus.items() if name != "non-pappus"]
    for system in [*systems, np14, a4]:
        assert sum(semidirect_rank_sequence(system)) == len(system.ground), system.ground


def test_semidirect_rank_requires_supersolvable(non_pappus):
    with pytest.raises(ValueError):
        semidirect_rank_sequence(non_pappus)


def test_quasi_fibration_five_planes(five_planes):
    cert = quasi_fibration_certify(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    assert cert.ok
    assert cert.expected_rank == 2
    assert all(why is None for _cell, why in cert.fibers)
    assert len(cert.pairs) == sum(1 for _ in _comparable_pairs(five_planes))


def test_quasi_fibration_stratifies_each_ambient_fiber_once(monkeypatch, five_planes):
    import importlib

    # the package re-exports homology(), which hides the module attribute
    module = importlib.import_module("omkit.homology")
    seen = []
    real = module.stratify_fiber

    def counting(loc, base):
        seen.append(base)
        return real(loc, base)

    monkeypatch.setattr(module, "stratify_fiber", counting)
    cert = quasi_fibration_certify(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    assert cert.ok
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    ambient = loc.target.poset.maximal_elements()
    assert sorted(seen) == sorted(loc.target.keys[m][1] for m in bits(ambient))


def test_quasi_fibration_walks_each_fiber_matching_once(monkeypatch):
    # acyclicity rests on the patchwork theorem: each local matching is
    # walked once on its own ball, the glued matching never; a second
    # certificate of the same system and flat shares the localized system,
    # kept on the system, and with it the walked local matchings
    import omkit.morse as morse

    system = corpus("sec3-arrangement")
    walked = []
    real_walk = morse.Matching.cycle

    def walking(self):
        walked.append(self)
        return real_walk(self)

    monkeypatch.setattr(morse.Matching, "cycle", walking)
    cert = quasi_fibration_certify(system, system.label_mask({"H1", "H2", "H3"}))
    assert cert.ok
    local = {id(m): m for cell in cert.loc.target.poset.elements for m in morse.local_matchings(cert.loc, cell)}
    assert sorted(map(id, walked)) == sorted(local)
    ball = system.covector_poset().dual()
    assert {m.host for m in walked} == {ball, cert.loc.localized.covector_poset().dual()}
    again = quasi_fibration_certify(system, system.label_mask({"H1", "H2", "H3"}))
    assert again.ok and again.loc.localized is cert.loc.localized
    assert len(walked) == len(local)


def test_a_second_certificate_formats_no_digits(monkeypatch):
    # the critical digits of a local matching are kept with it, so a
    # second certificate on the same system reads the first one's
    import omkit.morse as morse

    system = corpus("sec3-arrangement")
    flat = system.label_mask({"H1", "H2", "H3"})
    read = []
    real = morse.Matching.critical_cells

    def reading(self):
        read.append(self)
        return real(self)

    monkeypatch.setattr(morse.Matching, "critical_cells", reading)
    assert quasi_fibration_certify(system, flat).ok
    assert read
    read.clear()
    assert quasi_fibration_certify(system, flat).ok
    assert read == []


def test_a_second_certificate_builds_no_local_matching(monkeypatch):
    # the local matchings have one cache, per face on the localized
    # system: the first certificate builds the two of every face, a
    # second one of the same system and flat builds none
    import omkit.morse as morse

    system = corpus("sec3-arrangement")
    flat = system.label_mask({"H1", "H2", "H3"})
    built = []
    real = morse.matching_convex_critical

    def building(system, q):
        built.append(q)
        return real(system, q)

    monkeypatch.setattr(morse, "matching_convex_critical", building)
    cert = quasi_fibration_certify(system, flat)
    assert cert.ok
    assert len(built) == 2 * len({face for face, _ in cert.loc.target.keys})
    built.clear()
    assert quasi_fibration_certify(system, flat).ok
    assert built == []


def _comparable_pairs(system):
    loc = salvetti_localization(system, system.label_mask({"H1", "H2", "H3"}))
    for b in loc.target.poset.elements:
        for a in bits(loc.target.poset.below(b)):
            yield a, b


def test_quasi_fibration_refuses_bad_flats(five_planes, non_pappus):
    flat = five_planes.label_mask
    with pytest.raises(ValueError, match="must be modular"):
        quasi_fibration_certify(five_planes, flat({"H2", "H4"}))
    with pytest.raises(ValueError, match="must have corank one"):
        quasi_fibration_certify(five_planes, flat({"H1"}))
    with pytest.raises(ValueError, match="H1,H4 is not a flat"):
        quasi_fibration_certify(five_planes, flat({"H1", "H4"}))
    # the non-realizable member has no modular line at all
    from omkit.lattices import build_lattice

    for f in build_lattice(non_pappus).flats_of_rank(2):
        with pytest.raises(ValueError):
            quasi_fibration_certify(non_pappus, f)


def test_quasi_fibration_braid(braid3):
    # the closure of a triangle is a modular line; fibers have rank three
    cert = quasi_fibration_certify(braid3, braid3.label_mask({"12", "13", "23"}), sample=10)
    assert cert.ok
    assert cert.expected_rank == 3


def oracle_graph_ranks(cert):
    """Each minimal cell of the certificate and its fiber's free rank, by
    the homology oracle."""
    minimal = cert.loc.target.poset.minimal_elements()
    return tuple((m, fiber_homology(cert.loc.fiber(m)).graph_rank) for m in bits(minimal))


def test_certificate_graph_ranks_are_the_homology_ranks(five_planes, braid3):
    for system, labels in ((five_planes, {"H1", "H2", "H3"}), (braid3, {"12", "13", "23"})):
        for sample in (None, 6):
            cert = quasi_fibration_certify(system, system.label_mask(labels), sample)
            assert cert.graph_ranks == oracle_graph_ranks(cert)
            assert {rank for _cell, rank in cert.graph_ranks} == {cert.expected_rank}
            assert cert.ok


def test_sampled_certificate_ranks_every_minimal_fiber(np14_extension):
    # np14: the supersolvable extension of non-pappus, at its modular
    # coatom; one sampled pair, and still all 16 minimal fibers
    result = np14_extension
    cert = quasi_fibration_certify(result.final, result.chain[-2], sample=1)
    poset = cert.loc.target.poset
    (pair,) = cert.pairs
    minimal = poset.minimal_elements()
    assert minimal.bit_count() == 16
    assert [cell for cell, _why in cert.fibers] == bits(minimal | 1 << pair.lower | 1 << pair.upper)
    assert cert.graph_ranks == oracle_graph_ranks(cert)
    assert all(rank == cert.expected_rank == 6 for _cell, rank in cert.graph_ranks)
    assert cert.ok


def counting(monkeypatch, module, name, calls):
    """Patch `module.name` to append each call's first argument to `calls`."""
    real = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_certificate_reduces_no_fiber(monkeypatch, five_planes, braid3, np14_extension):
    import importlib

    # the package re-exports homology(), which hides the module attribute
    module = importlib.import_module("omkit.homology")
    reduced, built = [], []
    counting(monkeypatch, module, "homology", reduced)
    counting(monkeypatch, module, "rank_and_torsion", reduced)
    real = module.chain_complex
    monkeypatch.setattr(module, "chain_complex", lambda salvetti, cells: built.append(cells) or real(salvetti, cells))
    runs = [
        (five_planes, five_planes.label_mask({"H1", "H2", "H3"}), None),
        (braid3, braid3.label_mask({"12", "13", "23"}), None),
        (np14_extension.final, np14_extension.chain[-2], 1),
    ]
    for system, flat, sample in runs:
        built.clear()
        cert = quasi_fibration_certify(system, flat, sample)
        assert cert.ok
        # one chain complex per minimal cell, of its fiber, and no other
        minimal = bits(cert.loc.target.poset.minimal_elements())
        assert built == [cert.loc.fibers[m] for m in minimal]
    assert reduced == []
    # the counters count: one homology, reducing each boundary once
    loc = salvetti_localization(braid3, runs[1][1])
    rec = module.chain_complex(loc.source, loc.fibers[0])
    module.homology(rec)
    assert reduced[0] is rec and len(reduced) == len(rec.bases)


def test_certificate_fiber_types_match_the_homology_oracle(five_planes, braid3, np14, a4):
    # exhaustive: every target cell's fiber is proven a wedge of d circles,
    # as its homology says, and every minimal fiber has the oracle's rank
    runs = [
        (five_planes, "H1,H2,H3"),
        (braid3, "12,13,23"),
        (np14, "L1,L4,L6,g1,g2,g3,g4,g5"),
        (a4, "H1,H2,H3,H5,H6,H8"),
    ]
    for system, flat in runs:
        cert = quasi_fibration_certify(system, system.label_mask(flat.split(",")))
        d, loc = cert.expected_rank, cert.loc
        assert [cell for cell, _why in cert.fibers] == list(loc.target.poset.elements)
        for cell, why in cert.fibers:
            assert (why is None) == fiber_homology(loc.fiber(cell)).is_wedge(d), (flat, cell)
        assert cert.graph_ranks == oracle_graph_ranks(cert)
        assert cert.ok


def test_every_collapse_onto_a_fiber_counts(five_planes):
    # a fiber that an earlier pair proves is unproven by a later pair whose
    # collapse onto it fails
    from dataclasses import replace

    from omkit.morse import MorseCertificate

    cert = quasi_fibration_certify(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    minimal = cert.loc.target.poset.minimal_elements()
    k, pair = next(
        (k, p)
        for k, p in enumerate(cert.pairs)
        if not minimal >> p.upper & 1 and any(q.upper == p.upper for q in cert.pairs[:k])
    )
    bad = replace(pair, upper_matching=MorseCertificate(None, "extra ['x'], missing []"))
    broken = replace(cert, pairs=(*cert.pairs[:k], bad, *cert.pairs[k + 1:]))
    names = cert.loc.target.poset.names
    why = f"collapse from {names[pair.ambient]}: extra ['x'], missing []"
    assert broken.failed_fibers == ((pair.upper, why),)


def test_links_are_free_in_exhaustive_mode(monkeypatch, five_planes, braid3, np14_extension):
    # the link of a pair (a, b) is the matching of the pair (m, b), which
    # an exhaustive run checks anyway; a sampled run adds at most one
    # matching per pair
    import importlib

    module = importlib.import_module("omkit.homology")
    built = []
    real = module.certify_fibers

    def certifying(strat, cells):
        cells = list(cells)
        built.extend((cell, strat.top) for cell in cells)
        return real(strat, cells)

    monkeypatch.setattr(module, "certify_fibers", certifying)
    for system, flat in ((five_planes, "H1,H2,H3"), (braid3, "12,13,23")):
        built.clear()
        cert = quasi_fibration_certify(system, system.label_mask(flat.split(",")))
        own = {(cell, p.ambient) for p in cert.pairs for cell in (p.lower, p.upper)}
        assert {(p.minimal, p.ambient) for p in cert.pairs} <= own
        assert len(built) == len(own)
        # each link is the lower matching of the pair (m, b), the very same
        lower = {(p.lower, p.ambient): p.lower_matching for p in cert.pairs}
        assert all(p.link is lower[p.minimal, p.ambient] for p in cert.pairs)
    built.clear()
    cert = quasi_fibration_certify(np14_extension.final, np14_extension.chain[-2], sample=1)
    own = {(cell, p.ambient) for p in cert.pairs for cell in (p.lower, p.upper)}
    assert len(own) <= len(built) <= len(own) + len(cert.pairs)


def test_one_stratification_is_alive_at_a_time(monkeypatch, five_planes):
    # each ambient's stratification is let go before the next is built
    import importlib
    import weakref

    module = importlib.import_module("omkit.homology")
    real = module.stratify_fiber
    built = []

    def tracked(loc, base):
        assert all(ref() is None for ref in built), "a stratification outlived its ambient"
        strat = real(loc, base)
        built.append(weakref.ref(strat))
        return strat

    monkeypatch.setattr(module, "stratify_fiber", tracked)
    assert quasi_fibration_certify(five_planes, five_planes.label_mask({"H1", "H2", "H3"})).ok
    assert len(built) == 6


def holds_masks(poset):
    """Whether a poset holds its below masks, read without deriving them."""
    try:
        FinitePoset._below.__get__(poset)
    except AttributeError:
        return False
    return True


def test_the_betti_path_builds_no_masks(monkeypatch, braid3, np14):
    # the chain complex reads the Salvetti cells and covers only, so the
    # Betti check builds no Salvetti `FinitePoset`, and with it no names
    # and no masks
    import importlib

    module = importlib.import_module("omkit.homology")
    real = module.SalvettiPoset
    built = []

    def tracked(system):
        salv = real(system)
        built.append(salv)
        return salv

    monkeypatch.setattr(module, "SalvettiPoset", tracked)
    for system in (braid3, np14):
        built.clear()
        assert salvetti_betti_match_whitney(system).ok
        assert len(built) == 1
        assert built[0]._poset is None
    # the first read of `poset` builds it from the covers, without masks,
    # and the first read of a mask derives them
    poset = built[0].poset
    assert not holds_masks(poset)
    poset.below(0)
    assert holds_masks(poset)
    # on a fresh system, neither the covector order nor its dual derives
    # its masks either
    system = corpus("braid3")
    assert salvetti_betti_match_whitney(system).ok
    assert not holds_masks(system.covector_poset()) and not holds_masks(system.covector_poset().dual())


def test_a_passing_certificate_builds_no_source_poset(braid3, np14_extension):
    # the strata are walked down the source covers and the source's names
    # are read only to format a failure, so a passing certificate builds
    # no source `FinitePoset`, and with it no names and no masks
    system = corpus("sec3-arrangement")
    runs = [
        (system, system.label_mask({"H1", "H2", "H3"}), None),
        (braid3, braid3.label_mask({"12", "13", "23"}), None),
        (np14_extension.final, np14_extension.chain[-2], 24),
    ]
    for system, flat, sample in runs:
        cert = quasi_fibration_certify(system, flat, sample)
        assert cert.ok and all(why is None for _cell, why in cert.fibers)
        assert cert.loc.source._poset is None


@pytest.mark.parametrize("name", ["braid3", "non-pappus"])
def test_the_covector_order_derives_its_masks_only_when_asked(name):
    # topes, rank and the topes report read covers and heights only; the
    # covector order keeps its masks only once one is read
    system = corpus(name)
    system.topes(), system.rank(), format_topes(system)
    order = system.covector_poset()
    assert not holds_masks(order)
    below = pairwise_below(system)
    assert [order.below(x) for x in order.elements] == [below[x] for x in order.elements]
    assert holds_masks(order)
    # the dual is built from the upper covers: taking it derives no masks
    # on either poset, and reading its below derives its own masks only
    order = corpus(name).covector_poset()
    dual = order.dual()
    assert not holds_masks(order) and not holds_masks(dual)
    assert [dual.below(x) for x in dual.elements] == [
        mask_of(y for y in order.elements if below[y] >> x & 1) for x in order.elements
    ]
    assert holds_masks(dual) and not holds_masks(order)


def test_morse_reduction_preserves_homology(five_planes):
    # critical complexes of the fiber matchings have the homology of the
    # ambient fiber they retract
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    tops = bits(loc.target.poset.maximal_elements())
    top = tops[0]
    ambient = loc.fiber(top)
    for a in bits(loc.target.poset.below(top)):
        sub = loc.fiber(a)
        assert betti_numbers(sub) == betti_numbers(ambient)
