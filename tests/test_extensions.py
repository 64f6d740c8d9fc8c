import itertools
import random

import pytest

from conftest import sign_vectors
from omkit.extensions import (
    ExtensionError,
    _SearchSpace,
    _lift,
    levi_enlargement,
    single_element_extensions,
    supersolvable_extension,
)
from omkit.lattices import build_lattice
from omkit.matroids import CovectorSystem, RationalArrangement, from_arrangement
from omkit.salvetti import salvetti_localization
from omkit.posets import bits, mask_of
from omkit.signs import compose_masks
from poset_builders import order_pairs
from side_lemmas import candidate_by_closure, contraction_cycle, cycle_placements, rank3_modular_coatom_test
from sign_vector import SignVector


def brute_force_rank2_extensions(base: CovectorSystem, new_label: str):
    """Independent oracle: enumerate all rank-2 covector systems on one
    more element restricting to the base, by brute force over antipodal
    cocircuit sets followed by composition closure and the axiom check."""
    ground = base.ground + (new_label,)
    n = len(ground)
    low = (1 << len(base.ground)) - 1  # the base elements
    candidates = []
    for signs in itertools.product((1, -1, 0), repeat=n):
        if all(s == 0 for s in signs):
            continue
        v = SignVector.from_signs(signs, ground)
        candidates.append(v)
    reps = {}
    for v in candidates:
        # restrictions of covectors are covectors of the restriction, so
        # candidate cocircuits must restrict into the base system
        if (v.plus & low, v.minus & low) not in base.numbering():
            continue
        key = min(str(v), str(v.opposite()))
        reps.setdefault(key, v)
    reps = sorted(reps.values(), key=str)
    found = []
    # rank-2 systems have at most  n  cocircuit pairs; enumerate subsets
    for r in range(2, n + 1):
        for combo in itertools.combinations(reps, r):
            masks = set()
            for v in combo:
                masks.add((v.plus, v.minus))
                masks.add((v.minus, v.plus))
            closed = {(0, 0)} | set(masks)
            frontier = list(closed)
            while frontier:
                new = []
                for p1, m1 in frontier:
                    for p2, m2 in masks:
                        q = compose_masks(p1, m1, p2, m2)
                        if q not in closed:
                            closed.add(q)
                            new.append(q)
                frontier = new
            system = CovectorSystem(ground, closed)
            if not system.check_axioms().ok:
                continue
            if system.rank() != 2 or not system.is_simple():
                continue
            if system.cocircuits() != mask_of(system.numbering()[v] for v in masks):
                continue
            restricted = {c.restrict(low) for c in sign_vectors(system)}
            if restricted == set(sign_vectors(base)):
                found.append(frozenset(system.names()))
    return set(found)


def test_rank2_extension_count_matches_brute_force(uniform23):
    got = {
        frozenset(e.extended.names())
        for e in single_element_extensions(uniform23, new_label="e4")
    }
    want = brute_force_rank2_extensions(uniform23, "e4")
    assert got == want
    assert len(got) == 6  # one placement per open arc of the circle


def test_extensions_restrict_to_base(five_planes):
    count = 0
    for result in single_element_extensions(five_planes):
        restricted = {c.restrict(0b11111) for c in sign_vectors(result.extended)}
        assert restricted == set(sign_vectors(five_planes))
        assert result.extended.check_axioms().ok
        assert result.extended.is_simple()
        count += 1
        if count >= 5:
            break
    assert count == 5


def test_parallel_placements_are_filtered(five_planes):
    # forcing the new element onto every flat through H1 would make it a
    # copy of H1; the stream under those constraints is empty
    lat = build_lattice(five_planes)
    through = frozenset(f for f in lat.flats_of_rank(2) if f & five_planes.label_mask({"H1"}))
    assert list(single_element_extensions(five_planes, zero_flats=through)) == []


def test_the_constrained_stream_is_the_filtered_stream(uniform23, braid3, five_planes):
    """Constraints kept by the coline placements alone give the
    unconstrained stream filtered by signature, in its order: zero flats
    only, nonzero flats only, and both, a flat in both sets being zero."""
    kept = {"zero": 0, "nonzero": 0, "both": 0}
    for system in (uniform23, braid3, five_planes):
        stream = [e.signature for e in single_element_extensions(system)]
        coatoms = _SearchSpace(system).coatoms
        for x in coatoms:
            cases = {
                "zero": (frozenset({x}), frozenset()),
                "nonzero": (frozenset(), frozenset({x})),
                "both": (frozenset({x}), frozenset(coatoms)),
            }
            for case, (zero, nonzero) in cases.items():
                want = [
                    sig
                    for sig in stream
                    if all(sig[f] == 0 for f in zero) and all(sig[f] for f in nonzero - zero)
                ]
                got = [e.signature for e in single_element_extensions(system, zero, nonzero)]
                assert got == want, (system.ground, case, x)
                kept[case] += len(got)
    assert all(kept.values()), kept


def test_enlargements_lift_the_two_flats_through_the_new_element(
    braid3, five_planes, non_pappus, np14_extension
):
    """Both lifted flats of an enlargement contain the new element; with
    generic=True no other line's lift does.  Every disjoint pair of lines
    of three rank-three members, and every step of the non-pappus loop."""
    found = []
    for system in (braid3, five_planes, non_pappus):
        lines = build_lattice(system).flats_of_rank(2)
        for x1, x2 in itertools.combinations(lines, 2):
            if not x1 & x2:
                for generic in (False, True):
                    found.append((levi_enlargement(system, x1, x2, generic=generic), x1, x2, generic))
    found += [(step.result, step.pivot, step.through, False) for step in np14_extension.steps]
    assert len(found) == 2 * (3 + 2 + 61) + 5
    for result, x1, x2, generic in found:
        g = 1 << len(result.base.ground)
        assert result.flat_lift[x1] & result.flat_lift[x2] & g
        if generic:
            others = build_lattice(result.base).flats_of_rank(2)
            assert not any(result.flat_lift[f] & g for f in others if f not in (x1, x2))


# the new element g is appended to the five planes' ground: bit 5
G = 1 << 5


def test_levi_enlargement_five_planes(five_planes):
    x1 = five_planes.label_mask({"H2", "H4"})
    x2 = five_planes.label_mask({"H3", "H5"})
    result = levi_enlargement(five_planes, x1, x2)
    assert result.new_element == "g"
    assert result.extended.ground == five_planes.ground + ("g",)
    assert result.flat_lift[x1] == x1 | G
    assert result.flat_lift[x2] == x2 | G
    lat = build_lattice(result.extended)
    assert lat.rank_of[result.flat_lift[x1]] == 2
    assert lat.rank_of[result.flat_lift[x2]] == 2


def test_levi_enlargement_generic(five_planes):
    x1 = five_planes.label_mask({"H2", "H4"})
    x2 = five_planes.label_mask({"H3", "H5"})
    result = levi_enlargement(five_planes, x1, x2, generic=True)
    lat5 = build_lattice(five_planes)
    for f in lat5.flats_of_rank(2):
        if f in (x1, x2):
            assert result.flat_lift[f] & G
        else:
            assert not result.flat_lift[f] & G


def test_levi_preconditions(five_planes):
    flat = five_planes.label_mask
    with pytest.raises(ExtensionError, match="disjoint"):
        levi_enlargement(five_planes, flat({"H2", "H4"}), flat({"H3", "H4"}))
    with pytest.raises(ExtensionError, match="H1 is not a rank-two flat"):
        levi_enlargement(five_planes, flat({"H1"}), flat({"H2", "H4"}))
    with pytest.raises(ExtensionError, match="H1,H4 is not a rank-two flat"):
        levi_enlargement(five_planes, flat({"H1", "H4"}), flat({"H2", "H5"}))


def test_levi_non_pappus(non_pappus):
    lat = build_lattice(non_pappus)
    lines = lat.flats_of_rank(2)
    x1, x2 = next((x, y) for x in lines for y in lines if not (x & y))
    result = levi_enlargement(non_pappus, x1, x2)
    g = 1 << len(non_pappus.ground)
    assert result.flat_lift[x1] & result.flat_lift[x2] & g


def test_supersolvable_extension_trivial(five_planes):
    result = supersolvable_extension(five_planes)
    assert result.steps == ()
    assert result.final is five_planes


def test_single_enlargement_suffices_for_off_pivot(five_planes):
    # {H2,H4} has exactly one disjoint rank-2 flat, so one enlargement
    # through it already makes the lifted pivot meet everything
    lat = build_lattice(five_planes)
    pivot = five_planes.label_mask({"H2", "H4"})
    disjoint = [f for f in lat.flats_of_rank(2) if not (f & pivot)]
    assert disjoint == [five_planes.label_mask({"H3", "H5"})]
    result = levi_enlargement(five_planes, pivot, disjoint[0])
    new_lat = build_lattice(result.extended)
    lifted = result.flat_lift[pivot]
    assert all(lifted & f for f in new_lat.flats_of_rank(2))
    assert rank3_modular_coatom_test(new_lat, lifted)


def test_supersolvable_extension_non_pappus(non_pappus, np14_extension):
    result = np14_extension
    assert len(result.steps) >= 1
    for step in result.steps:
        assert step.disjoint_after < step.disjoint_before
    # the restriction to the original nine elements is exactly the input
    low = (1 << len(non_pappus.ground)) - 1
    restricted = {c.restrict(low) for c in sign_vectors(result.final)}
    assert restricted == set(sign_vectors(non_pappus))
    lat = build_lattice(result.final)
    assert lat.is_supersolvable() == result.chain


def test_supersolvable_extension_labels_by_the_smallest_free_g(non_pappus):
    # with g1 and g3 taken by the input, the five new elements are the
    # smallest labels g<i> still free when each is added
    relabel = {"L2": "g1", "L5": "g3"}
    ground = tuple(relabel.get(lab, lab) for lab in non_pappus.ground)
    result = supersolvable_extension(CovectorSystem(ground, non_pappus.vectors()))
    assert [s.new_element for s in result.steps] == ["g2", "g4", "g5", "g6", "g7"]
    assert result.final.ground == ground + ("g2", "g4", "g5", "g6", "g7")


def test_extension_output_carries_the_fibration_structure(np14_extension):
    # closing the loop: the supersolvable extension has a modular coatom
    # (the lifted pivot) whose localization certifies as a quasi-fibration
    from omkit.homology import quasi_fibration_certify

    result = np14_extension
    lat = build_lattice(result.final)
    coatoms = [
        f for f in lat.flats_of_rank(2) if lat.is_modular_flat(f).ok
    ]
    assert coatoms
    x = coatoms[0]
    cert = quasi_fibration_certify(result.final, x)
    assert cert.ok
    assert cert.expected_rank == len(result.final.ground) - x.bit_count()
    # exhaustive: one pair per comparable pair a <= b of the localized poset
    loc = salvetti_localization(result.final, x)
    assert len(cert.pairs) == len(order_pairs(loc.target.poset))


def test_rank3_dfs_matches_raw_scan(five_planes):
    """The pruned search agrees with the raw scan over all 3^6 signature
    assignments on a rank-three input (the strongest completeness check
    the engine gets)."""
    from omkit.extensions import _SearchSpace, _build_extension

    space = _SearchSpace(five_planes)
    coatoms = space.coatoms
    raw = set()
    for values in itertools.product((1, -1, 0), repeat=len(coatoms)):
        built = _build_extension(space, dict(zip(coatoms, values)), "g")
        if built is not None:
            raw.add(frozenset(built.signature.items()))
    dfs = {
        frozenset(e.signature.items())
        for e in single_element_extensions(five_planes, new_label="g")
    }
    assert dfs == raw
    assert len(raw) == 64


def test_supersolvable_extension_of_uniform_system():
    # every rank-2 flat of the generic system is a pair, so the loop has
    # to thread the new lines through six disjoint flats one by one
    from omkit.matroids import RationalArrangement, from_arrangement

    forms = [(1, t, t * t) for t in range(1, 7)]
    u6 = from_arrangement(
        RationalArrangement(tuple(f"e{t}" for t in range(1, 7)), forms)
    )
    result = supersolvable_extension(u6)
    assert [s.disjoint_before for s in result.steps] == [6, 5, 4, 3, 2, 1]
    assert len(result.final.ground) == 12
    restricted = {c.restrict((1 << len(u6.ground)) - 1) for c in sign_vectors(result.final)}
    assert restricted == set(sign_vectors(u6))
    assert build_lattice(result.final).is_supersolvable() is not None


def test_prune_soundness_and_completeness(uniform23):
    """The per-coline prune must reject only signatures that the full
    construction-and-axioms check also rejects: the pruned search and the
    raw scan over all assignments accept exactly the same signatures."""
    from omkit.extensions import _SearchSpace, _build_extension

    space = _SearchSpace(uniform23)
    coatoms = space.coatoms
    raw = set()
    for values in itertools.product((1, -1, 0), repeat=len(coatoms)):
        assignment = dict(zip(coatoms, values))
        built = _build_extension(space, assignment, "g")
        if built is not None:
            raw.add(frozenset(built.signature.items()))
    dfs = {
        frozenset(e.signature.items())
        for e in single_element_extensions(uniform23, new_label="g")
    }
    assert dfs == raw


def test_the_lift_is_the_closure_of_the_signed_and_crossing_cocircuits(
    five_planes, braid3, uniform23, np14_extension
):
    """At every leaf of the raw scans of sec3, braid3 and uniform-2-3
    that each coline admits, the only leaves the search builds, the lifted
    candidate is the composition closure of the cocircuits with their
    signs and the crossing cocircuits.  Off those leaves the two differ
    and both fail the axioms; the raw scans of sec3 and uniform-2-3 above
    check that the lift is rejected there.  Every step of the
    supersolvable extensions of non-pappus and of the six-element uniform
    system is that closure too."""
    for system, leaves in ((five_planes, 64), (braid3, 86), (uniform23, 12)):
        space = _SearchSpace(system)
        admitted = 0
        for values in itertools.product((1, -1, 0), repeat=len(space.coatoms)):
            signature = dict(zip(space.coatoms, values))
            if all({x: signature[x] for x in flats} in cands for flats, cands in space.coline_data):
                admitted += 1
                assert set(_lift(space, signature)) == candidate_by_closure(system, signature)
        assert admitted == leaves
    forms = [(1, t, t * t) for t in range(1, 7)]
    u6 = from_arrangement(RationalArrangement(tuple(f"e{t}" for t in range(1, 7)), forms))
    for steps in (np14_extension.steps, supersolvable_extension(u6).steps):
        for step in steps:
            found = step.result
            assert set(found.extended.vectors()) == candidate_by_closure(found.base, found.signature)


def test_the_search_builds_only_assignments_every_coline_admits(uniform23, five_planes, monkeypatch):
    """A leaf is built only when, on every coline, some placement agrees
    with the whole assignment: each flat filters the placements of its
    colines when it is assigned."""
    import omkit.extensions as extensions

    real = extensions._build_extension
    leaves = []

    def checked(space, values, new_label):
        for flats_here, placements in space.coline_data:
            assert {x: values[x] for x in flats_here} in placements, values
        leaves.append(values)
        return real(space, values, new_label)

    monkeypatch.setattr(extensions, "_build_extension", checked)
    for system in (uniform23, five_planes):
        leaves.clear()
        found = list(single_element_extensions(system))
        assert found and len(leaves) >= len(found)


def coline_adjacency(space: _SearchSpace, coline: int) -> dict[int, list[int]]:
    """The cocircuits through a coline, each with its neighbours along the
    edge cells on the coline."""
    adj: dict[int, list[int]] = {}
    for f, below in enumerate(space.cocircuits_below):
        if space.system.zero_set(f) == coline:
            y1, y2 = bits(below)
            adj.setdefault(y1, []).append(y2)
            adj.setdefault(y2, []).append(y1)
    return adj


def same_circle(a: list[int], b: list[int]) -> bool:
    """Whether two lists are one circle, up to rotation and reflection."""
    return len(a) == len(b) and any(
        b == r[i:] + r[:i] for r in (a, a[::-1]) for i in range(len(a))
    )


def seeded_arrangements(count: int) -> list[CovectorSystem]:
    """Simple rank-three systems of 5 to 7 random integer forms on R^3, no
    two of them parallel, one per seed."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        forms: list[tuple[int, ...]] = []
        while len(forms) < 5 + seed % 3:
            f = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(f) and all(
                any(f[i] * g[j] != f[j] * g[i] for i, j in ((0, 1), (0, 2), (1, 2)))
                for g in forms
            ):
                forms.append(f)
        labels = tuple(f"e{i + 1}" for i in range(len(forms)))
        out.append(from_arrangement(RationalArrangement(labels, forms)))
    return out


def test_edge_cell_circles_match_the_contractions(all_corpus, np14_extension):
    """Each coline's circle walked along the base's edge cells is the
    circle of its contraction, and the placements on it are the oracle's:
    on the corpus members of rank 2 and 3, the base of every step of the
    non-pappus loop and twelve seeded arrangements."""
    systems = [s for s in all_corpus.values() if s.rank() in (2, 3)]
    systems += [step.result.base for step in np14_extension.steps]
    systems += seeded_arrangements(12)
    assert len(systems) == 22
    colines = 0
    for system in systems:
        space = _SearchSpace(system)
        for coline, (flats_here, cands) in zip(space.colines, space.coline_data):
            cycle = space._coline_cycle(coline_adjacency(space, coline), 2 * len(flats_here))
            want = contraction_cycle(system, coline)
            assert same_circle(cycle, want), (system.ground, coline)
            assert {frozenset(c.items()) for c in cands} == cycle_placements(system, want)
            assert len(cands) == len({frozenset(c.items()) for c in cands})
            colines += 1
    assert colines == 151


def test_the_walk_refuses_a_broken_circle(five_planes):
    space = _SearchSpace(five_planes)
    # the coline on the most coatoms, whose circle can split into two
    coline, flats_here = max(
        ((a, f) for a, (f, _) in zip(space.colines, space.coline_data)),
        key=lambda pair: len(pair[1]),
    )
    size = 2 * len(flats_here)
    real = coline_adjacency(space, coline)
    cycle = space._coline_cycle(real, size)
    assert size == len(cycle) == 6

    def broken(drop=(), add=()):
        adj = {y: list(ns) for y, ns in real.items()}
        for u, v in drop:
            adj[u].remove(v)
            adj[v].remove(u)
        for u, v in add:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return adj

    with pytest.raises(ExtensionError, match="dead-ends"):
        space._coline_candidates(coline, broken(drop=[cycle[:2]]))
    # the cocircuit pair of a coatom off the coline
    x = next(x for x in space.coatoms if coline & ~x)
    u = space.pair_rep[x]
    opposite = five_planes.numbering()[five_planes.vectors()[u][::-1]]
    with pytest.raises(ExtensionError, match="not a single cycle"):
        space._coline_candidates(coline, broken(add=[(u, opposite), (opposite, u)]))
    # two triangles: every cocircuit is there, but the walk closes early
    split = broken(
        drop=[cycle[2:4], (cycle[5], cycle[0])],
        add=[(cycle[2], cycle[0]), (cycle[5], cycle[3])],
    )
    with pytest.raises(ExtensionError, match="not a single cycle"):
        space._coline_candidates(coline, split)
    swap = {cycle[0]: cycle[1], cycle[1]: cycle[0]}
    swapped = {swap.get(y, y): [swap.get(z, z) for z in ns] for y, ns in real.items()}
    with pytest.raises(ExtensionError, match="not antipodally symmetric"):
        space._coline_candidates(coline, swapped)


def test_the_search_space_builds_no_contraction(np14, monkeypatch):
    # the circles come from the edge cells of np14 itself: no system is
    # built and no covector poset besides the one np14 already has
    np14.covector_poset()
    build_lattice(np14)
    stores, posets = [], []
    store, poset = CovectorSystem._store, CovectorSystem.covector_poset

    def counted_store(self, *args):
        stores.append(args[0])
        return store(self, *args)

    def counted_poset(self):
        if self._poset is None:
            posets.append(self.ground)
        return poset(self)

    monkeypatch.setattr(CovectorSystem, "_store", counted_store)
    monkeypatch.setattr(CovectorSystem, "covector_poset", counted_poset)
    space = _SearchSpace(np14)
    assert len(space.colines) == 14
    assert (stores, posets) == ([], [])
