"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines
and timings.  Budgets are asserted, not just reported.
"""

import itertools
import random
import time

from conftest import sign_vectors
from omkit.homology import (
    chain_complex,
    graph_rank,
    homology,
    quasi_fibration_certify,
    salvetti_betti_match_whitney,
    semidirect_rank_sequence,
)
from omkit.lattices import build_lattice
from omkit.matroids import CovectorSystem
from omkit.morse import (
    matching_convex_critical,
    matching_from_shelling,
    matching_salvetti_fiber,
)
from omkit.posets import FinitePoset, bits, mask_of
from omkit.salvetti import SalvettiPoset, salvetti_localization, stratify_fiber
from omkit.signs import separator_masks
from omkit.topes import (
    dual_subcomplex,
    is_convex,
    shelling_order_from_extension,
    sphere_poset,
    verify_shelling,
)
from poset_builders import image
from side_lemmas import (
    all_convex_tope_sets,
    brylawski_iso,
    dual_by_complement,
    dual_matching,
    is_convex_betweenness,
    kahn_acyclic,
    localization_section,
    section_iota,
    subcomplex_LQ,
    tope_poset,
)


def _verdict(name: str, ok: bool, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok


def test_criterion_1_axioms_and_corpus(all_corpus):
    started = time.monotonic()
    ok = True
    for name, system in all_corpus.items():
        t0 = time.monotonic()
        ok = ok and system.check_axioms().ok
        ok = ok and (time.monotonic() - t0) < 1.0
    five = all_corpus["sec3-arrangement"]
    t = bits(five.topes())[0]
    mutated = CovectorSystem(five.ground, five.vectors()[:t] + five.vectors()[t + 1 :])
    t0 = time.monotonic()
    report = mutated.check_axioms()
    ok = ok and (time.monotonic() - t0) < 1.0
    ok = ok and not report.composition.passed
    ok = ok and report.composition.witness is not None
    _verdict("criterion 1 (axioms and corpus)", ok, started)


def test_criterion_2_running_example_fidelity(five_planes):
    started = time.monotonic()
    lat = build_lattice(five_planes)
    x = five_planes.label_mask({"H1", "H2", "H3"})
    ok = lat.is_modular_flat(x).ok
    loc = salvetti_localization(five_planes, x)
    # the base tope of the figure: the string must separate first at H4,
    # then at H5; the lexicographically smallest such base is used
    chosen = None
    h4, h5 = five_planes.label_mask(["H4"]), five_planes.label_mask(["H5"])
    for bp in bits(loc.localized.covector_poset().maximal_elements()):
        strat = stratify_fiber(loc, bp)
        if strat.separators == (h4, h5):
            chosen = strat
            break
    ok = ok and chosen is not None
    if chosen:
        t0, t1, t2 = (five_planes.vectors()[t] for t in chosen.tope_string)
        ok = ok and len(chosen.tope_string) == 3
        ok = ok and separator_masks(*t1, *t2) == h5
        ok = ok and separator_masks(*t0, *t2) == h4 | h5
    ok = ok and (time.monotonic() - started) < 1.0
    _verdict("criterion 2 (running-example fidelity)", ok, started)


def test_criterion_3_betti_cross_oracle(all_corpus):
    started = time.monotonic()
    ok = True
    per_member: dict[str, float] = {}
    for name, system in all_corpus.items():
        t0 = time.monotonic()
        match, betti, whitney, _ = salvetti_betti_match_whitney(system)
        per_member[name] = time.monotonic() - t0
        ok = ok and match
        if name == "sec3-arrangement":
            ok = ok and betti == (1, 5, 8, 4)
        if name == "rank1":
            ok = ok and betti == (1, 1)
    ok = ok and max(per_member.values()) < 60.0
    _verdict("criterion 3 (Betti equals Whitney)", ok, started)


def test_criterion_4_main_certificate(five_planes):
    started = time.monotonic()
    cert = quasi_fibration_certify(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    ok = cert.ok
    ok = ok and all(why is None for _cell, why in cert.fibers)
    ok = ok and cert.expected_rank == 2
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    want_pairs = sum(
        loc.target.poset.below(b).bit_count() for b in loc.target.poset.elements
    )
    ok = ok and len(cert.pairs) == want_pairs
    ok = ok and (time.monotonic() - started) < 300.0
    _verdict("criterion 4 (quasi-fibration certificate)", ok, started)


def test_criterion_5_matching_constructions(five_planes, uniform23):
    started = time.monotonic()
    ok = True
    for system in (uniform23, five_planes):
        for q in all_convex_tope_sets(system):
            m = matching_convex_critical(system, q)
            ok = ok and kahn_acyclic(m)
            ok = ok and m.critical_cells() == dual_subcomplex(system, q) == dual_by_complement(system, q)
        lat = build_lattice(system)
        modular_coatoms = [
            f
            for f in lat.flats_of_rank(lat.rank() - 1)
            if lat.is_modular_flat(f).ok
        ]
        for x in modular_coatoms:
            loc = salvetti_localization(system, x)
            for top in bits(loc.target.poset.maximal_elements()):
                strat = stratify_fiber(loc, loc.target.keys[top][1])
                for a in bits(loc.target.poset.below(top)):
                    m = matching_salvetti_fiber(strat, a)
                    ok = ok and kahn_acyclic(m)
                    ok = ok and m.critical_cells() == mask_of(loc.fiber(a))
    _verdict("criterion 5 (matching constructions)", ok, started)


def _random_linear_extension(poset: FinitePoset, rng: random.Random) -> list[int]:
    out = []
    placed: set[int] = set()
    remaining = set(poset.elements)
    while remaining:
        ready = [
            x
            for x in remaining
            if all(y == x or y in placed for y in bits(poset.below(x)))
        ]
        pick = rng.choice(sorted(ready))
        out.append(pick)
        placed.add(pick)
        remaining.discard(pick)
    return out


def test_criterion_6_shellings(all_corpus):
    started = time.monotonic()
    rng = random.Random(20250809)
    ok = True
    for name, system in all_corpus.items():
        if system.rank() > 3:
            continue
        poset = sphere_poset(system)
        topes = bits(system.covector_poset().maximal_elements())
        for _ in range(50):
            base = rng.choice(topes)
            tp = tope_poset(system, base)
            order = _random_linear_extension(tp, rng)
            ok = ok and verify_shelling(poset, order).ok
        # shellable-ball certificates for the convex pairs
        convex_sets = all_convex_tope_sets(system)
        if len(topes) > 24:
            convex_sets = rng.sample(convex_sets, 40)
        for q in convex_sets:
            if q == mask_of(topes):
                continue
            ok = ok and _ball_certificates_ok(system, q, poset)
    _verdict("criterion 6 (shellings and shellable balls)", ok, started)


def _ball_certificates_ok(system, q, poset) -> bool:
    # both convexity criteria accept every enumerated set
    if not (is_convex(system, q) and is_convex_betweenness(system, q)):
        return False
    ext = shelling_order_from_extension(system, bits(q)[0], q)
    q_order = [t for t in ext if q >> t & 1]
    rest_order = [t for t in reversed(ext) if not q >> t & 1]
    zero = 1 << system.numbering()[0, 0]
    ok = True
    for cells in (q_order, rest_order):
        if not cells:
            continue
        sub = poset.subposet(subcomplex_LQ(system, mask_of(cells)) & ~zero)
        ok = ok and verify_shelling(sub, cells).ok
        vertex = min(x for x in bits(sub.minimal_elements()) if sub.leq(x, cells[0]))
        m = matching_from_shelling(sub, cells, vertex)
        ok = ok and m.critical_cells() == 1 << vertex
    return ok


def test_criterion_7_supersolvable_extension(non_pappus):
    from omkit.extensions import supersolvable_extension

    started = time.monotonic()
    result = supersolvable_extension(non_pappus)
    ok = len(result.steps) >= 1
    ok = ok and all(s.disjoint_after < s.disjoint_before for s in result.steps)
    lat = build_lattice(result.final)
    chain = lat.is_supersolvable()
    ok = ok and chain is not None
    low = (1 << len(non_pappus.ground)) - 1
    restricted = {c.restrict(low) for c in sign_vectors(result.final)}
    ok = ok and restricted == set(sign_vectors(non_pappus))
    ok = ok and (time.monotonic() - started) < 600.0
    _verdict("criterion 7 (supersolvable extension)", ok, started)


def test_criterion_8_rank_data(five_planes):
    started = time.monotonic()
    seq = semidirect_rank_sequence(five_planes)
    ok = seq == (2, 2, 1)
    res = homology(chain_complex(SalvettiPoset(five_planes)))
    ok = ok and sum(seq) == 5 == res.betti[1]
    loc = salvetti_localization(five_planes, five_planes.label_mask({"H1", "H2", "H3"}))
    for cid in bits(loc.target.poset.minimal_elements()):
        ok = ok and graph_rank(chain_complex(loc.source, loc.fiber(cid))) == 2
    _verdict("criterion 8 (fundamental-group rank data)", ok, started)


def test_criterion_9_property_suites(all_corpus):
    started = time.monotonic()
    ok = True
    for name, system in all_corpus.items():
        covs = sign_vectors(system)
        # sign-vector laws, exhaustive on pairs, sampled triples when large
        for a in covs:
            for b in covs:
                ok = ok and a.compose(b).zero_mask == a.zero_mask & b.zero_mask
                ok = ok and a.separator_mask(b) == b.separator_mask(a)
            if not ok:
                break
        rng = random.Random(5)
        triples = (
            list(itertools.product(covs, repeat=3))
            if len(covs) <= 30
            else [tuple(rng.choice(covs) for _ in range(3)) for _ in range(4000)]
        )
        for a, b, c in triples:
            ok = ok and a.compose(b).compose(c) == a.compose(b.compose(c))
        ok = ok and _localization_laws_ok(system)
        ok = ok and _brylawski_ok(system)
        ok = ok and _dual_matching_ok(system)
    _verdict("criterion 9 (property suites)", ok, started)


def _localization_laws_ok(system) -> bool:
    lat = build_lattice(system)
    ok = True
    covs = sign_vectors(system)
    big = len(covs) > 100
    for x in lat.flats:
        loc, rho = system.localization(x)
        pairs = (
            itertools.product(covs, covs)
            if not big
            else zip(covs, reversed(covs))
        )
        for a, b in pairs:
            ok = ok and a.compose(b).restrict(x) == a.restrict(x).compose(b.restrict(x))
        anchors = [c for c in range(len(system)) if system.zero_set(c) == x]
        for alpha in anchors:
            iota = section_iota(system, alpha)
            ok = ok and all(
                rho[iota.assignment[cid]] == cid
                for cid in iota.source.elements
            )
        if len(system) <= 200 and lat.rank_of[x] >= lat.rank() - 1:
            sloc = salvetti_localization(system, x)
            for alpha in anchors:
                section = localization_section(sloc, alpha)
                ok = ok and all(
                    sloc.cells[section.assignment[cid]] == cid
                    for cid in section.source.elements
                )
    return ok


def _brylawski_ok(system) -> bool:
    lat = build_lattice(system)
    ok = True
    for x in lat.flats:
        if not lat.is_modular_flat(x).ok:
            continue
        for y in lat.flats:
            p_x, s_y = brylawski_iso(lat, x, y)  # raises unless mutually inverse
            ok = ok and image(p_x) == p_x.target.members
    return ok


def _dual_matching_ok(system) -> bool:
    ok = True
    convex = all_convex_tope_sets(system)
    sample = convex if len(convex) <= 40 else convex[:: len(convex) // 40]
    for q in sample:
        m = matching_convex_critical(system, q)
        d = dual_matching(m)
        ok = ok and kahn_acyclic(d) == kahn_acyclic(m) == (m.cycle() is None)
        ok = ok and d.critical_cells() == m.critical_cells()
    return ok
