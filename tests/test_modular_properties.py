"""Property tests for the covector-level consequences of modularity.

These check, exhaustively on corpus members, the three structural facts
the fiber stratification rests on: faces with equal zero set and equal
restriction to a modular flat agree on the whole join; minimal lifts of
localized covectors into a contraction have the joined zero set; and
restriction to a modular flat is a poset isomorphism from each
contraction interval onto the localized covectors.
"""

import itertools

import pytest

from conftest import sign_vectors
from omkit.lattices import build_lattice
from side_lemmas import join


def _within(system, sub, flat):
    """A flat of `system` as a ground-bit mask over the restriction `sub`."""
    return sub.label_mask(system.labels(flat))


def test_face_extension_on_modular_flats(five_planes, uniform23):
    for system in (uniform23, five_planes):
        lat = build_lattice(system)
        covs = sign_vectors(system)
        for x in lat.flats:
            if not lat.is_modular_flat(x).ok:
                continue
            for sigma, tau in itertools.combinations(covs, 2):
                y = sigma.zero_mask
                if tau.zero_mask != y:
                    continue
                if sigma.restrict(x) != tau.restrict(x):
                    continue
                joined = join(lat, x, y)
                assert sigma.restrict(joined) == tau.restrict(joined)


def test_minimal_lift_zero_sets(five_planes):
    # lifts minimal in the dual covector order (the order the localization
    # fibers carry), i.e. maximal in the primal order: their zero set is
    # the join of the localized zero set with the contraction flat
    system = five_planes
    lat = build_lattice(system)
    covs = sign_vectors(system)
    checked = 0
    for x in lat.flats:
        loc = system.restriction(x)
        for y in lat.flats:
            meet = x & y
            for sigma in sign_vectors(loc):
                sigma_zero = system.label_mask(lab for lab, s in sigma if s == 0)
                if meet & ~sigma_zero:
                    continue
                preimage = [
                    tau
                    for tau in covs
                    if tau.restrict(x) == sigma and not y & ~tau.zero_mask
                ]
                if not preimage:
                    continue
                dual_minimal = [
                    tau
                    for tau in preimage
                    if not any(r is not tau and tau.leq(r) for r in preimage)
                ]
                want = join(lat, sigma_zero, y)
                for tau in dual_minimal:
                    assert tau.zero_mask == want
                checked += 1
    assert checked > 500


def test_restriction_interval_isomorphism(five_planes, uniform23):
    # for modular X and any Y, restriction to X maps the covectors of the
    # join-localization that vanish on Y bijectively and order-isomorphically
    # onto the covectors of the X-localization vanishing on the meet
    for system in (uniform23, five_planes):
        lat = build_lattice(system)
        for x in lat.flats:
            if not lat.is_modular_flat(x).ok:
                continue
            for y in lat.flats:
                joined = join(lat, x, y)
                loc_join = system.restriction(joined)
                y_in_join = _within(system, loc_join, y)
                source = [s for s in sign_vectors(loc_join) if not s.support_mask & y_in_join]
                loc_x = system.restriction(x)
                meet_in_x = _within(system, loc_x, x & y)
                target = [s for s in sign_vectors(loc_x) if not s.support_mask & meet_in_x]
                images = [s.restrict(_within(system, loc_join, x)) for s in source]
                assert len(set(images)) == len(source)  # injective
                assert set(images) == set(target)  # onto
                # order isomorphism: comparabilities transfer both ways
                for a, b in itertools.combinations(range(len(source)), 2):
                    assert source[a].leq(source[b]) == images[a].leq(images[b])
                    assert source[b].leq(source[a]) == images[b].leq(images[a])


def test_interval_isomorphism_fails_without_modularity(five_planes):
    # the restriction map at a non-modular flat is not injective on some
    # contraction: exhibits why the hypothesis matters
    system = five_planes
    lat = build_lattice(system)
    x = system.label_mask({"H2", "H4"})
    assert not lat.is_modular_flat(x).ok
    found_failure = False
    for y in lat.flats:
        joined = join(lat, x, y)
        loc_join = system.restriction(joined)
        y_in_join = _within(system, loc_join, y)
        source = [s for s in sign_vectors(loc_join) if not s.support_mask & y_in_join]
        images = [s.restrict(_within(system, loc_join, x)) for s in source]
        loc_x = system.restriction(x)
        meet_in_x = _within(system, loc_x, x & y)
        target = {s for s in sign_vectors(loc_x) if not s.support_mask & meet_in_x}
        if len(set(images)) != len(source) or set(images) != target:
            found_failure = True
    assert found_failure
