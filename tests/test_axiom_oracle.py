"""`CovectorSystem.check_axioms` against an all-pairs reference.

The reference scans every ordered pair of covectors for composition and
elimination, and per elimination obligation every covector, with no
column bitsets and no pair symmetry.  The two must give equal reports,
verdicts and witness strings alike, on random sign-vector sets and on
corpus members and extension steps with covectors deleted or added.
The composition check, which packs each covector into one int, must
list the same escaping pairs as the one keyed by (plus, minus) pairs."""

from unittest.mock import patch

from hypothesis import HealthCheck, given, settings, strategies as st

from omkit import matroids
from omkit.corpus import CORPUS_NAMES, corpus
from omkit.matroids import (
    AxiomCheck,
    AxiomReport,
    CovectorSystem,
    RationalArrangement,
    _composition_escape,
    from_arrangement,
)
from omkit.signs import compose_masks, separator_masks
from sign_vector import SignVector


def reference_check_axioms(system: CovectorSystem) -> AxiomReport:
    covs = sorted((SignVector(system.ground, p, m) for p, m in system.vectors()), key=str)
    masks = [(c.plus, c.minus) for c in covs]
    mask_set = {(c.plus, c.minus) for c in covs}
    n = len(system.ground)
    full = (1 << n) - 1

    ax1 = AxiomCheck((0, 0) in mask_set, None if (0, 0) in mask_set else "zero vector missing")

    ax2 = AxiomCheck(True)
    for c in covs:
        if (c.minus, c.plus) not in mask_set:
            ax2 = AxiomCheck(False, f"opposite of {c} missing")
            break

    ax3 = AxiomCheck(True)
    done = False
    for p1, m1 in masks:
        if done:
            break
        for p2, m2 in masks:
            q = compose_masks(p1, m1, p2, m2)
            if q not in mask_set:
                a = str(SignVector(system.ground, p1, m1))
                b = str(SignVector(system.ground, p2, m2))
                c = str(SignVector(system.ground, q[0], q[1]))
                ax3 = AxiomCheck(False, f"{a} o {b} = {c} escapes the set")
                done = True
                break

    # obligations keyed by (off-mask, composition restricted to it), in the
    # order all ordered pairs raise them; per key one pass over the
    # covectors collects the zero sets of those agreeing off the separator
    ax4 = AxiomCheck(True)
    obligations: dict[tuple[int, int, int], tuple[int, int, int, int]] = {}
    for p1, m1 in masks:
        for p2, m2 in masks:
            s = separator_masks(p1, m1, p2, m2)
            if not s:
                continue
            off = full & ~s
            cp, cm = compose_masks(p1, m1, p2, m2)
            key = (off, cp & off, cm & off)
            if key not in obligations:
                obligations[key] = (p1, m1, p2, m2)
    for (off, op, om), (p1, m1, p2, m2) in obligations.items():
        zunion = 0
        for p, m in masks:
            if (p & off) == op and (m & off) == om:
                zunion |= full & ~(p | m)
        bad = (full & ~off) & ~zunion
        if bad:
            e = next(lab for k, lab in enumerate(system.ground) if bad >> k & 1)
            a = str(SignVector(system.ground, p1, m1))
            b = str(SignVector(system.ground, p2, m2))
            ax4 = AxiomCheck(False, f"no eliminating covector for pair ({a}, {b}) at {e}")
            break

    return AxiomReport(ax1, ax2, ax3, ax4)


def extension_steps(result) -> tuple[CovectorSystem, ...]:
    """The system after each enlargement of the supersolvable extension
    of non-pappus (215 to 367 covectors)."""
    return tuple(step.result.extended for step in result.steps)


def composition_closure(covs: set[SignVector], ground: tuple[str, ...]) -> set[SignVector]:
    """The zero vector, the covectors and their opposites, closed under composition."""
    closed = {SignVector.zero(ground)} | covs | {c.opposite() for c in covs}
    frontier = list(closed)
    while frontier:
        new = {x.compose(y) for x in frontier for y in closed} - closed
        closed |= new
        frontier = list(new)
    return closed


def sign_vectors(ground: tuple[str, ...]):
    signs = st.lists(st.sampled_from((0, 1, -1)), min_size=len(ground), max_size=len(ground))
    return signs.map(lambda s: SignVector.from_signs(s, ground))


@st.composite
def sign_vector_sets(draw) -> CovectorSystem:
    ground = tuple(f"e{i + 1}" for i in range(draw(st.integers(1, 5))))
    covs = set(draw(st.lists(sign_vectors(ground), max_size=12)))
    if draw(st.booleans()):
        # closed sets pass the first three axioms, so elimination decides
        covs = composition_closure(covs, ground)
        covs -= set(draw(st.lists(st.sampled_from(sorted(covs, key=str)), max_size=2)))
    return CovectorSystem(ground, {(c.plus, c.minus) for c in covs})


def mutate(data, system: CovectorSystem) -> CovectorSystem:
    """The system with one covector or one opposite pair deleted, or with
    one to three random sign vectors added, or both."""
    covs = {SignVector(system.ground, p, m) for p, m in system.vectors()}
    kind = data.draw(st.sampled_from(("drop", "drop pair", "add", "drop and add")))
    if kind.startswith("drop"):
        x = data.draw(st.sampled_from(sorted(covs, key=str)))
        covs -= {x, x.opposite()} if kind == "drop pair" else {x}
    if kind.endswith("add"):
        covs |= set(data.draw(st.lists(sign_vectors(system.ground), min_size=1, max_size=3)))
    return CovectorSystem(system.ground, {(c.plus, c.minus) for c in covs})


def rank4_arrangement() -> CovectorSystem:
    """x1, x2, x3, x4, x1 + x2 and x1 + x2 + x3 + x4 on R^4: rank 4, so
    its support classes include those of the 2-faces (229 covectors)."""
    forms = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [1, 1, 1, 1]]
    return from_arrangement(RationalArrangement([f"H{i}" for i in range(1, 7)], forms))


def test_matches_reference_on_corpus_and_extension_steps(np14_extension):
    steps = list(extension_steps(np14_extension))
    for system in [corpus(name) for name in CORPUS_NAMES] + steps + [rank4_arrangement()]:
        report = system.check_axioms()
        assert report.ok
        assert report == reference_check_axioms(system)


@settings(max_examples=300, deadline=None)
@given(sign_vector_sets())
def test_matches_reference_on_random_sign_vector_sets(system):
    assert system.check_axioms() == reference_check_axioms(system)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_matches_reference_on_mutated_corpus(data):
    system = mutate(data, corpus(data.draw(st.sampled_from(CORPUS_NAMES))))
    assert system.check_axioms() == reference_check_axioms(system)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_matches_reference_on_mutated_extension_steps(np14_extension, data):
    system = mutate(data, data.draw(st.sampled_from(extension_steps(np14_extension))))
    assert system.check_axioms() == reference_check_axioms(system)


def test_matches_reference_on_a_closed_set_that_fails_elimination():
    # the four topes of two lines, closed under composition; ++ and +-
    # separate at e2 but nothing is +0
    system = CovectorSystem.from_strings(("e1", "e2"), ["00", "++", "--", "+-", "-+"])
    report = system.check_axioms()
    assert report.composition.passed and not report.elimination.passed
    assert report == reference_check_axioms(system)


def test_matches_reference_when_only_a_pair_of_two_supports_fails_elimination():
    # within each support class the zero vector eliminates; ++ and -0
    # need 0+, which is missing, and +0 o -- = +- escapes the set
    system = CovectorSystem.from_strings(("e1", "e2"), ["00", "++", "--", "+0", "-0"])
    report = system.check_axioms()
    assert not report.composition.passed and not report.elimination.passed
    assert report == reference_check_axioms(system)


def tuple_keyed_composition_escape(
    masks: tuple[tuple[int, int], ...], number: dict[tuple[int, int], int], n: int
) -> list[tuple[int, int]]:
    """Every pair (i, j) whose composition is not in the set, in row-major
    order, each row composing the restrictions of the covectors to its
    zero set as (plus, minus) pairs."""
    full = (1 << n) - 1
    restricted: dict[int, set[tuple[int, int]]] = {}
    escapes: list[tuple[int, int]] = []
    for i, (p1, m1) in enumerate(masks):
        z = full & ~(p1 | m1)
        if z not in restricted:
            restricted[z] = {(p & z, m & z) for p, m in masks}
        if not number.keys() >= {(p1 | p, m1 | m) for p, m in restricted[z]}:
            escapes += [
                (i, j) for j, (p, m) in enumerate(masks) if (p1 | p & z, m1 | m & z) not in number
            ]
    return escapes


@st.composite
def sign_vector_sets_on_up_to_six_labels(draw) -> CovectorSystem:
    ground = tuple(f"e{i + 1}" for i in range(draw(st.integers(1, 6))))
    covs = set(draw(st.lists(sign_vectors(ground), max_size=10)))
    if draw(st.booleans()):
        covs = composition_closure(covs, ground)
        covs -= set(draw(st.lists(st.sampled_from(sorted(covs, key=str)), max_size=2)))
    return CovectorSystem(ground, {(c.plus, c.minus) for c in covs})


@settings(max_examples=200, deadline=None)
@given(sign_vector_sets_on_up_to_six_labels())
def test_packed_composition_matches_the_tuple_keyed_one(system):
    args = (system.vectors(), system.numbering(), len(system.ground))
    assert _composition_escape(*args) == tuple_keyed_composition_escape(*args)
    with patch.object(matroids, "_composition_escape", tuple_keyed_composition_escape):
        oracle = system.check_axioms()
    assert system.check_axioms() == oracle
