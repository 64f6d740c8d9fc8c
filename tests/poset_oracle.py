"""The per-pair scans that `FinitePoset` once ran, kept as oracles for the
cover pass that replaced them: the transitivity and antisymmetry scan
over every related pair, the covers found by taking off what lies below
the strict lower set, and the heights found by peeling minimal layers."""

from omkit.posets import FinitePoset, PosetError, bits


def checked_above(names, below) -> list[int]:
    """The reflexive above masks of a relation given by names and below
    masks, as `poset_builders.from_below` takes it, or a PosetError naming
    the first failure, by one scan of every related pair."""
    names = tuple(names)
    for a, b in zip(names, names[1:]):
        if not a < b:
            raise PosetError(f"names are not distinct and sorted: {a!r}, {b!r}")
    if any(not 0 <= x < len(names) for x in below):
        raise PosetError("an element has no name")
    members = sum(1 << x for x in below)
    lo = [0] * len(names)
    for y, m in below.items():
        if m & ~members:
            raise PosetError(f"an element below {names[y]!r} is unknown")
        lo[y] = m | 1 << y
    up = [0] * len(names)
    for y in bits(members):
        outside, bit = ~lo[y], 1 << y
        for x in bits(lo[y]):
            # transitivity: below sets are downward closed
            if lo[x] & outside:
                raise PosetError(f"transitivity fails at ({names[x]!r}, {names[y]!r})")
            up[x] |= bit
    for x in bits(members):
        # antisymmetry: nothing both above and below except x itself
        if lo[x] & up[x] != 1 << x:
            raise PosetError(f"antisymmetry fails at {names[x]!r}: {[names[z] for z in bits(lo[x] & up[x])]}")
    return up


def scanned_covers(poset: FinitePoset) -> frozenset[tuple[int, int]]:
    """The pairs (x, y) with x covered by y: what lies strictly below y
    and strictly below nothing else below y."""
    out = []
    for y in poset.elements:
        strict = poset.below(y) ^ 1 << y
        reached = 0
        for x in bits(strict):
            reached |= poset.below(x) ^ 1 << x
        out.extend((x, y) for x in bits(strict & ~reached))
    return frozenset(out)


def peeled_heights(poset: FinitePoset) -> dict[int, int]:
    """The length of a longest chain ending at each element, by peeling
    off the minimal elements of what is left, layer by layer."""
    h: dict[int, int] = {}
    left, level = poset.members, 0
    while left:
        layer = [x for x in bits(left) if poset.below(x) & left == 1 << x]
        h.update(dict.fromkeys(layer, level))
        for x in layer:
            left &= ~(1 << x)
        level += 1
    return h
