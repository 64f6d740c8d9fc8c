"""Time the braid arrangement A_5 end to end, outside the test suite.

A_5 is the 15 forms x_i - x_j, i < j, on R^6 (4,683 covectors, 23,040
Salvetti cells).  The script builds it with `from_arrangement`, times
`check_axioms` (exiting 1 when an axiom fails), prints the lattice of
flats with its modular chain from `is_supersolvable()` and the seconds
the two took together, then times the covector poset, the Salvetti cells
and covers, the incidence signs spread on the dual covector poset
(`_dual_signs`), the cells' chain complex, which reads those signs, then
its reduction by `homology()` (checking the Betti numbers 1 15 85 225
274 120 and no torsion), and the exhaustive certificate at the modular
coatom H1,H2,H3,H4,H6,H7,H8,H10,H11,H13, every one of its 101,760 pairs,
with its seconds and evidence counts: the pairs, the minimal fibers
ranked as graphs, the other fibers of the pairs, linked to those graphs,
and the ambients, and the SHA-256 digest of its evidence (`digest`), one
line to compare between two versions; it exits 1 when the certificate
fails.  Then it prints the process's peak resident set size, times the
same certificate again in the same process, whose local matchings are
kept per face on the localized system, with its digest, and last builds
the Salvetti cells and covers once more under `tracemalloc` and prints
that build's peak: the memory the stage allocates, which unlike the
resident set size does not move with what the heap kept from earlier
stages, and which comes last so that its build moves no figure before
it.  It exits 1 when the second certificate fails or its digest differs
from the first's.  Run from the repository root:

    python tools/a5.py
"""

import hashlib
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from arrangement_builders import braid_arrangement
from omkit.homology import _dual_signs, chain_complex, homology, quasi_fibration_certify
from omkit.lattices import build_lattice
from omkit.matroids import flat_id, from_arrangement
from omkit.salvetti import SalvettiPoset

BETTI = (1, 15, 85, 225, 274, 120)
COATOM = "H1,H2,H3,H4,H6,H7,H8,H10,H11,H13"


def timed(label: str, run):
    start = time.perf_counter()
    out = run()
    print(f"{label}: {time.perf_counter() - start:.3f} s", flush=True)
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_peak_mb(run) -> float:
    """The peak of the memory that `run()` allocates, by `tracemalloc`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def digest(cert) -> str:
    """The SHA-256 of a certificate's evidence, as hex: each pair's two
    cells, its ambient, its minimal cell and its three `MorseCertificate`s,
    in pair order, then the graph ranks of the minimal fibers."""
    pairs = [(p.lower, p.upper, p.ambient, p.minimal, p.lower_matching, p.upper_matching, p.link) for p in cert.pairs]
    return hashlib.sha256(repr((pairs, cert.graph_ranks)).encode()).hexdigest()


def main() -> int:
    system = timed("from_arrangement", lambda: from_arrangement(braid_arrangement(6)))
    axioms = timed("axioms", system.check_axioms)
    if not axioms.ok:
        raise SystemExit(f"A_5 fails the covector axioms: {axioms}")
    start = time.perf_counter()
    lattice = build_lattice(system)
    chain = lattice.is_supersolvable()
    seconds = time.perf_counter() - start
    print(
        f"lattice: {len(lattice.flats)} flats  chain: "
        f"{' < '.join(flat_id(f, system.ground) for f in chain)}  {seconds:.3f} s",
        flush=True,
    )
    timed("covector poset", system.covector_poset)
    salvetti = timed("salvetti", lambda: SalvettiPoset(system))
    timed("dual signs", lambda: _dual_signs(system))
    rec = timed("chain complex", lambda: chain_complex(salvetti))
    result = timed("homology", lambda: homology(rec))
    del rec  # the certificate's peak is read without the chain complex
    print(f"cells: {len(salvetti)}  betti: {' '.join(map(str, result.betti))}")
    if result.betti != BETTI or not result.is_torsion_free():
        raise SystemExit(f"expected Betti numbers {BETTI} and no torsion, got {result}")
    flat = system.label_mask(COATOM.split(","))
    cert = timed("certify-qf --exhaustive", lambda: quasi_fibration_certify(system, flat))
    linked = {c for p in cert.pairs for c in (p.lower, p.upper)} - {m for m, _rank in cert.graph_ranks}
    ambients = {p.ambient for p in cert.pairs}
    print(
        f"pairs: {len(cert.pairs)}  minimal graphs: {len(cert.graph_ranks)}  "
        f"linked fibers: {len(linked)}  ambients: {len(ambients)}  ok: {cert.ok}"
    )
    first = digest(cert)
    print(f"digest: {first}")
    print(f"peak RSS: {peak_rss_mb():.0f} MB")
    if not cert.ok:
        return 1
    again = timed("certify-qf again", lambda: quasi_fibration_certify(system, flat))
    second = digest(again)
    print(f"digest again: {second}")
    print(f"salvetti tracemalloc peak: {traced_peak_mb(lambda: SalvettiPoset(system)):.0f} MB")
    return 0 if again.ok and second == first else 1


if __name__ == "__main__":
    sys.exit(main())
