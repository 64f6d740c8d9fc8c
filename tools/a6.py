"""The Salvetti complex of A_6, its localization and a sampled certificate.

A_6 is the braid arrangement of the 21 forms x_i - x_j, i < j, on R^7
(47,293 covectors, 322,560 Salvetti cells).  The script caps its own
address space at 4 GiB (RLIMIT_AS), so a run that would need more fails
with MemoryError instead of crowding the host.  It builds A_6 with
`from_arrangement`, then the covector poset, the Salvetti cells and
covers, the incidence signs spread on the dual covector poset
(`_dual_signs`), the cells' chain complex, which reads those signs, and
its reduction by `homology()`, printing each stage's time and the
resident set size after it, then the Betti numbers, the torsion and the
process's peak resident set size.  Then it times `salvetti_localization`
at `COATOM`, the modular coatom of the 15 forms without x_7, and prints
the peak resident set size after it.  Last it times
`quasi_fibration_certify` at `COATOM` on `SAMPLE` sampled pairs and
prints its seconds, PASS or FAIL, the peak resident set size and the
digest of its evidence (`a5.digest`), which names the pairs drawn.  It
exits 1 unless the Betti numbers are 1 21 175 735 1624 1764 720, the
Whitney numbers of A_6, with no torsion, when the localization or the
certificate raises MemoryError, and when the certificate fails.  Run
from the repository root:

    python tools/a6.py
"""

import resource
import sys

from a5 import digest, peak_rss_mb, rss_mb, timed
from arrangement_builders import braid_arrangement
from omkit.homology import _dual_signs, chain_complex, homology, quasi_fibration_certify
from omkit.matroids import from_arrangement
from omkit.salvetti import SalvettiPoset, salvetti_localization

BETTI = (1, 21, 175, 735, 1624, 1764, 720)
COATOM = "H1,H2,H3,H4,H5,H7,H8,H9,H10,H12,H13,H14,H16,H17,H19"
SAMPLE = 4
ADDRESS_SPACE = 4 << 30


def main() -> int:
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    def stage(label: str, run):
        out = timed(label, run)
        print(f"  RSS: {rss_mb():.0f} MB", flush=True)
        return out

    system = stage("from_arrangement", lambda: from_arrangement(braid_arrangement(7)))
    stage("covector poset", system.covector_poset)
    salvetti = stage("salvetti", lambda: SalvettiPoset(system))
    stage("dual signs", lambda: _dual_signs(system))
    rec = stage("chain complex", lambda: chain_complex(salvetti))
    result = stage("homology", lambda: homology(rec))
    print(f"covectors: {len(system)}  cells: {len(salvetti)}")
    print(f"betti: {' '.join(map(str, result.betti))}")
    print(f"torsion: {'none' if result.is_torsion_free() else result.torsion}")
    print(f"peak RSS: {peak_rss_mb():.0f} MB")
    del salvetti, rec  # the localization builds its own source
    flat = system.label_mask(COATOM.split(","))
    try:
        loc = timed("salvetti_localization", lambda: salvetti_localization(system, flat))
    except MemoryError:
        print("salvetti_localization: MemoryError", flush=True)
        return 1
    print(f"target cells: {len(loc.target)}  peak RSS: {peak_rss_mb():.0f} MB")
    del loc  # the certificate builds its own localization
    try:
        cert = timed(f"certify-qf --sample {SAMPLE}", lambda: quasi_fibration_certify(system, flat, SAMPLE))
    except MemoryError:
        print(f"certify-qf --sample {SAMPLE}: MemoryError", flush=True)
        return 1
    print(f"certify-qf: {'PASS' if cert.ok else 'FAIL'}  peak RSS: {peak_rss_mb():.0f} MB")
    print(f"digest: {digest(cert)}")
    return 0 if result.betti == BETTI and result.is_torsion_free() and cert.ok else 1


if __name__ == "__main__":
    sys.exit(main())
