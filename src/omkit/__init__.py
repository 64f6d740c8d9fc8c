"""Exact combinatorics of oriented matroids and their Salvetti complexes."""

from .signs import GroundSetMismatchError
from .posets import FinitePoset, SimplicialComplexRecord
from .matroids import (
    AxiomReport,
    CovectorSystem,
    RationalArrangement,
    from_arrangement,
)
from .lattices import GeometricLattice, build_lattice
from .corpus import CORPUS_NAMES, corpus
from .salvetti import SalvettiPoset, salvetti_localization, stratify_fiber
from .morse import (
    Matching,
    matching_convex_critical,
    matching_from_shelling,
    matching_salvetti_fiber,
)
from .homology import (
    HomologyResult,
    chain_complex,
    homology,
    quasi_fibration_certify,
    semidirect_rank_sequence,
)

__all__ = [
    "GroundSetMismatchError",
    "FinitePoset",
    "SimplicialComplexRecord",
    "AxiomReport",
    "CovectorSystem",
    "RationalArrangement",
    "from_arrangement",
    "GeometricLattice",
    "build_lattice",
    "CORPUS_NAMES",
    "corpus",
    "SalvettiPoset",
    "salvetti_localization",
    "stratify_fiber",
    "Matching",
    "matching_convex_critical",
    "matching_from_shelling",
    "matching_salvetti_fiber",
    "HomologyResult",
    "chain_complex",
    "homology",
    "quasi_fibration_certify",
    "semidirect_rank_sequence",
]
