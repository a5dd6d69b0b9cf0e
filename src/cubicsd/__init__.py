"""Construction and classification of binary self-dual [48,24,10]
codes with an automorphism of odd prime order.

The library reproduces the classification: every such automorphism is
fixed-point-free of order 3, and there are exactly 264 inequivalent
codes, rebuilt here from the shipped permutation tables.
"""

from .construct import (
    AutType,
    DecomposedEngine,
    STANDARD_3_16_0,
    build_code,
    build_table_code,
    verify_selfdual_conditions,
)
from .equiv import (
    are_equivalent,
    automorphism_group,
    find_isomorphism,
    partition_classes,
)
from .feasibility import EliminationReport, feasible_types, full_pipeline, g
from .gf2 import BinaryCode, BinaryMatrix
from .perm import Permutation, PermGroup, parse_cycles
from .search import classify_hits, run_search

__version__ = "0.1.0"

__all__ = [
    "AutType",
    "BinaryCode",
    "BinaryMatrix",
    "DecomposedEngine",
    "EliminationReport",
    "Permutation",
    "PermGroup",
    "STANDARD_3_16_0",
    "are_equivalent",
    "automorphism_group",
    "build_code",
    "build_table_code",
    "classify_hits",
    "feasible_types",
    "find_isomorphism",
    "full_pipeline",
    "g",
    "parse_cycles",
    "partition_classes",
    "run_search",
    "verify_selfdual_conditions",
]
