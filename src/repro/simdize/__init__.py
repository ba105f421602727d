"""End-to-end simdization: driver, options, verification."""

from repro.simdize.driver import SimdizeResult, simdize
from repro.simdize.options import REUSE_MODES, SimdOptions, scheme_name
from repro.simdize.verify import (
    EquivalenceReport,
    fill_random,
    make_space,
    verify_equivalence,
)

__all__ = [
    "SimdizeResult", "simdize", "REUSE_MODES", "SimdOptions", "scheme_name",
    "EquivalenceReport", "fill_random", "make_space", "verify_equivalence",
]
