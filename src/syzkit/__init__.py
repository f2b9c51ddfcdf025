"""Exact syzygy-kernel toolkit: Groebner machinery over Q (F_p only
certifies ranks and leads, and samples), minimal free resolutions,
Chern/character bookkeeping, and stable kernel-bundle chains on projective
spaces."""

from .chow import ChernVector, ChowClass, KClass, bezout_h2
from .curves import CurveBundleInvariants, butler_kernel_invariants
from .errors import SyzkitError
from .fields import GF, QQ, DEFAULT_PRIME
from .groebner import FreeModule, Ideal, Submodule, Vec, syzygies
from .linalg import Matrix, random_matrix
from .polyring import GradedPoly, PolyRing
from .resolver import (KernelStage, ResolutionChain, build_chain,
                       build_surface_kernel, check_generation,
                       genericity_experiment, hoppe_stage,
                       uniformity_experiment)
from .schemes import (Polarization, SubschemeData, builtin_subscheme,
                      parse_subscheme_file)

__all__ = [
    "SyzkitError", "GF", "QQ", "DEFAULT_PRIME",
    "Matrix", "random_matrix", "GradedPoly", "PolyRing",
    "FreeModule", "Ideal", "Submodule", "Vec", "syzygies",
    "ChernVector", "ChowClass", "KClass", "bezout_h2",
    "CurveBundleInvariants", "butler_kernel_invariants",
    "Polarization", "SubschemeData", "builtin_subscheme",
    "parse_subscheme_file",
    "KernelStage", "ResolutionChain", "build_chain", "build_surface_kernel",
    "check_generation", "genericity_experiment", "hoppe_stage",
    "uniformity_experiment",
]

__version__ = "0.1.0"
