"""Exact-arithmetic strongly homotopy Leibniz algebras from dg derivations.

The package builds, over the rationals:

- finite-dimensional commutative dg algebras and free dg modules,
- module-valued dg derivations, delta-connections, Atiyah cocycles,
- the tower of higher brackets generated by a connection, together with
  mechanical checkers for every identity those towers are supposed to
  satisfy (homotopy Leibniz identities, morphism equations, homotopy
  invariance).
"""

from . import graded
from .graded import (GradedBasis, MultilinearMap, koszul_sign,
                     ordered_partitions, partition_sign, shuffles)
from .algebra import (AlgebraElement, CdgaPresentation, LieAlgebraData,
                      ce_algebra, validate_cdga)
from .modules import (DgModule, KBasis, ModuleElement, ModuleMorphism,
                      apply_module_differential, contract, dual_module,
                      end_module, hom_module, simple_tensor,
                      tensor_module, validate_dg_module)
from .cohomology import CochainComplex
from .derivations import (DerivationHomotopy, DerivationMorphism, DgDerivation,
                          extend_derivation, find_homotopy, homotopy_offset,
                          kaehler_differentials, universal_factorization,
                          validate_dg_derivation)
from .connections import (AtiyahClass, AtiyahCocycle, DeltaConnection,
                          atiyah_cocycle, flat_connection_exists)
from .kapranov import (BracketFamily, CheckFailure, CohomologyBracket,
                       MorphismFamily, bracket_nonskew_witness,
                       check_leibniz_infinity, check_linfty_morphism,
                       cohomology_leibniz_bracket, compose_morphism_families,
                       exhaustive_leibniz, exhaustive_morphism, homotopy_iso,
                       kapranov_brackets, kapranov_morphism, trivialization)
from .builders import (LiePair, LinearMapObject, Setup, lie_pair_setup,
                       linear_map_setup, splitting_homotopy)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "Scalar":  # resolved lazily, as in kapranov.graded
        return graded.Scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
