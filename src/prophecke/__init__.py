"""Exact pro-p Iwahori-Hecke algebras of split reductive p-adic groups.

Construction chain:

    RootDatum  ->  WeylGroup  ->  ProPWeyl  ->  HeckeAlgebra  ->  TopModule
    (rootdata)     (weyl)         (propweyl)    (hecke)           (topmod)

over an exact coefficient field GF(p^m) (gf) containing the residue
field F_q.  The cosets module carries the symbolic double-coset
calculus, verify the property-test suites, and cli the command-line
driver.
"""

__version__ = "0.1.0"

from .errors import (
    DataIntegrityError,
    DecompositionUnavailableError,
    GroupMismatchError,
    TheoremViolationError,
    UnsupportedFieldError,
)
from .gf import FieldElt, FieldSpec
from .hecke import HeckeAlgebra, HeckeElt
from .propweyl import ProPElt, ProPWeyl, basis_elements
from .rootdata import AffineRoot, RootDatum, preset
from .topmod import TopElt, TopModule
from .verify import Context, SUITES, build_context, make_context, run_suite
from .weyl import ExtAffWeylElt, OmegaGroup, WeylGroup, lemma_even, omega_group

__all__ = [
    "AffineRoot",
    "Context",
    "DataIntegrityError",
    "DecompositionUnavailableError",
    "ExtAffWeylElt",
    "FieldElt",
    "FieldSpec",
    "GroupMismatchError",
    "HeckeAlgebra",
    "HeckeElt",
    "OmegaGroup",
    "ProPElt",
    "ProPWeyl",
    "RootDatum",
    "SUITES",
    "TheoremViolationError",
    "TopElt",
    "TopModule",
    "UnsupportedFieldError",
    "WeylGroup",
    "basis_elements",
    "build_context",
    "lemma_even",
    "make_context",
    "omega_group",
    "preset",
    "run_suite",
]
