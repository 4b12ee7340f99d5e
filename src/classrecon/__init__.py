"""Class-group lattice invariants and blind arithmetic reconstruction.

A finite abelian class group indexes the basis of a free integer lattice;
prime ideals act by norm-scaled basis translations, and finite sets of
primes cut out finite-index sublattices.  The isomorphism types of the
quotients, with all arithmetic labels erased, suffice to recover the class
number, every prime-ideal norm (hence a truncated zeta function), and the
isomorphism type of the class group — this package computes the invariants,
performs the reconstruction, and cross-checks everything against naive
oracles and quadratic-field ground truth.

The top level exports the end-to-end path; everything else is imported
from its submodule.
"""

from .fields import QuadraticSpec, class_group, class_group_model, enumerate_prime_ideals
from .lattice import lattice_quotient
from .reconstruct import build_bundle, reconstruct_all

__all__ = [
    "QuadraticSpec",
    "class_group",
    "class_group_model",
    "enumerate_prime_ideals",
    "lattice_quotient",
    "build_bundle",
    "reconstruct_all",
    "__version__",
]

__version__ = "0.1.0"
