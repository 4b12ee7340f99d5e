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
from its submodule.  The certifiers live in `oracle`, which the runtime
never imports.
"""

from .fields import QuadraticSpec, class_group, enumerate_prime_ideals
from .reconstruct import build_bundle, reconstruct_all

__all__ = [
    "QuadraticSpec",
    "class_group",
    "enumerate_prime_ideals",
    "build_bundle",
    "reconstruct_all",
    "__version__",
]

__version__ = "0.1.0"

# The benchmark's ground truth imports these two certifiers from the top
# level, so they are forwarded from `oracle` on first access, which keeps
# `import classrecon` from loading it.  ROADMAP item 1, the next change to
# the benchmark, re-points that import to `classrecon.oracle` and deletes
# this hook.
_FROM_ORACLE = ("class_group_model", "lattice_quotient")


def __getattr__(name: str):
    if name in _FROM_ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
