"""Every exception the package raises on purpose, and the size limits.

`cli.main` maps these classes to exit codes, so it imports this module and
no module that raises them: a subcommand loads only the modules it runs.
This module imports nothing.  Each class is one kind of refusal, decided
once, in the layer that owns it: an input above any stated limit is a
`LimitExceeded`, every defect of a synthetic spec an `InvalidSyntheticSpec`,
and a label set that cannot exhibit the class group is refused by the
blind consumer alone, with `InsufficientGenerators`.

The four size limits live here too, beside `LimitExceeded`, because both
sides of the package enforce them: the producer (`forms`, `fields`,
`lattice`) on what it is asked to compute, and the blind consumer
(`reconstruct`, `codec`) on what a bundle file asks of it.
"""

# Every quadratic spec factors |D| by trial division, enumerates its reduced
# forms and builds its class group from them, each in about sqrt(|D|)
# steps.  Near this limit, a cold `classgroup -D -98394911` (h = 22106)
# takes about 0.3 s, 0.16 s of it the class-group build, in CPython 3.11
# on a 2-core x86-64 machine.  The bundle of a field grows with its class number,
# so the limit stays until the bundle size has a cap of its own.  A larger
# |D| is refused before any work, including the squarefree test.
MAX_DISCRIMINANT = 10**8

# The prime sieve and the zeta coefficients allocate one slot per integer up
# to their bound (about 0.6 s for the sieve alone at this limit).  A larger
# prime, comparison or zeta bound is refused before any work
# (`abgroup.check_bound`), so no bundle carries a larger norm.  It also
# bounds the primes the package certifies (`abgroup.is_prime`).
MAX_BOUND = 10**7

# A bundle lists h factors in its empty-set entry and one factor per coset
# in every other entry, so its size grows with the class group order h:
# `invariants --synthetic` on Z/100000 writes 1.4 MB.  A synthetic group of
# larger order is refused before any quotient is computed.
MAX_SYNTHETIC_ORDER = 10**5

# A quotient of F needs N(p)**ord[p] - 1 for every p in F, an integer of
# about ord[p] * log2 N(p) bits.  Its decimal form is quadratic in that size
# (about 0.1 s at this limit in CPython 3.11), and it goes into the bundle
# file once per coset.  A set above the limit is refused before any power,
# and the bundle loader refuses a longer factor before converting it.
MAX_QUOTIENT_BITS = 2**18


class InternalContradiction(Exception):
    """Raised when a structural invariant that should always hold fails.

    Seeing this means a bug in this package, not bad input data.
    """


class LimitExceeded(Exception):
    """An input is above one of the documented limits.

    The limits are `MAX_DISCRIMINANT`, `MAX_BOUND`, `MAX_SYNTHETIC_ORDER`
    and `MAX_QUOTIENT_BITS` above, each checked before the work it bounds
    starts.
    """


class InvalidDiscriminant(ValueError):
    """Discriminant is not negative and fundamental."""


class InvalidSyntheticSpec(ValueError):
    """A synthetic field spec is malformed or inconsistent."""


class MalformedBundle(Exception):
    """The bundle's entries cannot come from consistent arithmetic data."""


class InsufficientGenerators(Exception):
    """The label set is too small to exhibit the whole class group."""


class BundleEntryMissing(Exception):
    """A required entry is absent and the bundle cannot compute it."""


class UnreadableInput(Exception):
    """An input file does not hold a JSON document."""


class UsageError(ValueError):
    """A command line that does not fit its subcommand's grammar (exit 2)."""


class VerdictFailed(Exception):
    """A round trip or comparison ran to its report, and a verdict failed (exit 1)."""
