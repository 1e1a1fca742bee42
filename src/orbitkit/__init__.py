"""Exact orbit-counting toolkit for integer sequences.

A sequence is read as per-period orbit counts (or fixed-point counts)
of a dynamical system.  The library provides the transforms between
the orbit, fixed-point and orbit-monoid views (``convert(f, View.MONOID)``
is the dynamical zeta power series of fixed-point data f),
product/union/iterate operators, Dirichlet and zeta series identities,
growth asymptotics, a brute-force simulation oracle, and a
factorization search — all in exact integer arithmetic apart from the
growth statistics, growth rates and growth envelopes, which are floats.
"""

from .asymptotics import (
    GrowthReport,
    harmonic_number,
    mertens_sum,
    pi_count,
    pnt_report,
)
from .bfile import BFile, BFileFormatError, format_bfile, parse_bfile, read_bfile
from .dirichlet import DirichletPoly, dilate, div, mul, sparse, zeta_poly, zeta_shift
from .factorization import FactorPair, FactorSearchResult, factor_search
from .identities import Identity, VerifyResult, run
from .numtheory import (
    PrimeSet,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    part,
    primes_upto,
    sigma_k,
)
from .operators import (
    iterate_fix,
    iterate_orbits,
    product_fix,
    product_orbits,
    union_orbits,
)
from .oracle import (
    count_fixed,
    cyclic_subgroup_count,
    primitive_lattice_count,
    product_formula,
    simulate_iterate,
    simulate_product,
)
from .sequences import (
    Sequence,
    View,
    ViewError,
    builtin,
    builtin_names,
    truncate,
)
from .transforms import (
    NegativeError,
    NonIntegralError,
    NotRealizableError,
    convert,
    euler,
    euler_inverse,
    fix_to_orbit,
    is_multiplicative,
    orbit_to_fix,
)

__version__ = "0.1.0"
