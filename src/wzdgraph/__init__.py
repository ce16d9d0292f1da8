"""Weakly zero-divisor graphs of Z_n: structure, spectra, and verification.

The vertex set of WΓ(Z_n) is the nonzero zero-divisors of Z_n; x and y are
adjacent when some nonzero annihilator elements r of x and s of y multiply to
zero.  The graph decomposes as a generalized join of complete and empty pieces
over the divisor lattice of n, which yields an exact integer Laplacian
spectrum.  This package builds the graphs, evaluates the closed-form spectrum,
and cross-checks everything with independent numeric and exact-arithmetic
oracles.
"""

from .errors import ContractViolation, ConvergenceError, DomainError, OrderCapError
from .graphcore import (
    DivisorClass,
    Graph,
    Kind,
    build_bruteforce_wzd,
    build_structural_wzd,
    divisor_classes,
    export_graph,
    graphs_equal,
)
from .numtheory import PrimeFactorization, euler_phi, factorize
from .oracle import (
    ExactPolynomial,
    VerificationReport,
    char_poly_exact,
    integrality_check,
    laplacian_eigenvalues,
    laplacian_matrix,
    poly_matches_spectrum,
    symmetric_eigenvalues,
    verify_spectrum,
)
from .spectra import (
    SpectrumMultiset,
    WeightedHostGraph,
    algebraic_connectivity,
    component_spectrum,
    join_spectrum,
    spectral_radius,
    symmetric_weighted_laplacian,
    wzd_spectrum_closed_form,
)

__version__ = "0.1.0"
