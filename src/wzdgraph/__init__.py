"""Weakly zero-divisor graphs of Z_n: structure, spectra, and verification.

The vertex set of WΓ(Z_n) is the nonzero zero-divisors of Z_n; x and y are
adjacent when some nonzero annihilator elements r of x and s of y multiply to
zero.  The graph decomposes as a generalized join of complete and empty pieces
over the divisor lattice of n, which yields an exact integer Laplacian
spectrum.  This package builds the graphs, evaluates the closed-form spectrum,
and cross-checks everything with independent numeric and exact-arithmetic
oracles.
"""

import importlib

from . import _numpy  # a missing numpy is named here, not at first use

#: each public name by the module it lives in; a module runs at the first
#: read of one of its names, so ``import wzdgraph`` runs none of them
_EXPORTS = {
    "errors": ("ContractViolation", "ConvergenceError", "DomainError", "OrderCapError"),
    "graphcore": (
        "DivisorClass",
        "Graph",
        "build_bruteforce_wzd",
        "build_structural_wzd",
        "divisor_classes",
        "export_graph",
        "graphs_equal",
        "scan_wzd_tokens",
    ),
    "numtheory": ("PrimeFactorization", "euler_phi", "factorize"),
    "oracle": (
        "ExactPolynomial",
        "VerificationReport",
        "char_poly_exact",
        "integrality_check",
        "laplacian_matrix",
        "poly_matches_spectrum",
        "symmetric_eigenvalues",
        "verify_spectrum",
    ),
    "spectra": (
        "Kind",
        "SpectrumMultiset",
        "WeightedHostGraph",
        "algebraic_connectivity",
        "component_spectrum",
        "join_spectrum",
        "spectral_radius",
        "wzd_spectrum_closed_form",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
