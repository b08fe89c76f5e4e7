"""Convolution-polynomial equations over discrete Dirichlet algebras.

The library enumerates a discrete additive semigroup X inside
[0,inf)^k, carries exact or double arithmetic on the truncated
convolution algebra of functions X -> C, solves polynomial convolution
equations anchored at simple roots of their initial-value polynomial,
certifies geometric decay rates for the solutions, and evaluates the
associated generalized Dirichlet series with rigorous tail bounds.
"""

from .algebra import (Monomial, TruncatedFunction, constant, convolve,
                      from_pairs, indicator, invert, one, unit)
from .certificate import (NormCertificate, ValidationReport, build_PQ,
                          certify, maximize_R, validate)
from .errors import (AllCoefficientsZero, BackendMismatch,
                     CertificateViolated, DegenerateConstant, DirconvError,
                     EmptyTruncation, MathematicalRefusal, NoPositiveR,
                     NoSimpleRoots, NotASimpleRoot, NotEnumerated,
                     NotInvertible, OnlyZero, OutOfHalfPlane,
                     PreconditionFailed, SpecError, WindowTooLarge,
                     ZeroPolynomial)
from .scalars import QC
from .semigroup import (Element, Enumeration, Lattice, OrdinaryDirichlet,
                        RationalGenerators, enumerate_semigroup)
from .series import (SeriesValue, VerifyReport, evaluate, tail_bound,
                     verify_scalar_equation)
from .solver import (ConvPolynomial, Obstruction, PolySystem, RootReport,
                     SolveAllResult, initial_polynomial, residual, solve,
                     solve_all, solve_system, system_residual)

__version__ = "0.1.0"

__all__ = [
    "QC",
    "Element", "Enumeration", "Lattice", "OrdinaryDirichlet",
    "RationalGenerators", "enumerate_semigroup",
    "TruncatedFunction", "constant", "convolve", "from_pairs", "indicator",
    "invert", "one", "unit",
    "ConvPolynomial", "Monomial", "Obstruction", "PolySystem", "RootReport",
    "SolveAllResult", "initial_polynomial", "residual", "solve", "solve_all",
    "solve_system", "system_residual",
    "NormCertificate", "ValidationReport", "build_PQ", "certify",
    "maximize_R", "validate",
    "SeriesValue", "VerifyReport", "evaluate", "tail_bound",
    "verify_scalar_equation",
    "DirconvError", "MathematicalRefusal", "EmptyTruncation", "OnlyZero",
    "NotEnumerated", "WindowTooLarge", "BackendMismatch", "NotInvertible",
    "DegenerateConstant", "ZeroPolynomial", "NotASimpleRoot", "NoSimpleRoots",
    "PreconditionFailed", "AllCoefficientsZero", "NoPositiveR",
    "CertificateViolated", "OutOfHalfPlane", "SpecError",
]
