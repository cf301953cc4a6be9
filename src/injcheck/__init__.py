"""Exact injectivity analysis for classes of maps via classes of matrices.

The central question: given a matrix class (positively scaled exponent
matrices, sign patterns, sign sets, entrywise intervals, or products of
those, optionally behind a fixed left matrix) and a linear subspace S, does
some member kill a nonzero vector of S? Map families whose difference
quotients sweep exactly such a class - generalized monomial maps, componentwise
monotonic maps, maps with Jacobians in an interval box - are injective on
every coset of S precisely when the answer is no.

Everything outside the randomized falsifier and the final lift to colliding
points runs in exact rational arithmetic, and both answers come with
certificates that verify_certificate rechecks.

The names below are the public API. The layers under it - exact linear
algebra (linalg), the phase-1 simplex (feasibility), sign vectors (signs), the
two routes (detroute, signroute) and the falsifier (oracle) - are importable
as submodules.
"""

from .classes import (
    Interval,
    IntervalBox,
    IntervalEntry,
    MatrixClass,
    Member,
    Product,
    Scaled,
    SignPattern,
    SignSetMatrix,
    SignSets,
    UnsupportedClassError,
    format_interval_box_text,
    format_signsets_text,
    parse_interval_box_text,
    parse_signsets_text,
)
from .crn import (
    KineticsMode,
    Network,
    NetworkTextError,
    Reaction,
    build_problem,
    parse_network,
    serialize_network,
)
from .injectivity import (
    Problem,
    PositivityCertificate,
    Route,
    SingularWitness,
    Status,
    Verdict,
    build_witness,
    check_injectivity,
    lift_monomial_witness,
    verify_certificate,
)
from .limits import CapExceeded, Caps, DEFAULT_CAPS
from .linalg import (
    MatrixTextError,
    RationalMatrix,
    Subspace,
    format_matrix_text,
    parse_matrix_text,
)
from .oracle import OracleConfig, falsify

__version__ = "0.1.0"

__all__ = [
    # problems, decisions and certificates
    "Problem", "Route", "Status", "Verdict", "SingularWitness", "PositivityCertificate",
    "check_injectivity", "verify_certificate", "build_witness", "lift_monomial_witness",
    # matrix classes and their text formats
    "MatrixClass", "Member", "Scaled", "SignPattern", "SignSets", "Interval", "Product",
    "SignSetMatrix", "IntervalBox", "IntervalEntry", "UnsupportedClassError",
    "parse_signsets_text", "format_signsets_text",
    "parse_interval_box_text", "format_interval_box_text",
    # exact matrices and subspaces
    "RationalMatrix", "Subspace", "MatrixTextError", "parse_matrix_text", "format_matrix_text",
    # work caps
    "Caps", "DEFAULT_CAPS", "CapExceeded",
    # the randomized falsifier
    "OracleConfig", "falsify",
    # reaction networks
    "Network", "Reaction", "KineticsMode", "NetworkTextError",
    "parse_network", "serialize_network", "build_problem",
]
