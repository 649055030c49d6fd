"""Exact-arithmetic reflection K matrices and Onsager-algebra spin chains."""

from .field import (
    GenericityError,
    Params,
    PoleError,
    Scalar,
    make_params,
    parse_scalar,
    sample_params,
)

__version__ = "0.1.0"

__all__ = [
    "GenericityError",
    "Params",
    "PoleError",
    "Scalar",
    "make_params",
    "parse_scalar",
    "sample_params",
    "__version__",
]
