"""Two-sided Groebner bases in free associative algebras over the rationals."""

from .words import Alphabet, LLexOrdering
from .polynomial import NcPolynomial, format_polynomial, parse_polynomial
from .engine import (
    BasisState,
    EngineConfig,
    RunStats,
    buchberger,
    interreduce,
    verify_groebner,
)

__all__ = [
    "Alphabet",
    "LLexOrdering",
    "NcPolynomial",
    "parse_polynomial",
    "format_polynomial",
    "BasisState",
    "EngineConfig",
    "RunStats",
    "buchberger",
    "interreduce",
    "verify_groebner",
]

__version__ = "0.1.0"
