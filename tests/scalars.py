"""The package's scalar rule, as one predicate: a rational is an int when
it is integral, and a Fraction with denominator > 1 otherwise."""

from fractions import Fraction


def is_canonical_scalar(x) -> bool:
    """True for an int or a non-integral Fraction; false for a float, a
    bool, an integral Fraction and anything else."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)
