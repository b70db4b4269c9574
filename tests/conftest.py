"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from tangentcat.polycore import Polynomial, PolyMap

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda f: f != 0)


def exponents(arity: int, max_degree: int):
    singles = st.integers(min_value=0, max_value=max_degree)
    return st.tuples(*([singles] * arity)).filter(
        lambda e: sum(e) <= max_degree
    )


def polynomials(arity: int, max_degree: int = 3, max_terms: int = 4):
    return st.dictionaries(
        exponents(arity, max_degree), coefficients, max_size=max_terms
    ).map(lambda terms: Polynomial.from_terms(arity, terms))


def polymaps(domain: int, codomain: int, max_degree: int = 2, max_terms: int = 3):
    return st.tuples(
        *([polynomials(domain, max_degree, max_terms)] * codomain)
    ).map(lambda comps: PolyMap(domain, comps))


def trivial_mixed_polymaps(domain: int, codomain: int, max_degree: int = 2, max_terms: int = 3):
    """Maps whose components mix zeros, bare variables (permuted and repeated) and general polynomials."""
    component = st.one_of(
        st.just(Polynomial.zero(domain)),
        st.integers(min_value=0, max_value=domain - 1).map(lambda i: Polynomial.variable(domain, i)),
        polynomials(domain, max_degree, max_terms),
    )
    return st.tuples(*([component] * codomain)).map(lambda comps: PolyMap(domain, comps))


def rational_points(dim: int):
    return st.tuples(
        *([st.fractions(min_value=-9, max_value=9, max_denominator=7)] * dim)
    )


def grid_points(dim: int, values=(Fraction(-1), Fraction(0), Fraction(2))):
    """A small deterministic grid of rational points."""
    return [list(p) for p in product(values, repeat=dim)]
