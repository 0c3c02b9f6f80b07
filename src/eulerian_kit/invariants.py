"""Exact face-count invariants: f-vectors, h-vectors, Euler characteristics.

Everything here is arbitrary-precision integer arithmetic on one count
query, K.by_size.  Polynomials are dense coefficient sequences in descending
powers; the face polynomial of a complex of dimension d-1 is K.by_size,
t^d + f_0 t^{d-1} + ... + f_{d-1}, with 1 for the empty face.  The
h-polynomial is h(t) = f(t-1), meaningful for any complex, pure or not.
"""

from __future__ import annotations

from .complexes import SimplicialComplex


def f_vector(K: SimplicialComplex) -> list[int]:
    """Counts (f_0, ..., f_{d-1}) of faces per dimension; [] when empty."""
    return list(K.by_size[1:])


def f_polynomial(K: SimplicialComplex) -> list[int]:
    """Face polynomial coefficients, descending powers, leading 1."""
    return list(K.by_size)


def _eval_descending(coeffs: list[int] | tuple[int, ...], t: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * t + c
    return acc


def f_poly_eval(K: SimplicialComplex, t: int) -> int:
    """Exact value of the face polynomial at integer t (1 for the empty
    complex, whose face polynomial is the constant 1)."""
    return _eval_descending(K.by_size, t)


def h_vector(K: SimplicialComplex) -> list[int]:
    """Coefficients (h_0, ..., h_d) of f(t-1) in descending powers of t.

    Computed by the Taylor shift of the face polynomial by -1: repeated
    synthetic division by t + 1, in subtractions only; entries may be negative.
    """
    h = list(K.by_size)
    for end in range(len(h) - 1, 0, -1):
        for i in range(1, end + 1):
            h[i] -= h[i - 1]
    return h


def h_poly_eval(K: SimplicialComplex, t: int) -> int:
    """Exact value of the h-polynomial at integer t."""
    return _eval_descending(h_vector(K), t)


def euler_characteristic(K: SimplicialComplex) -> int:
    """Unreduced Euler characteristic: alternating sum of face counts."""
    f = K.by_size
    return sum(f[1::2]) - sum(f[2::2])
