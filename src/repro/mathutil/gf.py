"""Polynomials over the prime field GF(q).

Linial's algorithm (and its Excl-/Mod- variants in Section 4) encode each
color ``c`` as a polynomial ``g_c`` of degree ``d`` over ``GF(q)`` and have a
vertex pick a point ``(x, g_c(x))`` that no neighbor's polynomial passes
through.  Two distinct degree-``d`` polynomials agree on at most ``d`` points,
so with ``q >= d * Delta + 1`` a conflict-free point always exists.

Colors map to polynomials through their base-``q`` digits, which makes the
encoding injective for ``c < q^(d+1)`` and computable with O(1) words of
memory (as the paper notes at the end of Section 3).
"""

import numpy as np

__all__ = [
    "int_to_poly_coeffs",
    "eval_poly_mod",
    "batch_poly_coeffs",
    "batch_eval_point",
    "batch_eval_points",
    "GFPolynomial",
]


def int_to_poly_coeffs(value: int, degree: int, q: int) -> tuple:
    """Return the base-``q`` digits of ``value`` as ``degree + 1`` coefficients.

    The returned tuple ``(c_0, ..., c_degree)`` represents the polynomial
    ``c_0 + c_1 x + ... + c_degree x^degree`` over GF(q).  Distinct values
    below ``q^(degree+1)`` yield distinct coefficient tuples.

    >>> int_to_poly_coeffs(11, 2, 3)
    (2, 0, 1)
    """
    if value < 0:
        raise ValueError("polynomial encoding requires a non-negative value")
    if value >= q ** (degree + 1):
        raise ValueError(
            "value %d does not fit in %d base-%d digits" % (value, degree + 1, q)
        )
    coeffs = []
    remaining = value
    for _ in range(degree + 1):
        coeffs.append(remaining % q)
        remaining //= q
    return tuple(coeffs)


def eval_poly_mod(coeffs, x: int, q: int) -> int:
    """Evaluate the polynomial with the given coefficients at ``x`` mod ``q``.

    Uses Horner's rule; ``coeffs`` is low-order first, as produced by
    :func:`int_to_poly_coeffs`.

    >>> eval_poly_mod((2, 0, 1), 2, 3)  # 2 + 0*2 + 1*4 = 6 = 0 mod 3
    0
    """
    result = 0
    for coeff in reversed(coeffs):
        result = (result * x + coeff) % q
    return result


def batch_poly_coeffs(values, degree, q):
    """Base-``q`` digit matrix of an int64 color array (NumPy batch helper).

    Row ``v`` of the result is ``int_to_poly_coeffs(values[v], degree, q)``:
    shape ``(len(values), degree + 1)``, low-order digits first.  Callers
    must pre-validate ``0 <= values < q**(degree + 1)``; this is the
    vectorized encoder behind the batch Linial kernel.
    """
    values = np.asarray(values, dtype=np.int64)
    coeffs = np.empty((values.shape[0], degree + 1), dtype=np.int64)
    remaining = values.copy()
    for position in range(degree + 1):
        coeffs[:, position] = remaining % q
        remaining //= q
    return coeffs


def batch_eval_point(coeffs, x, q):
    """Evaluate every row polynomial at one point mod ``q`` (Horner, one column).

    The memory-lean sibling of :func:`batch_eval_points`: callers that scan
    evaluation points with an early exit (the batch Linial kernel) allocate
    one int64 column per point instead of a ``(rows, points)`` block, which
    at out-of-core sizes is the difference between a ~40 MB and a ~GB
    transient.  Reducing mod ``q`` after every Horner step keeps every
    intermediate below ``q**2 + q`` — exact in int64 for any plannable field.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if coeffs.shape[1] == 0:
        return np.zeros(coeffs.shape[0], dtype=np.int64)
    x = int(x) % q
    result = coeffs[:, -1] % q
    for position in range(coeffs.shape[1] - 2, -1, -1):
        result *= x
        result += coeffs[:, position]
        result %= q
    return result


def batch_eval_points(coeffs, points, q):
    """Evaluate every row polynomial at every point mod ``q`` (NumPy helper).

    ``result[v, j] == eval_poly_mod(coeffs[v], points[j], q)``, computed as
    one Vandermonde-style matmul ``coeffs @ [x^row mod q] mod q``.  Products
    are bounded by ``(degree + 1) * q**2``, well inside int64 for every field
    the Linial planner can emit.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    points = np.asarray(points, dtype=np.int64) % q
    vandermonde = np.empty((coeffs.shape[1], points.shape[0]), dtype=np.int64)
    if coeffs.shape[1]:
        vandermonde[0] = 1
    for row in range(1, coeffs.shape[1]):
        vandermonde[row] = vandermonde[row - 1] * points % q
    # Integer matmul in NumPy is a naive loop; when every dot product is
    # bounded by 2**53 the same contraction runs exactly in float64 through
    # BLAS, an order of magnitude faster.  All intermediates are integers
    # below the bound, so the rounding-free float result is exact.
    if coeffs.shape[1] * float(q - 1) ** 2 < float(2 ** 53):
        product = coeffs.astype(np.float64) @ vandermonde.astype(np.float64)
        return product.astype(np.int64) % q
    return coeffs @ vandermonde % q


class GFPolynomial:
    """A color's polynomial representative over GF(q).

    Thin immutable wrapper bundling the coefficient tuple with the field
    characteristic, used by the Linial family.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs, q: int):
        self.coeffs = tuple(c % q for c in coeffs)
        self.q = q

    @classmethod
    def from_color(cls, color: int, degree: int, q: int) -> "GFPolynomial":
        """Encode an integer color as a degree-``degree`` polynomial."""
        return cls(int_to_poly_coeffs(color, degree, q), q)

    def __call__(self, x: int) -> int:
        return eval_poly_mod(self.coeffs, x, self.q)

    @property
    def degree(self) -> int:
        """The polynomial degree (number of coefficients minus one)."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFPolynomial)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.q))

    def __repr__(self) -> str:
        return "GFPolynomial(coeffs=%r, q=%d)" % (self.coeffs, self.q)
