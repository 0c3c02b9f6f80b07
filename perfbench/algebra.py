"""Closed-form oracle for generator expressions.

Everything the benchmark verifies about a generated complex follows from the
expression tree alone, without building the complex:

- face polynomials: binomials for simplex and cross-polytope boundaries,
  products for joins (a cone is a join with a point, a suspension a join with
  two points), sums for disjoint unions, and for the barycentric subdivision
  f_{j-1}(sd K) = sum_i f_{i-1}(K) * j! * S(i, j);
- h-vectors by a Taylor shift of the face polynomial, the invariants derived
  from them, and the Dehn-Sommerville, formula and proof-trace values;
- flagness, purity and facet sizes by structural rules;
- the Eulerian verdict, from the reduced Euler characteristics of the parts:
  in a join A * B the link of a face of A alone is lk_A(a) * B, so all such
  faces fail exactly when B does not have the Euler characteristic of a
  sphere, and symmetrically for B.

The library is never imported here, so this module can check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# No request may ask for more faces than this.  The largest one issued is
# bsd^2(simplex_boundary:5): 546,482 faces and about 0.12 GB resident.
MAX_FACES = 600_000


@dataclass(frozen=True)
class Expr:
    """A generator expression: name, integer parameters, complex arguments."""

    name: str
    params: tuple[int, ...] = ()
    args: tuple["Expr", ...] = ()

    def text(self) -> str:
        """The expression in the CLI grammar, in its canonical spelling."""
        out = self.name + "".join(f":{p}" for p in self.params)
        if self.args:
            out += "(" + ", ".join(a.text() for a in self.args) + ")"
        return out


def sb(n):
    return Expr("simplex_boundary", (n,))


def cp(n):
    return Expr("cross_polytope_boundary", (n,))


def polygon(n):
    return Expr("polygon", (n,))


TORUS = Expr("torus7")
RP2 = Expr("projective_plane6")
# The apex of a cone; only ever an operand inside this module, never printed.
POINT = Expr("<point>")


def join(a, b):
    return Expr("join", (), (a, b))


def cone(a):
    return Expr("cone", (), (a,))


def suspension(a):
    return Expr("suspension", (), (a,))


def disjoint_union(a, b):
    return Expr("disjoint_union", (), (a, b))


def bsd(a, k=1):
    for _ in range(k):
        a = Expr("barycentric_subdivision", (), (a,))
    return a


# -- face polynomials ------------------------------------------------------------
# A face polynomial is the list [1, f_0, f_1, ..., f_dim]: entry i counts the
# faces with i vertices, entry 0 being the empty face.

_POINT = (1, 1)
_TWO_POINTS = (1, 2)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def fpoly(e: Expr) -> tuple[int, ...]:
    name = e.name
    if name == "simplex_boundary":
        (n,) = e.params
        return tuple(comb(n + 1, i) for i in range(n + 1))
    if name == "cross_polytope_boundary":
        (n,) = e.params
        return tuple(2**i * comb(n, i) for i in range(n + 1))
    if name == "polygon":
        (n,) = e.params
        return (1, n, n)
    if name == "torus7":
        return (1, 7, 21, 14)
    if name == POINT.name:
        return _POINT
    if name == "projective_plane6":
        return (1, 6, 15, 10)
    parts = [fpoly(a) for a in e.args]
    if name == "join":
        return _times(*parts)
    if name == "cone":
        return _times(parts[0], _POINT)
    if name == "suspension":
        return _times(parts[0], _TWO_POINTS)
    if name == "disjoint_union":
        a, b = parts
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return (1,) + tuple(x + y for x, y in zip(a[1:], b[1:]))
    if name == "barycentric_subdivision":
        (a,) = parts
        top = len(a) - 1
        return (1,) + tuple(
            sum(a[i] * factorial(j) * _stirling2(i, j) for i in range(j, top + 1))
            for j in range(1, top + 1)
        )
    raise ValueError(f"unknown generator {name!r}")


def f_vector(e: Expr) -> list[int]:
    return list(fpoly(e)[1:])


def dim(e: Expr) -> int:
    return len(fpoly(e)) - 2


def num_faces(e: Expr) -> int:
    return sum(fpoly(e)[1:])


def guard(e: Expr) -> Expr:
    """Refuse an expression whose complex would exceed MAX_FACES."""
    n = num_faces(e)
    if n > MAX_FACES:
        raise ValueError(f"{e.text()} has {n} faces, over the cap of {MAX_FACES}")
    return e


def chi(e: Expr) -> int:
    return sum((-1) ** i * n for i, n in enumerate(f_vector(e)))


def sphere_chi(n: int) -> int:
    return 0 if n == -1 else 1 + (-1) ** n


def h_vector(e: Expr) -> list[int]:
    """Coefficients of f(t - 1), descending, by Horner composition."""
    out = [0]
    for c in fpoly(e):
        # out := out * (t - 1) + c, coefficients in descending powers
        out = [x - y for x, y in zip(out + [0], [0] + out)]
        out[-1] += c
    return out[1:]


def _eval(coeffs, t):
    acc = 0
    for c in coeffs:
        acc = acc * t + c
    return acc


# -- structure ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def facet_sizes(e: Expr) -> tuple[tuple[int, int], ...]:
    """Sorted (facet size, count) pairs."""
    name = e.name
    if not e.args:
        f = fpoly(e)
        return ((len(f) - 1, f[-1]),)
    parts = [dict(facet_sizes(a)) for a in e.args]
    if name in ("join", "cone", "suspension"):
        a = parts[0]
        b = parts[1] if name == "join" else {1: 1 if name == "cone" else 2}
        out = {}
        for sa, ca in a.items():
            for sb_, cb in b.items():
                out[sa + sb_] = out.get(sa + sb_, 0) + ca * cb
    elif name == "disjoint_union":
        out = dict(parts[0])
        for s, c in parts[1].items():
            out[s] = out.get(s, 0) + c
    else:  # barycentric_subdivision: one facet per ordering of each facet
        out = {s: c * factorial(s) for s, c in parts[0].items()}
    return tuple(sorted(out.items()))


def num_facets(e: Expr) -> int:
    return sum(c for _, c in facet_sizes(e))


def is_pure(e: Expr) -> bool:
    return len(facet_sizes(e)) == 1


def is_flag(e: Expr) -> bool:
    """Every clique of the 1-skeleton is a face."""
    name = e.name
    if name == "simplex_boundary":
        return e.params[0] == 1
    if name == "polygon":
        return e.params[0] > 3
    if name in ("torus7", "projective_plane6"):
        return False  # complete 1-skeleton, 35 and 20 triangles missing
    if name == "barycentric_subdivision":
        return True
    if name == "cross_polytope_boundary":
        return True
    return all(is_flag(a) for a in e.args)


def _sphere_like(e: Expr) -> bool:
    """Pure, and the link of every nonempty face has the Euler characteristic
    of a sphere of the complementary dimension."""
    name = e.name
    if not e.args:
        return True  # spheres and closed surfaces
    if name == "barycentric_subdivision":
        return _sphere_like(e.args[0])
    a, b = _join_parts(e) if name != "disjoint_union" else e.args
    if not (_sphere_like(a) and _sphere_like(b)):
        return False
    if name == "disjoint_union":
        return dim(a) == dim(b)
    return _chi_sphere(a) and _chi_sphere(b)


def _chi_sphere(e) -> bool:
    return chi(e) == sphere_chi(dim(e))


def _join_parts(e):
    if e.name == "join":
        return e.args
    if e.name == "cone":
        return e.args[0], POINT
    return e.args[0], sb(1)  # suspension: two points


@dataclass(frozen=True)
class Audit:
    """What `check --all` must report under is_eulerian.

    When holds is false, reason is "bad_link" or "not_pure"; witness_size is
    the number of vertices of the witness face; bad_link_chis holds every
    link chi the first failing face can have (one value when vertex ids
    follow the expression, more when a file may order vertices otherwise);
    failures is the length of the --exhaustive failure list.
    """

    holds: bool
    reason: str = ""
    witness_size: int = 0
    bad_link_chis: tuple[int, ...] = ()
    expected: int = 0
    facet_dim: int = 0
    failures: int = 0


def eulerian_audit(e: Expr) -> Audit:
    if _sphere_like(e):
        return Audit(True)
    name = e.name
    if name == "disjoint_union":
        a, b = e.args
        if not (_sphere_like(a) and _sphere_like(b)):
            raise ValueError(f"no closed form for the audit of {e.text()}")
        lo, hi = sorted((a, b), key=dim)
        parity_bad = (dim(hi) - dim(lo)) % 2 == 1
        return Audit(
            False,
            reason="not_pure",
            witness_size=dim(lo) + 1,
            facet_dim=dim(lo),
            failures=num_facets(lo) + (num_faces(lo) if parity_bad else 0),
        )
    if name not in ("join", "cone", "suspension"):
        raise ValueError(f"no closed form for the audit of {e.text()}")
    a, b = _join_parts(e)
    if not (_sphere_like(a) and _sphere_like(b)):
        raise ValueError(f"no closed form for the audit of {e.text()}")
    # a vertex of A has link lk_A(v) * B, reduced chi (-1)^dim(A) * rchi(B)
    rchi_a, rchi_b = chi(a) - 1, chi(b) - 1
    chis = []
    failures = 0
    if not _chi_sphere(b):
        chis.append(1 + (-1) ** dim(a) * rchi_b)
        failures += num_faces(a)
    if not _chi_sphere(a):
        chis.append(1 + (-1) ** dim(b) * rchi_a)
        failures += num_faces(b)
    return Audit(
        False,
        reason="bad_link",
        witness_size=1,
        bad_link_chis=tuple(chis),
        expected=sphere_chi(dim(a) + dim(b)),
        failures=failures,
    )


# -- expected report sections --------------------------------------------------------


def ds_rows(e: Expr) -> list[tuple[int, int, int]]:
    h = h_vector(e)
    d = dim(e) + 1
    deviation = chi(e) - sphere_chi(d - 1)
    return [(i, h[d - i] - h[i], (-1) ** i * comb(d, i) * deviation) for i in range(d + 1)]


def main_formula(e: Expr) -> dict:
    fv, k = f_vector(e), dim(e)
    rhs = sum(Fraction(-1, 2) ** i * n for i, n in enumerate(fv))
    scaled_lhs = 2**k * chi(e)
    scaled_rhs = sum((-1) ** i * 2 ** (k - i) * n for i, n in enumerate(fv))
    return {
        "lhs": chi(e),
        "rhs": rhs,
        "scaled_lhs": scaled_lhs,
        "scaled_rhs": scaled_rhs,
        "holds": scaled_lhs == scaled_rhs,
        "parity_warning": k % 2 == 1,
    }


def proof_trace(e: Expr) -> dict:
    k = dim(e)
    m, d = k // 2, k + 1
    h = h_vector(e)
    a = _eval(h, -1)
    b = 2 ** (2 * m) * (chi(e) - 2)
    c = _eval(fpoly(e), -2)
    p = sum((-1) ** i * (h[d - i] - h[i]) for i in range(m + 1))
    return {"A": a, "B": b, "C": c, "P": p, "holds": a == b == c == p}
