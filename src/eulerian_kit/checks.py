"""Eulerian-manifold audits in exact arithmetic.

A complex is an Eulerian manifold when it is pure, nonempty, and the link of
every nonempty face has the Euler characteristic of a sphere of the
complementary dimension.  For such complexes the h-vector satisfies the
generalized Dehn-Sommerville relations

    h_{d-i} - h_i = (-1)^i C(d,i) (chi - chi(S^{d-1})),   0 <= i <= d,

and in even dimension 2m these force the identity

    chi = sum_{i=0}^{2m} (-1/2)^i f_i,

which `check_main_formula` verifies through the equivalent scaled integer
equality 2^{2m} chi = sum_i (-1)^i 2^{2m-i} f_i (no rational reduction in
the pass/fail path).  `proof_trace` reports the intermediate quantities that
tie the two together.

Link checks need no link subcomplexes: the link of a face s has
chi(lk s) = sum over faces t properly containing s of (-1)^(|t|-|s|-1), so
`link_chis` gets every link chi of one face size by counting the k-subsets
of every larger face, one count per parity of |t| - k.

Half of the sizes need no counting.  Double counting the pairs of nonempty
faces sigma <= tau of lk s gives, in any complex,

    chi(lk s) = sum over t properly containing s of (1 - chi(lk t)).

If every such t has chi(lk t) = sphere_chi(d - |t|) = 1 + (-1)^(d-|t|),
each term is -(-1)^(d-|t|), so chi(lk s) = (-1)^(d-|s|) chi(lk s): when
d - |s| is odd, chi(lk s) = 0 = sphere_chi(d - |s|) follows.  So the level
of faces with k vertices is *implied* when d - k is odd: it holds whenever
every level above it holds.  `is_eulerian` counts the levels with d - k
even and counts an implied level only below a counted level that failed.
A passing audit costs, over the counted sizes k, one addition per
k-subset of every face with more than k vertices; the exhaustive worst
case is the sum over faces t of 2^|t| additions.  The reported witness is
always the first failure in (dimension ascending, lexicographic) order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, combinations, repeat

from .complexes import Face, SimplicialComplex
from .errors import InputError, PreconditionError
from .invariants import (
    euler_characteristic,
    f_poly_eval,
    f_vector,
    h_vector,
)
from .reports import CheckReport, DSResidualRow


def sphere_chi(n: int) -> int:
    """Euler characteristic of the n-sphere, with chi(S^{-1}) = chi(empty) = 0."""
    if n < -1:
        raise InputError(f"sphere dimension must be >= -1, got {n}")
    return 0 if n == -1 else 1 + (-1) ** n


def link_chis(K: SimplicialComplex, k: int) -> dict[Face, int]:
    """Euler characteristic of the link of every face with k vertices.

    Each face t with more than k vertices adds (-1)^(|t|-k-1) to every
    k-subset of t; a face with no larger face gets 0, the chi of its empty
    link.  The k-subsets are counted inside `Counter`, one count for the
    faces that add +1 and one for those that add -1, and each chi is the
    difference.  This costs one addition per k-subset of every face with
    more than k vertices, and holds the two counts of this k only.
    """
    plus, minus = Counter(), Counter()
    for j in range(k, K.dim + 1):
        subsets = map(combinations, K.faces_of_dim(j), repeat(k))
        (minus if (j - k) % 2 else plus).update(chain.from_iterable(subsets))
    return {s: plus[s] - minus[s] for s in K.faces_of_dim(k - 1)}


def _bad_links(K: SimplicialComplex, k: int) -> list[dict]:
    """The faces with k vertices whose link chi is not sphere_chi(dim - k),
    as failure rows in lexicographic order."""
    want = sphere_chi(K.dim - k)
    bad = sorted((s, got) for s, got in link_chis(K, k).items() if got != want)
    return [{"face": s, "kind": "bad_link", "chi_link": got, "expected": want} for s, got in bad]


def is_eulerian(K: SimplicialComplex, exhaustive: bool = False) -> CheckReport:
    """Audit the Eulerian-manifold condition.

    Stops at the first failing face unless exhaustive is set, in which case
    every purity violation and failing link is collected.  The witness is a
    facet of deficient dimension (purity failure) or the first face in
    (dimension, lexicographic) order whose link has the wrong Euler
    characteristic.

    Link chis come from `link_chis`, one face size k at a time.  Only the
    sizes with d - k even are counted, smallest first: by the lemma in the
    module docstring, a size with d - k odd (an implied size) can fail only
    below a counted size that failed.  So after a counted size fails, the
    implied sizes below it are counted too, smallest first: all of them
    when exhaustive, else up to the first that fails, and a non-exhaustive
    audit counts no size above the first failing counted one.  A passing
    audit counts about half the sizes.  Only the failing faces of a size
    are sorted, and the failures are listed in size order.
    """
    if K.is_empty():
        return CheckReport(
            holds=False,
            witness="empty complex",
            values={"reason": "empty complex"},
        )

    d = K.dim
    failures = [
        {"face": facet, "kind": "not_pure", "facet_dim": len(facet) - 1, "complex_dim": d}
        for facet in K.facets
        if len(facet) - 1 != d
    ]
    if exhaustive or not failures:
        bad = {}
        for k in range(2 - d % 2, d + 1, 2):
            bad[k] = _bad_links(K, k)
            if bad[k] and not exhaustive:
                break
        top = max((k for k, rows in bad.items() if rows), default=0)
        for k in range(1 + top % 2, top, 2):
            bad[k] = _bad_links(K, k)
            if bad[k] and not exhaustive:
                break
        failures += chain.from_iterable(bad[k] for k in sorted(bad))

    if not failures:
        return CheckReport(holds=True, values={"faces_checked": K.num_faces()})
    first = failures[0]
    values = {k: v for k, v in first.items() if k not in ("face", "kind")}
    return CheckReport(
        holds=False,
        witness=first["face"],
        values={"reason": first["kind"], **values},
        failures=failures if exhaustive else [],
    )


def ds_residuals(K: SimplicialComplex) -> tuple[list[DSResidualRow], CheckReport]:
    """Dehn-Sommerville residual rows for i = 0..d, plus a summary report.

    Raises PreconditionError on the empty complex; the rows are all
    guaranteed to hold only when the complex is Eulerian.
    """
    if K.is_empty():
        raise PreconditionError("empty complex")
    h = h_vector(K)
    d = K.dim + 1
    chi = euler_characteristic(K)
    deviation = chi - sphere_chi(d - 1)
    # C(d, i) from C(d, i - 1)
    binomials = accumulate(range(d), lambda c, i: c * (d - i) // (i + 1), initial=1)
    rows = [
        DSResidualRow(i=i, lhs=h[d - i] - h[i], rhs=(-1) ** i * c * deviation)
        for i, c in enumerate(binomials)
    ]
    failing = [r.i for r in rows if not r.holds]
    report = CheckReport(
        holds=not failing,
        witness=failing[0] if failing else None,
        values={"chi": chi, "sphere_chi": sphere_chi(d - 1), "deviation": deviation},
        failures=failing,
    )
    return rows, report


def check_main_formula(K: SimplicialComplex) -> CheckReport:
    """Compare chi against the alternating half-power sum of face counts.

    The authoritative test is the scaled integer identity
    2^dim * chi = sum_i (-1)^i 2^{dim-i} f_i; the reduced rational sum is
    reported alongside for readability.  The identity is only guaranteed for
    even-dimensional Eulerian complexes; odd-dimensional input is reported
    with a parity warning, and the empty complex raises PreconditionError.
    """
    if K.is_empty():
        raise PreconditionError("empty complex")
    fv = f_vector(K)
    dim = K.dim
    chi = euler_characteristic(K)
    scaled_lhs = 2**dim * chi
    scaled_rhs = sum((-1) ** i * 2 ** (dim - i) * n for i, n in enumerate(fv))
    # scaled_rhs is 2^dim times the half-power sum
    rhs = Fraction(scaled_rhs, 2**dim)
    holds = scaled_lhs == scaled_rhs
    return CheckReport(
        holds=holds,
        witness=None if holds else f"chi {chi} != sum {rhs}",
        values={
            "lhs": chi,
            "rhs": rhs,
            "scaled_lhs": scaled_lhs,
            "scaled_rhs": scaled_rhs,
            "parity_warning": dim % 2 == 1,
        },
    )


def proof_trace(K: SimplicialComplex) -> CheckReport:
    """Report the intermediate identities behind the even-dimension formula.

    For dim K = 2m (d = 2m+1) the four quantities are

        A = h(-1),  B = 2^{2m} (chi - 2),  C = f(-2),
        P = sum_{i=0}^{m} (-1)^i (h_{2m+1-i} - h_i).

    A = C and A = P are pure substitution identities and hold for every
    complex; A = B holds exactly when the Dehn-Sommerville residuals do, so
    the per-component booleans show which step breaks on a non-Eulerian
    complex.  An empty or odd-dimensional K raises PreconditionError.
    """
    if K.is_empty():
        raise PreconditionError("empty complex")
    if K.dim % 2:
        raise PreconditionError(f"dimension {K.dim} is odd")
    m = K.dim // 2
    d = K.dim + 1
    h = h_vector(K)
    chi = euler_characteristic(K)
    # A = h(-1): h_i is the coefficient of t^(d-i), and d is odd
    a = sum(h[1::2]) - sum(h[::2])
    b = 2 ** (2 * m) * (chi - 2)
    c = f_poly_eval(K, -2)
    p = sum((-1) ** i * (h[d - i] - h[i]) for i in range(m + 1))
    components = {"a_equals_c": a == c, "a_equals_p": a == p, "a_equals_b": a == b}
    holds = all(components.values())
    failed = [name for name, ok in components.items() if not ok]
    return CheckReport(
        holds=holds,
        witness=None if holds else failed[0],
        values={"A": a, "B": b, "C": c, "P": p, **components},
    )
