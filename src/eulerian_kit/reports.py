"""Result records for structural and theorem checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DSResidualRow:
    """One index of the Dehn-Sommerville residual table.

    lhs is h_{d-i} - h_i, rhs is (-1)^i * C(d,i) * (chi - chi(S^{d-1})).
    """

    i: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class CheckReport:
    """Outcome of one audit: Eulerian, Dehn-Sommerville, main formula,
    proof trace or flag.

    When holds is False, witness identifies the first failure in canonical
    order (a face tuple, a row index, or a marker string) and values
    carries the exact quantities involved.  failures lists every failure:
    the failing faces of an exhaustive Eulerian audit, or the failing
    Dehn-Sommerville row indices; it is empty otherwise.
    """

    holds: bool
    witness: object = None
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
