"""Result records for structural and theorem checks.

Both are namedtuples, as the package's other records are: the CLI's start
then imports neither dataclasses nor the inspect, ast and dis modules it
brings.  Change a field with `_replace`; `_asdict` gives the fields by name.
"""

from __future__ import annotations

from collections import namedtuple


class DSResidualRow(namedtuple("DSResidualRow", "i lhs rhs")):
    """One index of the Dehn-Sommerville residual table.

    lhs is h_{d-i} - h_i, rhs is (-1)^i * C(d,i) * (chi - chi(S^{d-1})).
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


class CheckReport(namedtuple("CheckReport", "holds witness values failures")):
    """Outcome of one audit: Eulerian, Dehn-Sommerville, main formula,
    proof trace or flag.

    When holds is False, witness identifies the first failure in canonical
    order (a face tuple, a row index, or a marker string) and values
    carries the exact quantities involved.  failures lists every failure:
    the failing faces of an exhaustive Eulerian audit, or the failing
    Dehn-Sommerville row indices; it is empty otherwise.  values and
    failures default to a new dict and a new list for each report.
    """

    __slots__ = ()

    def __new__(cls, holds: bool, witness: object = None, values: dict | None = None,
                failures: list | None = None) -> CheckReport:
        values = {} if values is None else values
        failures = [] if failures is None else failures
        return super().__new__(cls, holds, witness, values, failures)
