"""The stabilizer-code container, and the gate both code builders use."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .errors import DependentRows, RowIndexOutOfRange, ShapeMismatch, SipViolation
from .gf2 import Gf2Matrix
from .symplectic import sip_check


@dataclass(frozen=True)
class StabilizerCode:
    """An [[N, K]] stabilizer code given by m = N - K independent generator
    rows in binary form H = [H1 | H2].

    ``family`` is one of "type1", "qcs-a", "qcs-b"; ``provenance`` records
    how the matrix was produced (prime, variant, layout, removed rows, ...).
    """

    n_qubits: int
    h: Gf2Matrix
    family: str
    provenance: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.h.cols != 2 * self.n_qubits:
            raise ShapeMismatch("H must have 2N columns")

    @property
    def m(self) -> int:
        return self.h.rows

    @property
    def k_logical(self) -> int:
        return self.n_qubits - self.m

    @property
    def h1(self) -> Gf2Matrix:
        return self.h.columns(0, self.n_qubits)

    @property
    def h2(self) -> Gf2Matrix:
        return self.h.columns(self.n_qubits, 2 * self.n_qubits)

    @cached_property
    def standard_form(self):
        """``analysis.standard_form`` of this code, computed on first use."""
        from .analysis import standard_form
        return standard_form(self)

    @property
    def trivial(self) -> bool:
        """True for K = 0 codes (no logical qubits)."""
        return self.k_logical == 0

    def params(self) -> str:
        return f"[[{self.n_qubits},{self.k_logical}]]"

    def validate(self) -> None:
        """Check the defining invariants: commuting rows, independent rows."""
        commuting_generators(self.h1, self.h2, list(range(self.m)), self.params())


def commuting_generators(h1: Gf2Matrix, h2: Gf2Matrix, rows: list[int] | None,
                         what: str) -> tuple[Gf2Matrix, list[int]]:
    """Check that the full halves commute (SIP), then keep rows of [h1 | h2]:
    the given 0-based ``rows``, which must be independent, or else the
    first-wins independent subset.  Returns the kept rows and their indices."""
    if not sip_check(h1, h2):
        raise SipViolation(f"{what}: halves do not commute")
    joint = h1.hstack(h2)
    if rows is None:
        rows = joint.independent_row_subset()
        return joint.take_rows(rows), rows
    sub = joint.take_rows(rows)
    if sub.rank() != len(rows):
        raise DependentRows(f"{what}: {len(rows)} rows of rank {sub.rank()}")
    return sub, rows


def zero_based_rows(rows_1based, n_rows: int) -> list[int]:
    """Distinct 1-based row indices, at least one, of an n_rows-row matrix, as 0-based."""
    if not rows_1based:
        raise RowIndexOutOfRange("empty row list")
    bad = [r for r in rows_1based if not 1 <= r <= n_rows]
    if bad:
        raise RowIndexOutOfRange(f"rows {bad} outside 1..{n_rows}")
    if len(set(rows_1based)) != len(rows_1based):
        raise RowIndexOutOfRange("duplicate row indices")
    return [r - 1 for r in rows_1based]
