"""Derived quantities of a stabilizer code: standard form, logical
operators, stabilizer minimum weight, minimum distance, degeneracy.

Distance conventions: d_dagger is the minimum weight of a nontrivial
stabilizer element; d_min is the minimum weight over operators that commute
with every generator but are not themselves stabilizer elements.  Each is
exact when proven: the Brouwer-Zimmermann engine, forming at most the
caller's budget of elements, returns a lightest element formed and a lower
bound, and the two meet.  Otherwise it is a seeded, budgeted upper bound
with a witness; every value carries its tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import StabilizerCode
from .errors import BudgetExhausted, InexactInputs, InvalidParameters
from .gf2 import Gf2Matrix, pack, row_reduce, unpack
from .minweight import SearchResult, isd_search, low_weight_commuting, weight_bounds
from .symplectic import SymplecticVector, to_pauli

DEFAULT_BUDGET = 10_000_000
EXACT = "exact"
UPPER_BOUND = "upper_bound"


@dataclass(frozen=True)
class StandardForm:
    """Row-reduced generators plus the logical operators they induce.

    ``h1``/``h2`` are the reduced halves on the original qubit order;
    ``x_rank`` is the rank of the X half.  ``logical_x[i]`` and
    ``logical_z[i]`` anticommute with each other and commute with everything
    else (generators and the other logical pairs).
    """

    h1: Gf2Matrix
    h2: Gf2Matrix
    x_rank: int
    column_permutation: tuple[int, ...]
    logical_x: tuple[SymplecticVector, ...]
    logical_z: tuple[SymplecticVector, ...]


def standard_form(code: StabilizerCode) -> StandardForm:
    """Gaussian elimination with qubit swaps bringing H to the block shape
    (I A1 A2 | B C1 C2 ; 0 0 0 | D I E), then logical operators read off as
    X = (0 E^T I | C2^T 0 0) and Z = (0 0 0 | A2^T 0 I), with all qubit
    swaps undone afterwards.

    The bits never move: ``colperm`` is the logical qubit order.  The X-half
    pivots are those of H's RREF; each in turn is swapped into the next
    logical position.  The Z-half pivots come from one more ``row_reduce``
    of H's columns reordered, the X columns first and the Z columns in the
    logical order the X phase left; they are mapped back through that order
    and swapped into place the same way.  That reproduces
    column-by-column elimination with its swap sequence exactly.
    """
    n = code.n_qubits
    m = code.m
    K = code.k_logical
    colperm = list(range(n))

    def move_to(q: int, c: int) -> None:
        j = colperm.index(q, c)
        colperm[c], colperm[j] = colperm[j], colperm[c]

    x_pivots = [c for c in code.h.rref().pivot_cols if c < n]
    r = len(x_pivots)
    for c, q in enumerate(x_pivots):
        move_to(q, c)
    order = np.concatenate([np.arange(n), n + np.array(colperm[r:] + colperm[:r])])
    reduced, pivots, _ = row_reduce(pack(code.h.to_dense()[:, order]))
    z_pivots = (order[pivots[r:]] - n).tolist()
    if len(pivots) != m or not set(z_pivots) <= set(colperm[r:]):  # pragma: no cover
        raise ValueError("generator rows were not independent")
    for c, q in enumerate(z_pivots, start=r):
        move_to(q, c)

    dense = np.empty((len(reduced), 2 * n), dtype=np.uint8)
    dense[:, order] = unpack(reduced, 2 * n)
    h1, h2 = dense[:, :n], dense[:, n:]
    perm = np.asarray(colperm)
    tail = perm[m:]
    lx_a = np.zeros((K, n), dtype=np.uint8)
    lx_b = np.zeros((K, n), dtype=np.uint8)
    lz_a = np.zeros((K, n), dtype=np.uint8)
    lz_b = np.zeros((K, n), dtype=np.uint8)
    if K:
        lx_a[:, perm[r:m]] = h2[r:][:, tail].T   # E^T
        lx_a[:, tail] = np.eye(K, dtype=np.uint8)
        lx_b[:, perm[:r]] = h2[:r][:, tail].T    # C2^T
        lz_b[:, perm[:r]] = h1[:r][:, tail].T    # A2^T
        lz_b[:, tail] = np.eye(K, dtype=np.uint8)

    return StandardForm(
        h1=Gf2Matrix.from_dense(h1),
        h2=Gf2Matrix.from_dense(h2),
        x_rank=r,
        column_permutation=tuple(colperm),
        logical_x=tuple(SymplecticVector(lx_a[i], lx_b[i]) for i in range(K)),
        logical_z=tuple(SymplecticVector(lz_a[i], lz_b[i]) for i in range(K)),
    )


@dataclass(frozen=True)
class DistanceValue:
    value: int
    tag: str  # "exact" or "upper_bound"
    witness: str  # Pauli string achieving the value

    @property
    def is_exact(self) -> bool:
        return self.tag == EXACT


@dataclass(frozen=True)
class DistanceReport:
    d_dagger: DistanceValue
    d_min: DistanceValue
    degenerate: bool | None  # None when either value is only a bound
    budget: int
    seed: int


def gf4_linear(code: StabilizerCode) -> bool:
    """True iff the stabilizer is closed under omega: (a | b) -> (b | a ^ b)."""
    return code.h.in_row_space(code.h2.hstack(code.h1 + code.h2))


def _result_to_value(res: SearchResult, exact: bool) -> DistanceValue:
    witness = to_pauli(SymplecticVector(res.a, res.b))
    return DistanceValue(res.weight, EXACT if exact else UPPER_BOUND, witness)


def _distance(code: StabilizerCode, basis_a: np.ndarray, basis_b: np.ndarray,
              floor_a: np.ndarray, floor_b: np.ndarray, budget: int, seed: int,
              prove: bool, tags: np.ndarray | None = None) -> DistanceValue:
    """Least weight of a nonzero element of the span of the basis rows (with
    ``tags``, of one whose tags sum to nonzero; see ``weight_bounds``).

    With ``prove``, the Brouwer-Zimmermann engine forms at most ``budget``
    elements; if its lower bound meets the lightest of them, that element is
    the exact value.  Otherwise the value is an upper bound: the lightest of
    the engine's element, a seeded information-set search of ``budget``
    candidates and the first lightest floor row (each a valid witness), ties
    going to the first in that order.
    """
    if budget < 1:
        raise InvalidParameters(f"budget must be at least 1, got {budget}")
    found = []
    if prove:
        lower, res = weight_bounds(basis_a, basis_b, code.n_qubits, cap=budget,
                                   gf4=gf4_linear(code), tags=tags)
        if lower == res.weight:
            return _result_to_value(res, exact=True)
        found.append(res)
    found.append(isd_search(basis_a, basis_b, code.n_qubits, budget=budget,
                            seed=seed, tags=tags))
    weights = (floor_a | floor_b).sum(axis=1)
    i = int(np.argmin(weights))
    found.append(SearchResult(int(weights[i]), floor_a[i], floor_b[i]))
    return _result_to_value(min(found, key=lambda r: r.weight), exact=False)


def d_dagger(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
             seed: int = 0, exact_max_m: int | None = None) -> DistanceValue:
    """Minimum weight of a nontrivial stabilizer element.

    Exact when the Brouwer-Zimmermann engine proves it within ``budget``
    elements formed (one per omega-orbit on a GF(4)-linear stabilizer);
    otherwise an upper bound, never above the lightest generator (see
    ``_distance``).  ``exact_max_m`` skips the proof when m exceeds it: -1
    gives the search alone.
    """
    if code.m == 0:
        raise BudgetExhausted("m = 0: the stabilizer has no nontrivial element")
    ha, hb = np.hsplit(code.h.to_dense(), 2)
    return _distance(code, ha, hb, ha, hb, budget, seed,
                     prove=exact_max_m is None or code.m <= exact_max_m)


def d_min(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
          seed: int = 0, exact_max_dual: int | None = None) -> DistanceValue:
    """Minimum weight over the normalizer minus the stabilizer.

    The normalizer is the symplectic dual of the row space, of dimension
    2N - m, spanned by the generators and the standard-form logicals.  An
    element lies outside the stabilizer iff its symplectic products with
    the logicals, its tags, are not all zero; the pre-scan, the
    Brouwer-Zimmermann engine and the information-set search all use them.
    A pre-scan candidate's tags are the XOR of at most two columns of the
    logicals, one per Pauli on a qubit (``minweight.low_weight_commuting``).
    A weight <= 2 element outside the stabilizer settles the distance
    exactly; otherwise it is exact when the engine proves it within
    ``budget`` elements formed, and else an upper bound, never above the
    lightest standard-form logical (see ``_distance``).  ``exact_max_dual``
    skips the proof when 2N - m exceeds it: -1 gives the search alone.
    """
    if code.trivial:
        raise BudgetExhausted("K = 0: the normalizer equals the stabilizer")
    n = code.n_qubits
    ha, hb = np.hsplit(code.h.to_dense(), 2)
    logicals = code.standard_form.logical_x + code.standard_form.logical_z
    logs_a = np.array([v.a for v in logicals], dtype=np.uint8)
    logs_b = np.array([v.b for v in logicals], dtype=np.uint8)
    first = low_weight_commuting(ha, hb, logs_a, logs_b, n)
    if first is not None:
        return _result_to_value(first, exact=True)
    rows_a, rows_b = np.vstack([ha, logs_a]), np.vstack([hb, logs_b])
    tags = (np.hstack([rows_a, rows_b]).astype(np.float64)
            @ np.hstack([logs_b, logs_a]).T % 2).astype(np.uint8)
    return _distance(code, rows_a, rows_b, logs_a, logs_b, budget, seed,
                     prove=exact_max_dual is None or 2 * n - code.m <= exact_max_dual,
                     tags=tags)


def classify_degeneracy(ddag: DistanceValue, dmin: DistanceValue) -> bool:
    """True iff some stabilizer element is lighter than the distance.

    Requires both inputs exact; bounds cannot settle the comparison.
    """
    if not (ddag.is_exact and dmin.is_exact):
        raise InexactInputs("degeneracy needs exact d_dagger and d_min")
    return ddag.value < dmin.value


def distance_report(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
                    seed: int = 0) -> DistanceReport:
    ddag = d_dagger(code, budget=budget, seed=seed)
    dmin = d_min(code, budget=budget, seed=seed)
    degenerate = (classify_degeneracy(ddag, dmin)
                  if ddag.is_exact and dmin.is_exact else None)
    return DistanceReport(ddag, dmin, degenerate, budget, seed)
