"""Derived quantities of a stabilizer code: standard form, logical
operators, stabilizer minimum weight, minimum distance, degeneracy.

Distance conventions: d_dagger is the minimum weight of a nontrivial
stabilizer element; d_min is the minimum weight over operators that commute
with every generator but are not themselves stabilizer elements.  Both are
computed exactly when the relevant space is small enough to enumerate and
as seeded, budgeted upper bounds otherwise; every value carries its tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import StabilizerCode
from .errors import BudgetExhausted, InexactInputs
from .gf2 import Gf2Matrix, pack
from .minweight import (SearchResult, isd_search, low_weight_commuting,
                        min_weight_affine, min_weight_span, xor_table)
from .symplectic import SymplecticVector, to_pauli

EXACT_DDAG_MAX_M = 28        # enumerate 2^m stabilizer elements up to here
EXACT_DMIN_MAX_DUAL = 30     # enumerate 2^(2N-m) normalizer elements up to here
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
    logical position.  The Z-half pivots come from one more RREF with the
    X columns first and the Z columns in the logical order the X phase
    left, and are swapped into place the same way.  That reproduces
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
    order = list(range(n)) + [n + q for q in colperm[r:]] + [n + q for q in colperm[:r]]
    red = code.h.rref(order)
    z_pivots = [c - n for c in red.pivot_cols[r:]]
    if len(red.pivot_cols) != m or not set(z_pivots) <= set(colperm[r:]):  # pragma: no cover
        raise ValueError("generator rows were not independent")
    for c, q in enumerate(z_pivots, start=r):
        move_to(q, c)

    dense = red.matrix.to_dense()
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


def _halves_dense(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    dense = code.h.to_dense()
    n = code.n_qubits
    return dense[:, :n], dense[:, n:]


def _in_stabilizer(code: StabilizerCode, a: np.ndarray, b: np.ndarray) -> bool:
    return code.h.in_row_space(Gf2Matrix.from_dense(np.concatenate([a, b])[None, :]))


def _result_to_value(res: SearchResult, exact: bool) -> DistanceValue:
    witness = to_pauli(SymplecticVector(res.a, res.b))
    return DistanceValue(res.weight, EXACT if exact else UPPER_BOUND, witness)


def _lighter_of(res: SearchResult, rows_a: np.ndarray, rows_b: np.ndarray) -> SearchResult:
    """``res`` or, if strictly lighter, the first lightest of the given rows
    (each a valid witness), so a bound is never worse than a trivial one."""
    weights = (rows_a | rows_b).sum(axis=1)
    i0 = int(np.argmin(weights))
    if weights[i0] < res.weight:
        return SearchResult(int(weights[i0]), rows_a[i0], rows_b[i0])
    return res


def d_dagger(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
             seed: int = 0, exact_max_m: int = EXACT_DDAG_MAX_M) -> DistanceValue:
    """Minimum weight of a nontrivial stabilizer element.

    Exact (full 2^m enumeration) for m <= exact_max_m, otherwise a seeded
    randomized upper bound over the same row space, never above the lightest
    generator.
    """
    ha, hb = _halves_dense(code)
    if code.m <= exact_max_m:
        res = min_weight_span(pack(ha), pack(hb), code.n_qubits)
        return _result_to_value(res, exact=True)
    res = isd_search(ha, hb, code.n_qubits, budget=budget, seed=seed)
    # a generator is itself a witness
    return _result_to_value(_lighter_of(res, ha, hb), exact=False)


def d_min(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
          seed: int = 0, exact_max_dual: int = EXACT_DMIN_MAX_DUAL) -> DistanceValue:
    """Minimum weight over the normalizer minus the stabilizer.

    The normalizer is the symplectic dual of the row space, of dimension
    2N - m; its elements split into cosets of the stabilizer indexed by the
    2^(2K) - 1 nonzero logical combinations, so enumerating coset by coset
    never touches the stabilizer itself.  Exact when 2N - m is at most
    EXACT_DMIN_MAX_DUAL, otherwise a seeded information-set upper bound over
    the normalizer span with stabilizer members filtered out, never above
    the lightest standard-form logical.
    """
    if code.trivial:
        raise BudgetExhausted("K = 0: the normalizer equals the stabilizer")
    n = code.n_qubits
    m = code.m
    ha, hb = _halves_dense(code)

    # exact pre-scan: if a weight <= 2 commuting non-stabilizer element
    # exists, the distance is settled regardless of the dual-space size
    for w, a, b in low_weight_commuting(ha, hb, n):
        if not _in_stabilizer(code, a, b):
            return _result_to_value(SearchResult(w, a, b), exact=True)
    sf = standard_form(code)
    logicals = list(sf.logical_x) + list(sf.logical_z)
    logs_a = np.array([v.a for v in logicals], dtype=np.uint8)
    logs_b = np.array([v.b for v in logicals], dtype=np.uint8)

    if 2 * n - m <= exact_max_dual:
        # coset offsets in lambda order: combination bit i selects logical i
        offsets_a, offsets_b = xor_table(pack(logs_a))[1:], xor_table(pack(logs_b))[1:]
        res = min_weight_affine(pack(ha), pack(hb), offsets_a, offsets_b, n)
        return _result_to_value(res, exact=True)

    # bounded mode: search the normalizer span, reject stabilizer members
    norm_a = np.vstack([ha, logs_a])
    norm_b = np.vstack([hb, logs_b])

    def not_in_stabilizer(a: np.ndarray, b: np.ndarray) -> bool:
        return not _in_stabilizer(code, a, b)

    res = isd_search(norm_a, norm_b, n, budget=budget, seed=seed,
                     accept=not_in_stabilizer)
    # a standard-form logical is itself a witness
    return _result_to_value(_lighter_of(res, logs_a, logs_b), exact=False)


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


# ---------------- independent small-N oracle ----------------


def d_min_oracle(code: StabilizerCode, max_weight: int | None = None) -> int:
    """Increasing-weight brute force for cross-validation (N <= ~12).

    Enumerates every symplectic vector of weight w = 1, 2, ... and returns
    the first weight at which some vector commutes with all generators but
    lies outside the stabilizer row space.
    """
    from itertools import combinations, product

    n = code.n_qubits
    ha, hb = _halves_dense(code)
    top = max_weight or n
    for w in range(1, top + 1):
        for pos in combinations(range(n), w):
            for pattern in product(((1, 0), (0, 1), (1, 1)), repeat=w):
                a = np.zeros(n, dtype=np.uint8)
                b = np.zeros(n, dtype=np.uint8)
                for q, (xa, xb) in zip(pos, pattern):
                    a[q], b[q] = xa, xb
                if ((ha @ b + hb @ a) % 2).any():
                    continue
                if not _in_stabilizer(code, a, b):
                    return w
    raise BudgetExhausted(f"no normalizer element of weight <= {top}")
