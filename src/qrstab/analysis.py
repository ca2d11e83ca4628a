"""Derived quantities of a stabilizer code: standard form, logical
operators, stabilizer minimum weight, minimum distance, degeneracy.

Distance conventions: d_dagger is the minimum weight of a nontrivial
stabilizer element; d_min is the minimum weight over operators that commute
with every generator but are not themselves stabilizer elements.  Both are
exact when the relevant space is small enough: the Brouwer-Zimmermann
engine, run to completion, returns a lightest element and proves it
minimal.  Otherwise they are seeded, budgeted upper bounds; every value
carries its tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import StabilizerCode
from .errors import BudgetExhausted, InexactInputs
from .gf2 import Gf2Matrix, pack, row_reduce, unpack
from .minweight import SearchResult, isd_search, low_weight_commuting, weight_bounds
from .symplectic import SymplecticVector, to_pauli

EXACT_DDAG_MAX_M = 28        # exact over the 2^m stabilizer elements up to here
EXACT_DMIN_MAX_DUAL = 30     # exact over the 2^(2N-m) normalizer elements up to here
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


def _halves_dense(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    dense = code.h.to_dense()
    n = code.n_qubits
    return dense[:, :n], dense[:, n:]


def _in_stabilizer(code: StabilizerCode, a: np.ndarray, b: np.ndarray) -> bool:
    return code.h.in_row_space(Gf2Matrix.from_dense(np.concatenate([a, b])[None, :]))


def gf4_linear(code: StabilizerCode) -> bool:
    """True iff the stabilizer is closed under omega: (a | b) -> (b | a ^ b)."""
    return code.h.in_row_space(code.h2.hstack(code.h1 + code.h2))


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

    Exact for m <= exact_max_m: the Brouwer-Zimmermann engine's lightest
    element of the 2^m-element span, one per omega-orbit on a GF(4)-linear
    stabilizer.  Otherwise a seeded randomized upper bound over the same row
    space, never above the lightest generator.
    """
    if code.m == 0:
        raise BudgetExhausted("m = 0: the stabilizer has no nontrivial element")
    ha, hb = _halves_dense(code)
    if code.m <= exact_max_m:
        _, res = weight_bounds(ha, hb, code.n_qubits, gf4=gf4_linear(code))
        return _result_to_value(res, exact=True)
    res = isd_search(ha, hb, code.n_qubits, budget=budget, seed=seed)
    # a generator is itself a witness
    return _result_to_value(_lighter_of(res, ha, hb), exact=False)


def d_min(code: StabilizerCode, budget: int = DEFAULT_BUDGET,
          seed: int = 0, exact_max_dual: int = EXACT_DMIN_MAX_DUAL) -> DistanceValue:
    """Minimum weight over the normalizer minus the stabilizer.

    The normalizer is the symplectic dual of the row space, of dimension
    2N - m, spanned by the generators and the standard-form logicals; an
    element lies outside the stabilizer iff its symplectic product with some
    logical is nonzero.  A weight <= 2 pre-scan settles the distance first
    when it can.  Exact when 2N - m is at most EXACT_DMIN_MAX_DUAL: the
    Brouwer-Zimmermann engine over the normalizer, counting only elements
    outside the stabilizer, returns a lightest one.  Otherwise a seeded
    information-set upper bound over the normalizer span with stabilizer
    members filtered out, never above the lightest standard-form logical.
    """
    if code.trivial:
        raise BudgetExhausted("K = 0: the normalizer equals the stabilizer")
    n = code.n_qubits
    ha, hb = _halves_dense(code)

    # exact pre-scan: if a weight <= 2 commuting non-stabilizer element
    # exists, the distance is settled regardless of the dual-space size
    for w, a, b in low_weight_commuting(ha, hb, n):
        if not _in_stabilizer(code, a, b):
            return _result_to_value(SearchResult(w, a, b), exact=True)
    sf = code.standard_form
    logicals = list(sf.logical_x) + list(sf.logical_z)
    logs_a = np.array([v.a for v in logicals], dtype=np.uint8)
    logs_b = np.array([v.b for v in logicals], dtype=np.uint8)
    norm_a = np.vstack([ha, logs_a])
    norm_b = np.vstack([hb, logs_b])

    if 2 * n - code.m <= exact_max_dual:
        products = (norm_a.astype(np.int64) @ logs_b.T + norm_b.astype(np.int64) @ logs_a.T) % 2
        _, res = weight_bounds(norm_a, norm_b, n, gf4=gf4_linear(code),
                               tags=products.astype(np.uint8))
        return _result_to_value(res, exact=True)

    # bounded mode: search the normalizer span, reject stabilizer members
    res = isd_search(norm_a, norm_b, n, budget=budget, seed=seed,
                     accept=lambda a, b: not _in_stabilizer(code, a, b))
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
