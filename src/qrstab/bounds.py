"""Finite-length quantum coding bounds and their asymptotic rate curves.

All finite-N predicates use exact integer arithmetic; floats enter only in
the asymptotic rate expressions and the CSS-GV rate comparison, which uses a
fixed 1e-12 margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameters

LOG2_3 = math.log2(3.0)
_RATE_TOL = 1e-12


def correctable_errors(d: int) -> int:
    return (d - 1) // 2


def _sphere_sum(n_qubits: int, radius: int) -> int:
    return sum(3 ** j * math.comb(n_qubits, j) for j in range(radius + 1))


def hamming_bound(n_qubits: int, k: int, d: int) -> tuple[bool, bool]:
    """(holds, tight): sum_{j<=t} 3^j C(N,j) <= 2^(N-K)."""
    lhs = _sphere_sum(n_qubits, correctable_errors(d))
    rhs = 1 << (n_qubits - k)
    return lhs <= rhs, lhs == rhs


def gv_bound(n_qubits: int, k: int, d: int) -> bool:
    """Finite GV inequality: sum_{j<=2t} 3^j C(N,j) <= 2^(N-K).

    GV is an existence bound; this predicate reports whether the parameters
    satisfy the finite inequality, as used when placing codes on the curves.
    """
    return _sphere_sum(n_qubits, 2 * correctable_errors(d)) <= (1 << (n_qubits - k))


def binary_entropy(x: float) -> float:
    """h2 with the continuity convention h2(0) = h2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def css_gv_rate(n_qubits: int, k: int, d: int) -> bool:
    """K/N >= 1 - 2 h2(2t/N), with a 1e-12 comparison margin."""
    delta = correctable_errors(d) / n_qubits
    return k / n_qubits >= 1.0 - 2.0 * binary_entropy(2.0 * delta) - _RATE_TOL


def singleton_bound(n_qubits: int, k: int, d: int) -> tuple[bool, bool]:
    """(holds, tight): N - K >= 4t."""
    lhs = n_qubits - k
    rhs = 4 * correctable_errors(d)
    return lhs >= rhs, lhs == rhs


def hamming_rate(delta: float) -> float:
    return 1.0 - delta * LOG2_3 - binary_entropy(delta)


def gv_rate(delta: float) -> float:
    return 1.0 - 2.0 * delta * LOG2_3 - binary_entropy(2.0 * delta)


def css_gv_rate_curve(delta: float) -> float:
    return 1.0 - 2.0 * binary_entropy(2.0 * delta)


def singleton_rate(delta: float) -> float:
    return 1.0 - 4.0 * delta


_CURVES = (
    ("hamming", hamming_rate),
    ("gv", gv_rate),
    ("css-gv", css_gv_rate_curve),
    ("singleton", singleton_rate),
)


def asymptotic_curves(resolution: int) -> list[tuple[str, float, float]]:
    """Sampled (bound_name, delta_q, rate) rows over delta_q in [0, 0.5]."""
    if resolution < 2:
        raise InvalidParameters(f"resolution must be at least 2, got {resolution}")
    rows = []
    for name, fn in _CURVES:
        for i in range(resolution):
            delta = 0.5 * i / (resolution - 1)
            rows.append((name, delta, fn(delta)))
    return rows


def curves_csv(resolution: int) -> str:
    lines = ["bound_name,delta_q,rate"]
    for name, delta, rate in asymptotic_curves(resolution):
        lines.append(f"{name},{delta:.10g},{rate:.10g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundsReport:
    n_qubits: int
    k: int
    d_min: int
    t: int
    hamming_ok: bool
    hamming_tight: bool
    gv_ok: bool
    css_gv_rate_ok: bool
    singleton_ok: bool
    singleton_tight: bool
    asymptotic_rates: dict[str, float]


def evaluate_bounds(n_qubits: int, k: int, d: int) -> BoundsReport:
    if not (n_qubits >= 1 and 0 <= k <= n_qubits and d >= 1):
        raise InvalidParameters(f"[[{n_qubits},{k},{d}]] needs N >= 1, 0 <= K <= N, d >= 1")
    h_ok, h_tight = hamming_bound(n_qubits, k, d)
    s_ok, s_tight = singleton_bound(n_qubits, k, d)
    delta = correctable_errors(d) / n_qubits
    return BoundsReport(
        n_qubits=n_qubits, k=k, d_min=d, t=correctable_errors(d),
        hamming_ok=h_ok, hamming_tight=h_tight,
        gv_ok=gv_bound(n_qubits, k, d),
        css_gv_rate_ok=css_gv_rate(n_qubits, k, d),
        singleton_ok=s_ok, singleton_tight=s_tight,
        asymptotic_rates={name: fn(delta) for name, fn in _CURVES},
    )
