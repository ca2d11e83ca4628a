"""Reference parameter tables for the constructed code families, and the
harness that rebuilds every constructible column and diffs it.

Expected values are stated per row; cells whose exact verification exceeds
desk scale are checked as upper bounds and labeled as such in the diff
output.  The harness is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (EXACT_DDAG_MAX_M, EXACT_DMIN_MAX_DUAL, d_dagger, d_min)
from .numtheory import classify_prime
from .type1 import Type1Spec, Type1Variant, build_type1
from .type2 import (Layout, QcsSpec, QcsVariant, build_qcs,
                    expected_component_rank)

# Type-I codes with p = 4n + 1: (n, N, K, d_min, d_dagger).
# The n = 1 row is the perfect five-qubit code; n <= 7 rows are exactly
# enumerable, larger rows only admit upper-bound checks at desk scale.
TABLE_I = [
    (1, 5, 1, 3, 4),
    (3, 13, 1, 5, 6),
    (7, 29, 1, 11, 12),
    (9, 37, 1, 12, 12),
    (13, 53, 1, 15, 16),
    (15, 61, 1, 17, 18),
    (25, 101, 1, 21, 22),
]

# Type-I codes with p = 4n - 1 and even n: (n, N, K, d_min, d_dagger).
TABLE_II = [
    (2, 7, 3, 2, 4),
    (6, 23, 11, 2, 8),
    (8, 31, 15, 2, 8),
    (12, 47, 23, 2, 12),
    (18, 71, 35, 2, 16),
    (20, 79, 39, 2, 16),
]

# Quasi-cyclic codes: (n, variant, p, k, N, K, removal, layout).
# removal None means the stock policy; the [[21, 6]] row needs an explicit
# six-row removal, for which the independent set below is used.
TABLE_III = [
    (1, "B", 5, 2, 10, 1, None, None),
    (2, "A", 7, 3, 21, 5, None, "h1-adj2"),
    (2, "A", 7, 3, 21, 6, (7, 11, 12, 14, 15, 21), "adj1-h2"),
    (3, "A", 11, 5, 55, 4, None, "h1-adj2"),
    (3, "B", 13, 6, 78, 5, None, None),
    (4, "B", 17, 8, 136, 15, None, None),
    (5, "A", 19, 9, 171, 26, None, "h1-adj2"),
    (6, "A", 23, 11, 253, 21, None, "h1-adj2"),
    (7, "B", 29, 14, 406, 13, None, None),
]

# Length-21 quasi-cyclic codes: (layout, removal, K, d_min).  Distances are
# exactly enumerable for every row.
TABLE_IV = [
    ("adj2-h1", (7, 11, 12, 14, 21), 5, 5),
    ("h1-adj2", (7, 11, 12, 14, 21), 5, 4),
    ("adj1-h2", (5, 8, 9, 13, 21), 5, 3),
    ("adj1-h2", (7, 11, 12, 14, 15, 21), 6, 4),
    ("adj2-h1", (7, 11, 12, 14, 15, 21), 6, 1),
    ("adj2-h1", (3, 7, 11, 12, 14, 21), 6, 3),
    ("h1-adj2", (3, 7, 11, 12, 14, 21), 6, 4),
    ("adj2-h1", (4, 7, 11, 12, 14, 21), 6, 2),
    ("h1-adj2", (4, 7, 11, 12, 14, 21), 6, 4),
]


@dataclass(frozen=True)
class Erratum:
    """A published cell that the construction provably cannot reach.

    ``table`` is "I", "II", "IV" or "worked example" (the [[21,5,4]] example
    given in the text); ``row`` is the prime for Tables I and II and the
    (layout, removal) pair otherwise; ``field`` is "d_min" or "d_dagger".
    ``reproduced`` is what this toolkit computes for the cell, tagged
    ``tag`` exactly as the distance engine tags it.  ``evidence`` names the
    refutation, which the acceptance suite re-checks:

    * "witness": ``witness`` is a Pauli string of weight ``reproduced``
      below the published value, a stabilizer element for d_dagger and a
      commuting non-stabilizer operator for d_min;
    * "certified": the exact value is confirmed by brute force over every
      Pauli operator lighter than it, independently of the engine, and the
      retained rows span the whole lifted matrix, so every removal of as
      many rows that leaves them independent gives the same code;
    * "swap": the row's check matrix is the ``partner`` row's with its
      halves swapped, which relabels X and Z and cannot change the distance,
      yet the table gives the two rows different values.
    """

    table: str
    row: object
    field: str
    published: int
    reproduced: int
    tag: str
    evidence: str
    witness: str | None = None
    partner: tuple[str, tuple[int, ...]] | None = None


# The knowingly-red cells; the published values above stay as printed.
ERRATA = (
    Erratum("I", 37, "d_min", 12, 11, "upper_bound", "witness",
            witness="IIIIIIIIXIIIZZIYIIIIXIIYIXZYIXIIIYIII"),
    Erratum("II", 71, "d_dagger", 16, 12, "upper_bound", "witness",
            witness="IIIIIIIIIIIIYIIIIIIIIIIIIIIIIIYIYIIIIYYIIIIIYIIYY"
                    "IIYIIYIIYIYIIIIIIIIIII"),
    Erratum("worked example", ("h1-adj2", (2, 3, 8, 11, 21)), "d_min",
            4, 5, "exact", "certified"),
    Erratum("IV", ("h1-adj2", (7, 11, 12, 14, 21)), "d_min", 4, 5, "exact",
            "certified"),
    Erratum("IV", ("adj1-h2", (5, 8, 9, 13, 21)), "d_min", 3, 5, "exact",
            "certified"),
    Erratum("IV", ("adj2-h1", (3, 7, 11, 12, 14, 21)), "d_min", 3, 4, "exact",
            "swap", partner=("h1-adj2", (3, 7, 11, 12, 14, 21))),
    Erratum("IV", ("adj2-h1", (4, 7, 11, 12, 14, 21)), "d_min", 2, 3, "exact",
            "swap", partner=("h1-adj2", (4, 7, 11, 12, 14, 21))),
    Erratum("IV", ("h1-adj2", (4, 7, 11, 12, 14, 21)), "d_min", 4, 3, "exact",
            "swap", partner=("adj2-h1", (4, 7, 11, 12, 14, 21))),
)


@dataclass(frozen=True)
class CellDiff:
    row: str
    field: str
    got: object
    expected: object
    kind: str  # "exact" or "upper_bound"

    def __str__(self) -> str:
        rel = "==" if self.kind == "exact" else "<="
        return (f"{self.row}: {self.field} got {self.got}, "
                f"expected {rel} {self.expected}")


def _check(diffs, row, field, got, expected, kind="exact"):
    ok = got == expected if kind == "exact" else got <= expected
    if not ok:
        diffs.append(CellDiff(row, field, got, expected, kind))


def _check_distance(diffs, row, field, dist, expected):
    """A distance cell, checked as its tag says: exact, or an upper bound."""
    if dist.is_exact:
        _check(diffs, row, field, dist.value, expected)
    else:
        _check(diffs, row, f"{field}(bound)", dist.value, expected, kind="upper_bound")


def _thresholds(level: str) -> tuple[int, int]:
    """(exact_max_dual, exact_max_m); the fast level skips 2^28-scale work."""
    if level == "fast":
        return 28, 24
    return EXACT_DMIN_MAX_DUAL, EXACT_DDAG_MAX_M


def check_table_1(level: str = "full", budget: int = 2_000_000,
                  seed: int = 0) -> list[CellDiff]:
    diffs: list[CellDiff] = []
    dual_max, m_max = _thresholds(level)
    for n, N, K, dmin_tab, ddag_tab in TABLE_I:
        ctx = classify_prime(N)
        code = build_type1(Type1Spec(ctx, Type1Variant.PLUS_FORM))
        row = f"[[{N},{K},{dmin_tab}]]"
        _check(diffs, row, "N", code.n_qubits, N)
        _check(diffs, row, "K", code.k_logical, K)
        _check(diffs, row, "rank", code.m, N - K)
        _check_distance(diffs, row, "d_min", d_min(
            code, budget=budget, seed=seed, exact_max_dual=dual_max), dmin_tab)
        _check_distance(diffs, row, "d_dagger", d_dagger(
            code, budget=budget, seed=seed, exact_max_m=m_max), ddag_tab)
    return diffs


def check_table_2(level: str = "full", budget: int = 2_000_000,
                  seed: int = 0) -> list[CellDiff]:
    diffs: list[CellDiff] = []
    _, m_max = _thresholds(level)
    for n, N, K, dmin_tab, ddag_tab in TABLE_II:
        ctx = classify_prime(N)
        code = build_type1(Type1Spec(ctx, Type1Variant.RESIDUE_PAIR))
        row = f"[[{N},{K},{dmin_tab}]]"
        _check(diffs, row, "N", code.n_qubits, N)
        _check(diffs, row, "K", code.k_logical, K)
        _check_distance(diffs, row, "d_min", d_min(code, budget=budget, seed=seed), dmin_tab)
        _check_distance(diffs, row, "d_dagger", d_dagger(
            code, budget=budget, seed=seed, exact_max_m=m_max), ddag_tab)
    return diffs


def _qcs_spec(variant: str, p: int, removal, layout) -> QcsSpec:
    ctx = classify_prime(p)
    return QcsSpec(ctx, QcsVariant(variant),
                   Layout(layout) if layout else Layout.H1_ADJ2,
                   tuple(removal) if removal else None)


def check_table_3(level: str = "full", budget: int = 2_000_000,
                  seed: int = 0) -> list[CellDiff]:
    diffs: list[CellDiff] = []
    for n, variant, p, k, N, K, removal, layout in TABLE_III:
        spec = _qcs_spec(variant, p, removal, layout)
        code = build_qcs(spec)
        row = f"[[{N},{K}]] qcs-{variant.lower()} p={p}"
        _check(diffs, row, "N", code.n_qubits, N)
        _check(diffs, row, "K", code.k_logical, K)
        _check(diffs, row, "component rank", code.provenance["rank_plain_half"],
               expected_component_rank(spec.ctx, spec.variant))
    return diffs


def check_table_4(level: str = "full", budget: int = 2_000_000,
                  seed: int = 0) -> list[CellDiff]:
    diffs: list[CellDiff] = []
    ctx = classify_prime(7)
    for layout, removal, K, dmin_tab in TABLE_IV:
        spec = QcsSpec(ctx, QcsVariant.A, Layout(layout), tuple(removal))
        code = build_qcs(spec)
        row = f"[[21,{K},{dmin_tab}]] {layout} remove {list(removal)}"
        _check(diffs, row, "K", code.k_logical, K)
        _check_distance(diffs, row, "d_min", d_min(code, budget=budget, seed=seed), dmin_tab)
    return diffs


_CHECKERS = {1: check_table_1, 2: check_table_2, 3: check_table_3, 4: check_table_4}


def check_table(which: int, level: str = "full", budget: int = 2_000_000,
                seed: int = 0) -> list[CellDiff]:
    if which not in _CHECKERS:
        raise ValueError("table number must be 1..4")
    return _CHECKERS[which](level=level, budget=budget, seed=seed)
