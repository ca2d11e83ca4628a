"""Reference parameter tables for the constructed code families, and the
harness that rebuilds every constructible column and diffs it.

Expected values are stated per row.  A distance cell is checked as exact
or as an upper bound according to the tag the distance engine gives it,
and bound cells are labeled as such in the diff output.  The harness is
deterministic: every proof and search runs at ``BUDGET`` and ``SEED``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import d_dagger, d_min
from .errors import InvalidParameters
from .numtheory import classify_prime
from .type1 import Type1Spec, Type1Variant, build_type1
from .type2 import (Layout, QcsSpec, QcsVariant, build_qcs,
                    expected_component_rank)

# Type-I codes with p = 4n + 1: (n, N, K, d_min, d_dagger).
# The n = 1 row is the perfect five-qubit code.  At ``BUDGET`` the proof
# settles the n <= 7 rows and the n = 9 d_dagger; the other cells are
# upper-bound checks.
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

# Length-21 quasi-cyclic codes: (layout, removal, K, d_min).  Every
# distance is proven exact.
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
    ``tag`` exactly as the distance engine tags it at
    ``analysis.DEFAULT_BUDGET`` (at the harness's smaller ``BUDGET``,
    p = 37 d_min stays a bound).  ``evidence`` names the refutation, which
    the test suite re-checks:

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
    Erratum("I", 37, "d_min", 12, 11, "exact", "witness",
            witness="IIIIIIIIXIIIZZIYIIIIXIIYIXZYIXIIIYIII"),
    Erratum("II", 71, "d_dagger", 16, 12, "exact", "witness",
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


def _table_1():
    for n, N, K, dmin_tab, ddag_tab in TABLE_I:
        code = build_type1(Type1Spec(classify_prime(N), Type1Variant.PLUS_FORM))
        yield (f"[[{N},{K},{dmin_tab}]]", code,
               {"N": N, "K": K, "rank": N - K, "d_min": dmin_tab, "d_dagger": ddag_tab})


def _table_2():
    for n, N, K, dmin_tab, ddag_tab in TABLE_II:
        code = build_type1(Type1Spec(classify_prime(N), Type1Variant.RESIDUE_PAIR))
        yield (f"[[{N},{K},{dmin_tab}]]", code,
               {"N": N, "K": K, "d_min": dmin_tab, "d_dagger": ddag_tab})


def _table_3():
    for n, variant, p, k, N, K, removal, layout in TABLE_III:
        spec = QcsSpec(classify_prime(p), QcsVariant(variant),
                       Layout(layout) if layout else Layout.H1_ADJ2,
                       tuple(removal) if removal else None)
        yield (f"[[{N},{K}]] qcs-{variant.lower()} p={p}", build_qcs(spec),
               {"N": N, "K": K,
                "component rank": expected_component_rank(spec.ctx, spec.variant)})


def _table_4():
    ctx = classify_prime(7)
    for layout, removal, K, dmin_tab in TABLE_IV:
        code = build_qcs(QcsSpec(ctx, QcsVariant.A, Layout(layout), tuple(removal)))
        yield (f"[[21,{K},{dmin_tab}]] {layout} remove {list(removal)}", code,
               {"K": K, "d_min": dmin_tab})


# Each table yields (row label, code, {field: published value}) per row.
_TABLES = {1: _table_1, 2: _table_2, 3: _table_3, 4: _table_4}

_COUNTS = {
    "N": lambda code: code.n_qubits,
    "K": lambda code: code.k_logical,
    "rank": lambda code: code.m,
    "component rank": lambda code: code.provenance["rank_plain_half"],
}
_DISTANCES = {"d_min": d_min, "d_dagger": d_dagger}
# every distance runs at these settings: BUDGET caps both the proof's elements
# formed and the search's candidates (the p = 71 erratum was first found there)
BUDGET, SEED = 2_000_000, 0


def check_table(which: int) -> list[CellDiff]:
    """Rebuild every row of Table ``which`` and diff each checked cell.

    A distance cell is checked as its tag says: an exact value must equal
    the table, an upper bound (field suffixed "(bound)") must not exceed it.
    """
    if which not in _TABLES:
        raise InvalidParameters(f"table number must be 1..4, got {which}")
    diffs: list[CellDiff] = []
    for row, code, cells in _TABLES[which]():
        for field, expected in cells.items():
            if field in _COUNTS:
                got, kind = _COUNTS[field](code), "exact"
            else:
                dist = _DISTANCES[field](code, budget=BUDGET, seed=SEED)
                got, kind = dist.value, dist.tag
                if not dist.is_exact:
                    field = f"{field}(bound)"
            if not (got == expected if kind == "exact" else got <= expected):
                diffs.append(CellDiff(row, field, got, expected, kind))
    return diffs
