"""Quasi-cyclic stabilizer codes of length N = p*k, built by placing a
quadratic residue set into Latin-square proto-matrices and lifting every
cell with circulant permutation matrices.

Two families:

* variant A (p = 4n - 1): both proto-matrices are symmetric Latin squares,
  the second being the elementwise negation of the first; commutativity
  requires adjoining exponent 0 to every cell on one side, and either side
  may carry the adjunct (four layouts).
* variant B (p = 4n + 1): the first proto-matrix cycles right, the second is
  gamma = min(non-residues) times the left-cycling square; no adjunct.

Row removal turns the (rank-deficient) lifted matrix into an independent
generator set; the three stock removal procedures reproduce the published
code dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .code import StabilizerCode, commuting_generators, zero_based_rows
from .errors import WrongForm
from .gf2 import lift
from .numtheory import Form, QrContext


class QcsVariant(Enum):
    A = "A"
    B = "B"


class Layout(Enum):
    """Which half sits left and which half carries the exponent-0 adjunct."""

    H1_ADJ2 = "h1-adj2"   # [H1 | H2+adj]
    ADJ2_H1 = "adj2-h1"   # [H2+adj | H1]
    ADJ1_H2 = "adj1-h2"   # [H1+adj | H2]
    H2_ADJ1 = "h2-adj1"   # [H2 | H1+adj]


@dataclass(frozen=True)
class ProtoMatrix:
    """k x k array of exponent sets mod p; singletons before adjunction,
    two-element cells after."""

    p: int
    k: int
    cells: tuple[tuple[frozenset[int], ...], ...]

    def adjoin_zero(self) -> "ProtoMatrix":
        return ProtoMatrix(self.p, self.k, tuple(
            tuple(cell | {0} for cell in row) for row in self.cells))

    def is_latin_square(self) -> bool:
        """Each row and column repeats no element (singleton layers only)."""
        vals = [[next(iter(c)) for c in row] for row in self.cells]
        if any(len(c) != 1 for row in self.cells for c in row):
            return False
        universe = set(vals[0])
        for i in range(self.k):
            if set(vals[i]) != universe:
                return False
            if {vals[r][i] for r in range(self.k)} != universe:
                return False
        return True

    def is_commutative(self) -> bool:
        return all(self.cells[i][j] == self.cells[j][i]
                   for i in range(self.k) for j in range(self.k))


@dataclass(frozen=True)
class QcsSpec:
    ctx: QrContext
    variant: QcsVariant
    layout: Layout = Layout.H1_ADJ2
    removed_rows: tuple[int, ...] | None = None  # 1-based; None -> stock policy


def _singleton_proto(p: int, k: int, rows: list[list[int]]) -> ProtoMatrix:
    return ProtoMatrix(p, k, tuple(
        tuple(frozenset({v % p}) for v in row) for row in rows))


def build_proto_qcs_a(ctx: QrContext) -> tuple[ProtoMatrix, ProtoMatrix]:
    """Variant-A proto pair: row i of the first square is the i-th left
    cyclic shift of the residue list in generator order; the second square
    is its elementwise negation mod p."""
    if ctx.form is not Form.FOUR_N_MINUS_1:
        raise WrongForm(f"variant A requires p = 4n-1, got p = {ctx.p}")
    base = list(ctx.beta_powers)
    k, p = ctx.k, ctx.p
    h1 = [[base[(j + i) % k] for j in range(k)] for i in range(k)]
    h2 = [[(p - v) % p for v in row] for row in h1]
    return _singleton_proto(p, k, h1), _singleton_proto(p, k, h2)


def build_proto_qcs_b(ctx: QrContext) -> tuple[ProtoMatrix, ProtoMatrix]:
    """Variant-B proto pair: the first square cycles right; the second is
    gamma = min(non-residues) times the left-cycling square, so its first
    row is the non-residue list aligned with the residue list."""
    if ctx.form is not Form.FOUR_N_PLUS_1:
        raise WrongForm(f"variant B requires p = 4n+1, got p = {ctx.p}")
    base = list(ctx.beta_powers)
    k, p = ctx.k, ctx.p
    gamma = min(ctx.qnr)
    h1 = [[base[(j - i) % k] for j in range(k)] for i in range(k)]
    h2 = [[gamma * base[(j + i) % k] % p for j in range(k)] for i in range(k)]
    return _singleton_proto(p, k, h1), _singleton_proto(p, k, h2)


def arrange(spec: QcsSpec) -> tuple[ProtoMatrix, ProtoMatrix]:
    """(left, right) proto-matrices after applying the layout's adjunct."""
    if spec.variant is QcsVariant.A:
        h1, h2 = build_proto_qcs_a(spec.ctx)
        if spec.layout is Layout.H1_ADJ2:
            return h1, h2.adjoin_zero()
        if spec.layout is Layout.ADJ2_H1:
            return h2.adjoin_zero(), h1
        if spec.layout is Layout.ADJ1_H2:
            return h1.adjoin_zero(), h2
        return h2, h1.adjoin_zero()
    h1, h2 = build_proto_qcs_b(spec.ctx)
    return h1, h2  # variant B: single layout, no adjunct


def default_removal(ctx: QrContext, variant: QcsVariant) -> list[int]:
    """Stock row-removal policy, as 1-based rows of the p*k-row lifted matrix.

    Arrays are the k consecutive p-row bands; the row at (0-based) shift s
    of array a is global row a*p + s + 1.  Policy:

    1. odd n and 3 | k (variant A only): drop the whole last array, then the
       last row of each of the first k - 2 remaining arrays;
    2. odd n otherwise: drop the last row of each of the first k - 1 arrays;
    3. even n: from array a < k - 1 drop the two rows at shifts a and a + 1,
       and from the last array the row at shift k - 1.

    Not every procedure-shaped choice leaves the retained rows independent;
    the staggered case-3 pattern does for every even-n prime up to 29 (the
    aligned last-row choice does not, failing already at p = 7).  Case 1 is
    variant A only because variant-B ranks follow the plain odd/even split
    regardless of divisibility.
    """
    p, k, n = ctx.p, ctx.k, ctx.n
    rows: list[int] = []
    if n % 2 == 1 and k % 3 == 0 and variant is QcsVariant.A:
        rows += [(k - 1) * p + r for r in range(1, p + 1)]
        rows += [a * p + p for a in range(k - 2)]
    elif n % 2 == 1:
        rows += [a * p + p for a in range(k - 1)]
    else:
        for a in range(k - 1):
            rows += [a * p + (a % p) + 1, a * p + ((a + 1) % p) + 1]
        rows += [(k - 1) * p + ((k - 1) % p) + 1]
    return sorted(rows)


def expected_component_rank(ctx: QrContext, variant: QcsVariant) -> int:
    """Closed-form rank of the lifted plain (non-adjunct) half."""
    p, k, n = ctx.p, ctx.k, ctx.n
    if variant is QcsVariant.A and n % 2 == 1 and k % 3 == 0:
        return k * (p - 3) + 1
    if n % 2 == 1:
        return k * (p - 1) + 1
    return k * (p - 2) + 1


def build_qcs(spec: QcsSpec) -> StabilizerCode:
    """Lift both halves, verify commutativity, remove rows, and return the
    code spanned by the retained rows.

    The retained rows must be linearly independent (DependentRows otherwise);
    K = p*k - (number of retained rows).  The full-matrix rank and the
    plain-half rank are recorded in the provenance for auditability: the
    closed forms describe the plain half, and the joint rank can exceed it.
    """
    ctx = spec.ctx
    left_proto, right_proto = arrange(spec)
    n_rows = ctx.p * ctx.k
    removed = (list(spec.removed_rows) if spec.removed_rows is not None
               else default_removal(ctx, spec.variant))
    dropped = set(zero_based_rows(removed, n_rows) if removed else ())
    left, right = lift(ctx.p, left_proto.cells), lift(ctx.p, right_proto.cells)
    sub, _ = commuting_generators(
        left, right, [i for i in range(n_rows) if i not in dropped],
        f"QCS-{spec.variant.value}, p = {ctx.p}")
    # one elimination with the plain half (cells still singletons) first: a
    # pivot is its row's lowest set bit, so rows pivoting past the plain
    # columns are zero on them, and the plain rank counts the pivots there
    plain_left = all(len(c) == 1 for row in left_proto.cells for c in row)
    pivots = (left.hstack(right) if plain_left else right.hstack(left)).rref().pivot_cols
    return StabilizerCode(
        n_qubits=n_rows,
        h=sub,
        family=f"qcs-{spec.variant.value.lower()}",
        provenance={
            "p": ctx.p,
            "n": ctx.n,
            "k": ctx.k,
            "variant": spec.variant.value,
            "layout": spec.layout.value if spec.variant is QcsVariant.A else None,
            "removed_rows": sorted(removed),
            "rank_full": len(pivots),
            "rank_plain_half": sum(c < n_rows for c in pivots),
        },
    )
