"""Cyclic stabilizer codes of length N = p built from the characteristic
polynomials of quadratic residue sets.

For p = 4n - 1 the pair is (complement of the residue set | residue set),
giving [[p, k, 2]] codes when n is even and trivial [[p, 0]] codes when n is
odd.  For p = 4n + 1 with odd n the pair (non-residues | residues) gives a
[[p, 1]] code; the even-n case is unproven territory and is refused unless
explicitly forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .code import StabilizerCode, commuting_generators, zero_based_rows
from .errors import UnsupportedForm
from .gf2 import SupportPoly, circulant, support_poly
from .numtheory import Form, QrContext


class Type1Variant(Enum):
    # names refer to which residue class supplies the Z-side circulant
    RESIDUE_PAIR = "residue-pair"        # p = 4n-1: (complement of QR | QR)
    NONRESIDUE_PAIR = "nonresidue-pair"  # p = 4n-1: (complement of QNR | QNR)
    PLUS_FORM = "plus-form"              # p = 4n+1: (QNR | QR)


@dataclass(frozen=True)
class Type1Spec:
    ctx: QrContext
    variant: Type1Variant
    row_subset: tuple[int, ...] | None = None  # 1-based override
    force: bool = False  # allow even-n plus-form, guarded by a SIP check


@dataclass(frozen=True)
class Idempotents:
    """The four characteristic polynomials over F2[x]/(x^p - 1)."""

    residues: SupportPoly             # support = QR
    nonresidues: SupportPoly          # support = QNR
    residue_complement: SupportPoly   # support = {0} | QNR
    nonresidue_complement: SupportPoly  # support = {0} | QR


def idempotents(ctx: QrContext) -> Idempotents:
    p = ctx.p
    return Idempotents(
        residues=support_poly(p, ctx.qr),
        nonresidues=support_poly(p, ctx.qnr),
        residue_complement=support_poly(p, (0, *ctx.qnr)),
        nonresidue_complement=support_poly(p, (0, *ctx.qr)),
    )


def default_variant(ctx: QrContext) -> Type1Variant:
    if ctx.form is Form.FOUR_N_MINUS_1:
        return Type1Variant.RESIDUE_PAIR
    return Type1Variant.PLUS_FORM


def half_polys(spec: Type1Spec) -> tuple[SupportPoly, SupportPoly]:
    """The (X-side, Z-side) circulant polynomials for the chosen variant.

    The plus-form pair is (non-residues | residues): with this orientation
    the reduced generators match the standard-form conventions used for the
    [[13, 1, 5]] logical operators.  Swapping the halves relabels X and Z
    and changes no rank, weight, or distance.
    """
    v = spec.variant
    form = Form.FOUR_N_PLUS_1 if v is Type1Variant.PLUS_FORM else Form.FOUR_N_MINUS_1
    if spec.ctx.form is not form:
        raise UnsupportedForm(f"{v.value} requires p = {form.value}, got p = {spec.ctx.p}")
    idem = idempotents(spec.ctx)
    if v is Type1Variant.RESIDUE_PAIR:
        return idem.residue_complement, idem.residues
    if v is Type1Variant.NONRESIDUE_PAIR:
        return idem.nonresidue_complement, idem.nonresidues
    if spec.ctx.n % 2 == 0 and not spec.force:
        raise UnsupportedForm(
            f"plus-form with even n (p = {spec.ctx.p}) is not established; "
            "set the force option to construct anyway (a SIP check still applies)")
    return idem.nonresidues, idem.residues


def build_type1(spec: Type1Spec) -> StabilizerCode:
    """Construct the cyclic code for ``spec``.

    The full p x 2p circulant pair is formed, checked for commutativity, and
    reduced to an independent generating row subset: the deterministic
    first-wins subset unless ``row_subset`` (1-based rows of the full
    circulant) overrides it.  K = p - (number of generators kept).
    """
    ctx = spec.ctx
    left, right = half_polys(spec)
    rows = None if spec.row_subset is None else zero_based_rows(spec.row_subset, ctx.p)
    sub, rows = commuting_generators(circulant(left), circulant(right), rows,
                                     f"type1 {spec.variant.value}, p = {ctx.p}")
    return StabilizerCode(
        n_qubits=ctx.p,
        h=sub,
        family="type1",
        provenance={
            "p": ctx.p,
            "n": ctx.n,
            "k": ctx.k,
            "form": ctx.form.value,
            "variant": spec.variant.value,
            "row_subset": [r + 1 for r in rows],
            "trivial": ctx.p == len(rows),
        },
    )


def expected_component_ranks(ctx: QrContext) -> tuple[int, int]:
    """Closed-form circulant ranks (residues side, complement side).

    For p = 4n - 1: rank of the residue circulant is p - k for even n and p
    for odd n; the complement circulant always carries one fewer.
    """
    p, k = ctx.p, ctx.k
    if ctx.form is not Form.FOUR_N_MINUS_1:
        raise UnsupportedForm("closed-form ranks cover p = 4n-1 only")
    if ctx.n % 2 == 0:
        return p - k, p - k - 1
    return p, p - 1
