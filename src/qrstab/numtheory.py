"""Quadratic residue machinery for odd primes p = 4n +/- 1.

Everything downstream is built from a :class:`QrContext`: the residue and
non-residue sets of a prime modulus together with a primitive root ``alpha``
and the residue-set generator ``beta = alpha**2 mod p``.  The primitive root
is always the smallest one, so contexts (and every matrix derived from them)
are reproducible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import NotPrime, UnsupportedModulus

# the residue context holds O(p) Python ints: 1.6 s and ~200 MB just below 2**20
_MAX_MODULUS = 1 << 20


class Form(Enum):
    """Residue class of p mod 4, written as 4n - 1 or 4n + 1."""

    FOUR_N_MINUS_1 = "4n-1"
    FOUR_N_PLUS_1 = "4n+1"


def _factor(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """True iff n is its own only prime factor."""
    return n >= 2 and _factor(n) == [n]


def smallest_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p (p prime)."""
    order = p - 1
    factors = _factor(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")  # pragma: no cover


@dataclass(frozen=True)
class QrContext:
    """A prime p = 4n +/- 1 with its quadratic residue structure.

    ``qr`` and ``qnr`` are sorted tuples; ``beta_powers`` lists the residues
    in generator order, entry i being beta**(i+1) mod p.
    """

    p: int
    n: int
    form: Form
    alpha: int
    beta: int
    k: int
    qr: tuple[int, ...]
    qnr: tuple[int, ...]
    beta_powers: tuple[int, ...] = field(repr=False)


@lru_cache(maxsize=None)
def classify_prime(p: int) -> QrContext:
    """Build the residue context for an odd prime p.

    Raises NotPrime for composites and UnsupportedModulus for p = 2 or
    p >= 2**20.
    """
    if p == 2:
        raise UnsupportedModulus("p = 2 has no quadratic residue structure")
    if p >= _MAX_MODULUS:
        raise UnsupportedModulus(f"p = {p} exceeds the supported range (< 2**20)")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")

    k = (p - 1) // 2
    if p % 4 == 3:
        form, n = Form.FOUR_N_MINUS_1, (p + 1) // 4
    else:
        form, n = Form.FOUR_N_PLUS_1, (p - 1) // 4
    alpha = smallest_primitive_root(p)
    beta = alpha * alpha % p
    qr = sorted({i * i % p for i in range(1, p)})
    qnr = sorted(set(range(1, p)) - set(qr))
    powers = []
    x = 1
    for _ in range(k):
        x = x * beta % p
        powers.append(x)
    ctx = QrContext(p=p, n=n, form=form, alpha=alpha, beta=beta, k=k,
                    qr=tuple(qr), qnr=tuple(qnr), beta_powers=tuple(powers))
    _check_context(ctx)
    return ctx


def _check_context(ctx: QrContext) -> None:
    # cheap structural invariants; failures would be construction bugs
    assert len(ctx.qr) == len(ctx.qnr) == ctx.k
    assert set(ctx.qr) | set(ctx.qnr) == set(range(1, ctx.p))
    assert set(ctx.beta_powers) == set(ctx.qr)


def legendre(a: int, ctx: QrContext) -> int:
    """+1 if a is a nonzero square mod p, -1 if a nonsquare, 0 if a = 0 mod p."""
    a %= ctx.p
    if a == 0:
        return 0
    i = bisect_left(ctx.qr, a)
    return 1 if i < ctx.k and ctx.qr[i] == a else -1
