import pytest

from qrstab.errors import NotPrime, UnsupportedModulus
from qrstab.numtheory import (Form, classify_prime, is_prime, legendre,
                              smallest_primitive_root)

PRIMES_TO_200 = [p for p in range(3, 201) if is_prime(p)]


def test_classify_7():
    ctx = classify_prime(7)
    assert ctx.form is Form.FOUR_N_MINUS_1
    assert ctx.n == 2
    assert ctx.qr == (1, 2, 4)
    assert ctx.qnr == (3, 5, 6)


def test_classify_13():
    ctx = classify_prime(13)
    assert ctx.form is Form.FOUR_N_PLUS_1
    assert ctx.n == 3
    assert ctx.qr == (1, 3, 4, 9, 10, 12)


def test_classify_5_brute_force():
    # oracle: squares of 1..4 mod 5
    assert sorted({i * i % 5 for i in range(1, 5)}) == [1, 4]
    ctx = classify_prime(5)
    assert ctx.form is Form.FOUR_N_PLUS_1
    assert ctx.n == 1
    assert ctx.qr == (1, 4)


def test_rejects_composites_and_two():
    with pytest.raises(NotPrime):
        classify_prime(4)
    with pytest.raises(NotPrime):
        classify_prime(1)
    with pytest.raises(UnsupportedModulus):
        classify_prime(2)
    with pytest.raises(UnsupportedModulus):
        classify_prime((1 << 31) + 11)


def test_modulus_limit():
    # the smallest prime past the 2**20 limit
    with pytest.raises(UnsupportedModulus):
        classify_prime(1048583)


def test_legendre_examples():
    assert legendre(2, classify_prime(7)) == 1
    assert legendre(12, classify_prime(13)) == 1
    assert legendre(0, classify_prime(7)) == 0
    assert legendre(3, classify_prime(7)) == -1


@pytest.mark.parametrize("p", [p for p in PRIMES_TO_200 if p <= 50] + [10_007])
def test_legendre_matches_euler_criterion(p):
    ctx = classify_prime(p)
    for a in range(p):
        euler = pow(a, (p - 1) // 2, p)
        expect = 0 if euler == 0 else (1 if euler == 1 else -1)
        assert legendre(a, ctx) == expect


def test_beta_powers_examples():
    assert list(classify_prime(7).beta_powers) == [2, 4, 1]
    assert list(classify_prime(13).beta_powers) == [4, 3, 12, 9, 10, 1]
    ctx5 = classify_prime(5)
    assert (ctx5.alpha, ctx5.beta) == (2, 4)
    assert list(ctx5.beta_powers) == [4, 1]


def test_is_prime_matches_a_sieve():
    # oracle: the sieve of Eratosthenes up to 10^5
    limit = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    assert ([n for n in range(-5, limit + 1) if is_prime(n)]
            == [n for n in range(limit + 1) if sieve[n]])


@pytest.mark.parametrize("n", [561, 1105, 41041,        # Carmichael numbers
                               2047, 3277, 25326001])  # strong pseudoprimes
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_near_the_modulus_limit():
    assert is_prime((1 << 31) - 1)       # Mersenne prime M31
    assert not is_prime(46337 * 46337)   # square of a prime, just below 2^31
    assert not is_prime((1 << 31) - 3)   # divisible by 5


@pytest.mark.parametrize("p", PRIMES_TO_200)
def test_context_invariants(p):
    ctx = classify_prime(p)
    qr, qnr = set(ctx.qr), set(ctx.qnr)
    assert len(qr) == len(qnr) == ctx.k == (p - 1) // 2
    assert qr | qnr == set(range(1, p)) and not (qr & qnr)
    assert set(ctx.beta_powers) == qr
    for i in range(1, ctx.k + 1):
        assert ctx.beta_powers[i - 1] == pow(ctx.beta, i, p)
    # first supplement: -1 is a residue exactly for p = 4n + 1
    assert ((p - 1) in qr) == (ctx.form is Form.FOUR_N_PLUS_1)
    # second supplement for p = 4n - 1: 2 is a residue iff n even
    if ctx.form is Form.FOUR_N_MINUS_1:
        assert (2 in qr) == (ctx.n % 2 == 0)


@pytest.mark.parametrize("p", PRIMES_TO_200)
def test_multiplicative_closure(p):
    ctx = classify_prime(p)
    qr, qnr = set(ctx.qr), set(ctx.qnr)
    for i in range(1, ctx.k + 1):
        b = pow(ctx.beta, i, p)
        assert {b * r % p for r in qr} == qr
        assert {b * r % p for r in qnr} == qnr
    # residue * residue and nonresidue * nonresidue land in qr,
    # mixed products land in qnr
    for a in qr:
        assert all(a * b % p in qr for b in qr)
        assert all(a * b % p in qnr for b in qnr)
    some_qnr = next(iter(qnr))
    assert all(some_qnr * b % p in qr for b in qnr)


def test_primitive_root_is_smallest():
    # oracle: exhaustive order computation for small primes
    for p in (5, 7, 11, 13, 23):
        for g in range(2, p):
            if len({pow(g, e, p) for e in range(1, p)}) == p - 1:
                assert smallest_primitive_root(p) == g
                break


def test_determinism():
    a = classify_prime(29)
    b = classify_prime(29)
    assert a is b  # cached
    assert a.alpha == smallest_primitive_root(29)
