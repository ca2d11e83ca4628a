import math

import pytest

from qrstab.bounds import (asymptotic_curves, binary_entropy, css_gv_rate,
                           curves_csv, evaluate_bounds, gv_bound,
                           hamming_bound, singleton_bound)
from qrstab.errors import InvalidParameters


def sphere_oracle(n, radius):
    return sum(3 ** j * math.comb(n, j) for j in range(radius + 1))


def test_hamming_examples():
    ok, tight = hamming_bound(5, 1, 3)
    assert ok and tight
    assert sphere_oracle(5, 1) == 16 == 2 ** 4
    ok, tight = hamming_bound(13, 1, 5)
    assert sphere_oracle(13, 2) == 742
    assert ok and not tight
    ok, tight = hamming_bound(10, 3, 1)
    assert ok and not tight  # t = 0 always holds


def test_singleton_examples():
    assert singleton_bound(5, 1, 3) == (True, True)
    assert singleton_bound(13, 1, 5) == (True, False)  # 12 >= 8
    assert singleton_bound(5, 1, 5) == (False, False)


def test_gv_examples():
    assert sphere_oracle(10, 2) == 1 + 30 + 405
    assert gv_bound(10, 1, 3)
    assert gv_bound(21, 5, 4)
    assert not gv_bound(5, 1, 5)


def test_css_gv_rate():
    assert css_gv_rate(10, 1, 3)
    # tiny margin case: rate exactly at the curve value passes
    assert css_gv_rate(4, 4, 1)


def test_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15


def test_curves_at_zero_and_singleton_quarter():
    rows = asymptotic_curves(101)
    at_zero = [r for r in rows if r[1] == 0.0]
    assert len(at_zero) == 4 and all(abs(r[2] - 1.0) < 1e-12 for r in at_zero)
    singleton_quarter = [r for r in rows
                         if r[0] == "singleton" and abs(r[1] - 0.25) < 1e-12]
    assert singleton_quarter and abs(singleton_quarter[0][2]) < 1e-12


def test_hamming_curve_zero_crossing():
    # oracle: bisection on 1 - d*log2(3) - h2(d)
    lo, hi = 0.1, 0.3
    f = lambda d: 1 - d * math.log2(3) - binary_entropy(d)
    for _ in range(60):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    rows = [r for r in asymptotic_curves(2001) if r[0] == "hamming"]
    below = max(r for r in rows if r[1] < root)
    above = min(r for r in rows if r[1] > root)
    assert below[2] > 0 > above[2]


def test_hamming_lhs_monotone_in_t():
    last = 0
    for t in range(10):
        cur = sphere_oracle(64, t)
        assert cur >= last
        last = cur


def test_big_integer_exactness():
    ok, tight = hamming_bound(512, 1, 101)
    assert isinstance(ok, bool) and not tight
    assert sphere_oracle(512, 50) > 1 << 256  # would overflow floats


def test_hamming_implies_singleton_sampled():
    import numpy as np
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(2, 513))
        k = int(rng.integers(0, n))
        d = int(rng.integers(1, n + 2))
        if hamming_bound(n, k, d)[0]:
            assert singleton_bound(n, k, d)[0], (n, k, d)


def test_csv_shape():
    text = curves_csv(11)
    lines = text.strip().split("\n")
    assert lines[0] == "bound_name,delta_q,rate"
    assert len(lines) == 1 + 4 * 11
    name, delta, rate = lines[1].split(",")
    assert name == "hamming" and float(delta) == 0.0 and float(rate) == 1.0


def test_report_fields():
    rep = evaluate_bounds(5, 1, 3)
    assert rep.t == 1
    assert rep.hamming_tight and rep.singleton_tight
    assert set(rep.asymptotic_rates) == {"hamming", "gv", "css-gv", "singleton"}


@pytest.mark.parametrize("n,k,d", [(0, 0, 1), (5, 7, 3), (5, -1, 3), (5, 1, 0)])
def test_report_rejects_invalid_parameters(n, k, d):
    with pytest.raises(InvalidParameters):
        evaluate_bounds(n, k, d)


def test_curves_need_two_samples():
    with pytest.raises(InvalidParameters):
        asymptotic_curves(1)
