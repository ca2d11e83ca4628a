import pytest

import qrstab.tables as tables
from qrstab.errors import InvalidParameters
from qrstab.tables import check_table


def test_table_1_checks_p29_exactly(monkeypatch):
    rows = [r for r in tables.TABLE_I if r[1] <= 29]
    n, N, K, _, ddag = rows[-1]
    assert N == 29
    rows[-1] = (n, N, K, 10, ddag)  # the published d_min is 11
    monkeypatch.setattr(tables, "TABLE_I", rows)
    diffs = check_table(1)
    assert len(diffs) == 1
    (diff,) = diffs
    assert (diff.field, diff.got, diff.expected, diff.kind) == ("d_min", 11, 10, "exact")
    assert str(diff) == "[[29,1,10]]: d_min got 11, expected == 10"


@pytest.mark.parametrize("which", [0, 5, -1])
def test_unknown_table_is_invalid(which):
    with pytest.raises(InvalidParameters):
        check_table(which)
