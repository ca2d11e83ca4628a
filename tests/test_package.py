import qrstab


def test_every_export_resolves():
    missing = [name for name in qrstab.__all__ if not hasattr(qrstab, name)]
    assert not missing
    assert len(set(qrstab.__all__)) == len(qrstab.__all__)
