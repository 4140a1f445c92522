import hallq


def test_all_exports_resolve():
    missing = [name for name in hallq.__all__ if not hasattr(hallq, name)]
    assert not missing
