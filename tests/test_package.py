from collections import Counter

import homefetch


def test_all_names_exist_once():
    """Every public name is exported exactly once, and a star import works."""
    repeated = [n for n, k in Counter(homefetch.__all__).items() if k > 1]
    assert repeated == []
    assert [n for n in homefetch.__all__ if not hasattr(homefetch, n)] == []
    scope: dict = {}
    exec("from homefetch import *", scope)
    assert set(homefetch.__all__) <= set(scope)
