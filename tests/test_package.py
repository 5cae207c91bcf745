"""The package's public surface: every name in ``__all__`` is importable."""

import detequiv


def test_all_names_are_unique_and_bound():
    names = detequiv.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(detequiv, name)]
    assert missing == []
    namespace = {}
    exec("from detequiv import *", namespace)
    assert [name for name in names if name not in namespace] == []
