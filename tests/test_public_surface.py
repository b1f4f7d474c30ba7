"""Every name the package exports by ``__all__`` is bound by ``import *``."""

import idepcag


def test_all_names_resolve_once():
    namespace = {}
    exec("from idepcag import *", namespace)
    assert [name for name in idepcag.__all__ if name not in namespace] == []
    assert len(set(idepcag.__all__)) == len(idepcag.__all__)
