"""The package's public names."""

import corruga


def test_every_exported_name_resolves():
    missing = [name for name in corruga.__all__
               if not hasattr(corruga, name)]
    assert missing == []
    assert len(set(corruga.__all__)) == len(corruga.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from corruga import *", namespace)
    assert set(corruga.__all__) <= set(namespace)
