"""The package namespace: every name in canonsr.__all__ must exist.

A stale entry in __all__ fails only at `from canonsr import *`, which no
other test does, so it is checked here.
"""

import canonsr


def test_every_exported_name_resolves_and_star_import_succeeds():
    assert [name for name in canonsr.__all__ if not hasattr(canonsr, name)] == []
    namespace = {}
    exec("from canonsr import *", namespace)
    assert set(canonsr.__all__) <= set(namespace)
