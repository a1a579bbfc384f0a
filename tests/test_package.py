"""The package's public names."""

import semidense


def test_every_exported_name_resolves():
    namespace = {}
    exec("from semidense import *", namespace)  # raises on a listed name that is gone
    for name in semidense.__all__:
        assert namespace[name] is getattr(semidense, name)
