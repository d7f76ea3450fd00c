import iontrapsim


def test_every_export_resolves():
    """Every name in `__all__` exists, once, and a star import binds them
    all; a name left behind by a deletion fails here."""
    exports = iontrapsim.__all__
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if not hasattr(iontrapsim, name)] == []
    namespace = {}
    exec("from iontrapsim import *", namespace)
    assert set(exports) <= set(namespace)
