import os
import re

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


def test_readme_library_sketch_runs():
    """The README's `python` block runs as written (a 200-step pulse and
    two iterations on the paper trap)."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as handle:
        blocks = re.findall(r"```python\n(.*?)```", handle.read(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
