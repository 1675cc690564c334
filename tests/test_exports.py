"""Every name the package and its evaluation module export resolves."""

from __future__ import annotations

import pytest

import relapsekit
import relapsekit.evaluate


@pytest.mark.parametrize("module", [relapsekit, relapsekit.evaluate], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
