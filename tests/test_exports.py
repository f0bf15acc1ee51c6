"""Every name a package exports resolves."""

import pytest


@pytest.mark.parametrize("package", ["liequant", "liequant.hquant"])
def test_star_import_resolves_every_exported_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    exported = __import__(package, fromlist=["__all__"]).__all__
    assert [name for name in exported if name not in namespace] == []
