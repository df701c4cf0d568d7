"""The package's public surface."""

import shorsim


def test_every_exported_name_resolves():
    missing = [name for name in shorsim.__all__
               if not hasattr(shorsim, name)]
    assert missing == []
