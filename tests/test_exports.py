"""The package's public name list."""

from collections import Counter

import survsteiner


def test_every_exported_name_resolves_once():
    repeated = [name for name, seen in Counter(survsteiner.__all__).items() if seen > 1]
    assert repeated == []
    missing = [name for name in survsteiner.__all__ if not hasattr(survsteiner, name)]
    assert missing == []
