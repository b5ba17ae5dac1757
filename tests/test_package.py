import collections

import steinmac


def test_public_names_resolve_once():
    # every exported name is bound in the package, and none is listed twice
    missing = [name for name in steinmac.__all__ if not hasattr(steinmac, name)]
    assert missing == []
    twice = [name for name, n in collections.Counter(steinmac.__all__).items() if n > 1]
    assert twice == []
