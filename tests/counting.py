"""Call counting for tests that pin how much work an operation does."""

import sys


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name``, wrapping it in every equiblow
    module that binds it.  The list returned gets the ``(args, kwargs)``
    of each call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for key, bound in list(sys.modules.items()):
        if key.split(".")[0] == "equiblow" and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls
