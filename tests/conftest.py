"""Every test starts with no built model kept.

``modelfile`` keeps the models of the texts a process has read; a test
that counts work, or patches a function a build calls, would otherwise
see what an earlier test left there.
"""

import pytest

from equiblow import modelfile


@pytest.fixture(autouse=True)
def no_kept_models(monkeypatch):
    monkeypatch.setattr(modelfile, "_built", {})
