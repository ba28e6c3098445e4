import pytest

from helpers import resolution_k_polynomial_matches
from quasidegrees import homology


@pytest.fixture
def k_polynomial_checked_resolutions(monkeypatch):
    """Every resolution a presentation builds for itself (for Ext, qlc or
    its dimension) must pass the K-polynomial check."""
    build = homology.free_resolution

    def checked(P):
        res = build(P)
        assert resolution_k_polynomial_matches(res)
        return res

    monkeypatch.setattr(homology, "free_resolution", checked)
