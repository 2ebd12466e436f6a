"""Every ``repro.obs`` text view renders its committed inputs to the
committed text, byte for byte (see ``tests/obs/pinned_views.py``)."""

import pytest

from tests.obs.pinned_views import RENDERERS, VIEWS, render


@pytest.mark.parametrize("view", sorted(RENDERERS))
def test_view_matches_pinned_text(view):
    assert render(view) == (VIEWS / f"{view}.txt").read_text(encoding="utf-8")
