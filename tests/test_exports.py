"""Every name a sliceminer module exports in ``__all__`` exists on it."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["sliceminer", "sliceminer.cli", "sliceminer.dataset",
           "sliceminer.dtree", "sliceminer.hpd", "sliceminer.model",
           "sliceminer.oracle", "sliceminer.report", "sliceminer.slicer",
           "sliceminer.stats"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []
