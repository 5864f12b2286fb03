"""Shared fixtures for the analysis tests."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.project import ProjectModel

PKG_ROOT = Path(repro.__file__).parent


@pytest.fixture(scope="session")
def shipped_model() -> ProjectModel:
    """One project model of the shipped package for the whole session.

    The shipped-tree gates pass it to ``analyze_paths(..., model=)``,
    whose reload re-parses only files that changed since, so the tree
    is parsed once instead of once per gate.
    """
    return ProjectModel([PKG_ROOT]).load()
