"""Shared helpers: full-pipeline analyses are cached per (surface, resolution).

The heavier acceptance checks reuse the same reports, so each surface is
solved once per resolution for the whole session.
"""

import numpy as np
import pytest

from corruga.analysis import run_analysis
from corruga.chart import builtin_chart

_reports: dict = {}


def analysis_bundle(name: str, resolution: int) -> dict:
    key = (name, resolution)
    if key not in _reports:
        _reports[key] = run_analysis(builtin_chart(name),
                                     resolution=resolution)
    return _reports[key]


@pytest.fixture(name="analysis_bundle")
def analysis_bundle_fixture():
    return analysis_bundle


def membrane_reps(report: dict) -> list:
    return [m for m in report["modes"] if m["id"].startswith("membrane")]


def bending_reps(report: dict) -> list:
    return [m for m in report["modes"] if m["id"].startswith("bending")]


def adjugate_residual(E, chi) -> float:
    """The orthogonality residual as tr(adj(E) chi): a second form of
    E11 chi22 - 2 E12 chi12 + E22 chi11 to check that one against."""
    E = np.asarray(E, dtype=float)
    adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
    return float(np.trace(adj @ np.asarray(chi, dtype=float)))
