"""Effective membrane and bending behavior of periodic piecewise-smooth surfaces.

The package computes infinitesimal isometries of periodic surfaces
(corrugations, eggbox-like and Miura-like patterns, surfaces of
translation), extracts the homogeneous membrane strain E and bending
strain chi that each isometry induces on the period lattice, and checks
the trade-off identity

    E11*chi22 - 2*E12*chi12 + E22*chi11 = 0

together with its consequences (mode counting, Poisson ratio identity).
A small side module handles the warping of twisted thin-walled open
sections, the classical one-dimensional instance of the same isometry
argument.

Set CORRUGA_THREADS before importing to cap the BLAS and NumExpr thread
pools; it only takes effect if numpy is not yet loaded.  The console entry
point imports this package first, so the variable caps the CLI as well.
Importing the package first also sets OPENBLAS_THREAD_TIMEOUT to 4 unless
it is set already, so idle OpenBLAS workers go to sleep at once instead of
spinning for about 0.1 s after each BLAS call; this too applies only when
numpy and scipy have not yet loaded their OpenBLAS.
"""

import os as _os

_threads = _os.environ.get("CORRUGA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
# 2**4 cycles, OpenBLAS's smallest accepted idle wait before a worker sleeps
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .profiles import Profile, make_profile, profile_from_config
from .chart import (SurfaceChart, SpaceCurve, PeriodGeometry, builtin_chart,
                    evaluate_chart, chart_partials, period_geometry,
                    chart_from_config, chart_to_config, load_chart)
from .grid import PeriodicGrid, build_grid, cell_average
from .solver import (ConstraintSystem, RotationMode, assemble_system,
                     recover_deflection)
from .strains import (StrainSpaces,
                      effective_membrane_strain, effective_spaces,
                      classify_mode,
                      orthogonality_residual, poisson_ratios)
from .oracle import (AnalyticMode, MODE_IDS, analytic_mode, canonical_chart,
                     sample_rotation, make_trig_field,
                     symmetry_lemma_check, scaling_limit_check)
from .warping import (SectionCurve, section_from_points, warping_function,
                      dislocation)

__all__ = [
    "Profile", "make_profile", "profile_from_config",
    "SurfaceChart", "SpaceCurve", "PeriodGeometry", "builtin_chart",
    "evaluate_chart", "chart_partials", "period_geometry",
    "chart_from_config", "chart_to_config", "load_chart",
    "PeriodicGrid", "build_grid", "cell_average",
    "ConstraintSystem", "RotationMode",
    "assemble_system", "recover_deflection",
    "StrainSpaces",
    "effective_membrane_strain", "effective_spaces",
    "classify_mode", "orthogonality_residual", "poisson_ratios",
    "AnalyticMode", "MODE_IDS", "analytic_mode", "canonical_chart",
    "sample_rotation", "make_trig_field",
    "symmetry_lemma_check", "scaling_limit_check",
    "SectionCurve", "section_from_points", "warping_function", "dislocation",
]

__version__ = "0.1.0"
