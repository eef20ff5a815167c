"""Property tests over random surfaces.

Every random surface gives a decisive report that is consistent with
itself, a report flagged ambiguous (exit 3), or a clean exit 1.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from corruga import cli
from corruga.chart import DOUBLE_CORRUGATION, MIURA_LIKE, SIMPLE_CORRUGATION
from corruga.profiles import PIECEWISE_LINEAR, PIECEWISE_QUADRATIC, SINUSOIDAL

PROFILE_COUNT = {SIMPLE_CORRUGATION: 1, DOUBLE_CORRUGATION: 2, MIURA_LIKE: 2}
KINDS = (PIECEWISE_LINEAR, PIECEWISE_QUADRATIC, SINUSOIDAL)


@st.composite
def surface_configs(draw):
    family = draw(st.sampled_from(sorted(PROFILE_COUNT)))
    factor = draw(st.floats(0.25, 4.0))
    kinds = draw(st.lists(st.sampled_from(KINDS),
                          min_size=PROFILE_COUNT[family],
                          max_size=PROFILE_COUNT[family]))
    return {"family": family,
            "profiles": [{"kind": k, "amplitude": factor} for k in kinds]}


def analyze(cfg, resolution, *options):
    """(exit code, report) of one `corruga analyze` run; no report at exit
    1, which must leave no output behind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "surface.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "run"
        code = cli.main(["analyze", "--surface", str(path), "--resolution",
                         str(resolution), "--out", str(out), *options])
        if code == 1:
            assert not out.exists()
            return code, None
        return code, json.loads((out / "report.json").read_text())


def assert_consistent(code, report):
    """An ambiguous cut says so; a decisive one keeps the rank bound, lists
    one mode per dimension and pairs them within the identity's bound."""
    if code == 3:
        assert report["threshold"]["ambiguous"]
        return
    assert code == 0
    dims = report["dims"]
    assert dims["sum"] == dims["membrane"] + dims["bending"] <= 3
    assert dims["rank_bound_ok"]
    assert len(report["modes"]) == dims["sum"]
    # the identity holds in the limit; its discretization error decays like
    # h^2 (builtin eggbox-hybrid: 2.3e-2 at 16, 6.4e-3 at 32, 1.7e-3 at 64)
    h = report["resolution"]["h_max"]
    assert all(abs(p["residual_rel"]) <= h ** 2 for p in report["pairs"])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cfg=surface_configs(), resolution=st.integers(8, 12))
def test_random_surface_gives_consistent_report_or_exit_1(cfg, resolution):
    code, report = analyze(cfg, resolution)
    if code != 1:
        assert_consistent(code, report)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cfg=surface_configs(), resolution=st.integers(8, 12),
       tau=st.floats(1e-6, 0.2))
# a fixed cut that keeps 3 bending levels whose chi span only 2 dimensions
@example(cfg={"family": MIURA_LIKE,
              "profiles": [{"kind": PIECEWISE_QUADRATIC, "amplitude": 4.0},
                           {"kind": PIECEWISE_LINEAR, "amplitude": 4.0}]},
         resolution=12, tau=0.03)
def test_fixed_threshold_lists_one_mode_per_dimension(cfg, resolution, tau):
    code, report = analyze(cfg, resolution, "--threshold", str(tau))
    if code != 1:
        assert_consistent(code, report)
