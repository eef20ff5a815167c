"""Property tests over random surfaces.

Every random surface gives a decisive report that is consistent with
itself, a report flagged ambiguous (exit 3), or a clean exit 1.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cfg=surface_configs(), resolution=st.integers(8, 12))
def test_random_surface_gives_consistent_report_or_exit_1(cfg, resolution):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "surface.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "run"
        code = cli.main(["analyze", "--surface", str(path), "--resolution",
                         str(resolution), "--out", str(out)])
        if code == 1:
            assert not out.exists()
            return
        report = json.loads((out / "report.json").read_text())
    if code == 3:       # an ambiguous cut: the report says so
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
