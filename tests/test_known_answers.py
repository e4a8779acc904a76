"""Known answers: a current invariant in mean but not pathwise.

The paper's two actions of a flow on 0-currents, the pathwise pullback
and its mean, differ on the circle with the gradient drift
sin(2*pi*x1) = -V'(x1), V = cos(2*pi*x1)/(2*pi), and additive noise
sigma = 0.5. The Gibbs density exp(-2V/sigma^2) solves L*rho = 0, so
its current is invariant in mean; V is not constant, so it is not
invariant pathwise. The volume current of the same flow is not
invariant in mean either. Each check runs through the config, with its
default tolerance and bias rule, at seed 0.
"""

import json

import pytest

from stochflow.cli import run
from stochflow.config import parse_config

GIBBS_DENSITY = "exp(-cos(2*pi*x1)/(pi*0.25))"

GIBBS_CIRCLE = """\
[manifold]
type = torus
lengths = 1

[fields]
drift = sin(2*pi*x1)
diffusion1 = 0.5

[current]
density = {density}
grid = 64

[check {kind}]
{keys}
"""

FLOW_KEYS = "basis_k = 3\nt = 0.5\ndt = 0.01\nseed = 0"
MEAN_ROUTES = {"mean_nform": "", "mean_residual": "basis_k = 3",
               "empirical_mean": f"{FLOW_KEYS}\npaths = 400"}
STRICT_ROUTES = {"strict_nform": "", "strict_residual": "basis_k = 3",
                 "empirical_pathwise": FLOW_KEYS}


def check_on_the_circle(tmp_path, kind, keys, density=GIBBS_DENSITY):
    """(exit code, the report's check) of one check of kind on the circle."""
    cfg = parse_config(GIBBS_CIRCLE.format(density=density, kind=kind, keys=keys))
    code = run(cfg, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    [check] = doc["payload"]["checks"]
    assert check["kind"] == kind
    return code, check


@pytest.mark.parametrize("kind", MEAN_ROUTES)
def test_the_gibbs_current_passes_every_mean_route(tmp_path, kind):
    code, check = check_on_the_circle(tmp_path, kind, MEAN_ROUTES[kind])
    assert code == 0 and check["verdict"] is True
    assert check["residual"] <= check["tolerance"]


@pytest.mark.parametrize("kind", STRICT_ROUTES)
def test_the_gibbs_current_fails_every_strict_route(tmp_path, kind):
    code, check = check_on_the_circle(tmp_path, kind, STRICT_ROUTES[kind])
    assert code == 2 and check["verdict"] is False
    # by far more than the tolerance: the density is not invariant pathwise
    assert check["residual"] > 10 * check["tolerance"]


@pytest.mark.parametrize("kind", MEAN_ROUTES)
def test_the_volume_current_fails_every_mean_route(tmp_path, kind):
    code, check = check_on_the_circle(tmp_path, kind, MEAN_ROUTES[kind], "1")
    assert code == 2 and check["verdict"] is False
    assert check["residual"] > 2 * check["tolerance"]
