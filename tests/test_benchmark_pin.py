"""The values pinned in perfbench/reference.json, at the benchmark's own
tolerances: a drift in them fails here before the benchmark reports a
failed operation.  The file is only read.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from frachp import convergence_study, interpolation_error_study

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
S_VALUES = (0.3, 0.5, 0.7)
SIGMA = 0.6
L_MAX = 10
EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def pinned():
    with open(REFERENCE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("s", S_VALUES)
def test_interpolation_errors_match_pin(pinned, s):
    # weighted errors sum a few thousand quadrature terms: 1e-13 relative
    for L, _, sigma, _, err in interpolation_error_study(s, SIGMA, L_MAX):
        ref = pinned["weighted"][f"{s!r}:{sigma!r}:{L}"]
        assert abs(err - ref) <= 1e-13 * ref, (s, L, err, ref)


@pytest.mark.parametrize("rule", ["uniform", "reduced"])
def test_energy_errors_match_pin(pinned, rule):
    # squared energy errors agree to 8 N eps a(u, u), a(u, u) in closed form
    records = convergence_study(S_VALUES, SIGMA, L_MAX, rule)
    assert len(records) == len(S_VALUES) * L_MAX
    for r in records:
        ref = pinned["energy"][f"{rule}:{r.s!r}:{r.sigma!r}:{r.L}"]
        assert r.N == ref["N"]
        exact = (2.0 ** (-2.0 * r.s) * math.pi
                 / (math.gamma(r.s + 0.5) * math.gamma(r.s + 1.5)))
        tol = 8.0 * r.N * EPS * exact
        assert abs(r.energy_error ** 2 - ref["energy_error"] ** 2) <= tol, (
            rule, r.s, r.L)
