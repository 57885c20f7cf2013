"""The library examples of README.md run against the current API."""

import re
from pathlib import Path

import numpy as np
import pytest

from frachp.assembly import _is_mirror_image

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the later blocks use the earlier imports
        exec(compile(block, str(README), "exec"), namespace)
    # the values the first block's comments give
    u0, err = map(float, capsys.readouterr().out.split())
    assert u0 == pytest.approx(1.0, rel=1e-3)
    assert err == pytest.approx(1.4e-2, rel=0.05)
    assert len(namespace["errors"]) == 10
    # the second block: a map on (0, 2) that is not its own mirror image,
    # with f = cos
    dofmap, sol = namespace["dofmap"], namespace["sol"]
    assert (dofmap.mesh.a, dofmap.mesh.b) == (0.0, 2.0)
    assert not _is_mirror_image(dofmap)
    assert len(sol.coeffs) == dofmap.n_dofs
    assert np.isfinite(sol.coeffs).all()
