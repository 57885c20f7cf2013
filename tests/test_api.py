"""The public names: every module exports what its __all__ lists, and the
names removed from the package stay removed."""

import dataclasses
import importlib

import pytest

import frachp

MODULES = ["approx", "assembly", "basis", "cli", "geomesh", "linsolve",
           "postproc", "quadrature"]

REMOVED = {
    "approx": ["WeightedNormSpec", "weighted_h1_norm",
               "linear_interpolant_half_one", "linear_endpoint_interpolant",
               "gauss_lobatto_interpolant"],
    "assembly": ["complement_weight"],
    "basis": ["legendre_eval", "shape_eval", "shape_deriv",
              "eval_fem_derivative"],
    "postproc": ["record_fields", "records_to_csv", "CSV_HEADER"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"frachp.{name}")
    namespace = {}
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from frachp.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for name, removed in REMOVED.items():
        module = importlib.import_module(f"frachp.{name}")
        for attr in removed:
            assert not hasattr(frachp, attr), attr
            assert not hasattr(module, attr), attr
            assert attr not in module.__all__
    mesh_fields = {f.name for f in dataclasses.fields(frachp.GeometricMesh)}
    assert mesh_fields == {"a", "b", "sigma", "layers", "nodes"}
    for attr in ("domain", "element", "element_length", "elements"):
        assert not hasattr(frachp.GeometricMesh, attr), attr
    assert "elem_dofs" not in {f.name
                               for f in dataclasses.fields(frachp.DofMap)}
