from fractions import Fraction

import numpy as np
import pytest

from frachp import (build_geometric_mesh, element_of,
                    interpolation_error_study)


def test_reference_nodes_sigma_half_two_layers():
    mesh = build_geometric_mesh((-1, 1), 0.5, 2)
    np.testing.assert_allclose(
        mesh.nodes, [-1, -0.75, -0.5, 0, 0.5, 0.75, 1], rtol=0, atol=0)
    assert mesh.n_elements == 6


def test_zero_layers_degenerates_to_bisection():
    mesh = build_geometric_mesh((-1, 1), 0.6, 0)
    np.testing.assert_allclose(mesh.nodes, [-1, 0, 1], atol=0)


def test_affine_map_of_reference_nodes():
    # node formula applied to (0, 2): x_i = 1 + (-1 + sigma^(L-i+1)) etc.
    mesh = build_geometric_mesh((0, 2), 0.5, 1)
    np.testing.assert_allclose(mesh.nodes, [0, 0.5, 1, 1.5, 2], atol=0)
    mesh2 = build_geometric_mesh((0, 2), 0.5, 2)
    np.testing.assert_allclose(mesh2.nodes, [0, 0.25, 0.5, 1, 1.5, 1.75, 2],
                               atol=0)


@pytest.mark.parametrize("sigma,layers", [(0.5, 3), (0.6, 10), (0.17, 6)])
def test_structure_invariants(sigma, layers):
    a, b = -2.0, 3.0
    mesh = build_geometric_mesh((a, b), sigma, layers)
    nodes = mesh.nodes
    assert nodes.shape == (2 * layers + 3,)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] == a and nodes[-1] == b
    # every node within eps * max(|a|, |b|) of the grading formula, taken
    # exactly on the float inputs (measured at most 0.66 of this bound for
    # sigma in {0.17, 0.3, 0.5, 0.6, 0.9} and L <= 40 on four intervals)
    fa, fb, fs = Fraction(a), Fraction(b), Fraction(sigma)
    half = (fb - fa) / 2
    exact = ([fa] + [fa + half * fs ** (layers - i + 1)
                     for i in range(1, layers + 1)]
             + [fb - half * fs ** m for m in range(layers + 1)] + [fb])
    bound = Fraction(np.finfo(float).eps) * max(abs(fa), abs(fb))
    for x, want in zip(nodes.tolist(), exact, strict=True):
        assert abs(Fraction(x) - want) <= bound
    # reflection maps the node set onto itself
    reflected = np.sort(a + b - nodes)
    np.testing.assert_allclose(reflected, nodes, rtol=1e-14, atol=0)
    # interior elements: diam ~ dist with the constant K(sigma)
    K = max((1 - sigma) / sigma, sigma / (1 - sigma))
    diam = np.diff(nodes)[1:-1]
    dist = np.minimum(nodes[1:-2] - a, b - nodes[2:-1])
    assert np.all(diam <= K * dist * (1 + 1e-12))
    assert np.all(dist <= K * diam * (1 + 1e-12))


def test_adjacent_length_ratio_is_inverse_sigma():
    sigma, L = 0.6, 8
    mesh = build_geometric_mesh((-1, 1), sigma, L)
    lengths = np.diff(mesh.nodes)
    # within the left refined region the ratio of successive lengths is 1/sigma
    for i in range(1, L):
        assert lengths[i + 1] / lengths[i] == pytest.approx(1 / sigma, rel=1e-13)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_geometric_mesh((-1, 1), 1.2, 3)
    with pytest.raises(ValueError):
        build_geometric_mesh((-1, 1), 0.0, 3)
    with pytest.raises(ValueError):
        build_geometric_mesh((1, -1), 0.5, 3)
    with pytest.raises(ValueError):
        build_geometric_mesh((1, 1), 0.5, 3)
    with pytest.raises(ValueError):
        build_geometric_mesh((-1, 1), 0.5, -1)


def test_rejects_domain_whose_length_overflows():
    # both endpoints are finite, but b - a is inf
    with pytest.raises(ValueError, match=r"finite length, got \(-1e\+308, "):
        build_geometric_mesh((-1e308, 1e308), 0.6, 2)
    build_geometric_mesh((-5e307, 5e307), 0.6, 2)


@pytest.mark.parametrize("sigma,first_bad", [(0.17, 22), (0.6, 73)])
def test_degenerate_mesh_raises_naming_sigma_and_L(sigma, first_bad):
    # half * sigma^L falls below the spacing of doubles next to -1 and 1
    mesh = build_geometric_mesh((-1, 1), sigma, first_bad - 1)
    assert (np.diff(mesh.nodes) > 0).all()
    with pytest.raises(ValueError, match=f"sigma={sigma} with L={first_bad} "):
        build_geometric_mesh((-1, 1), sigma, first_bad)


def test_layer_count_must_be_an_integer():
    with pytest.raises(TypeError):
        build_geometric_mesh((-1, 1), 0.5, 2.5)
    with pytest.raises(TypeError):
        interpolation_error_study(0.5, 0.5, 2.5)
    mesh = build_geometric_mesh((-1, 1), 0.5, np.int64(3))
    assert mesh.layers == 3 and type(mesh.layers) is int
    np.testing.assert_array_equal(mesh.nodes,
                                  build_geometric_mesh((-1, 1), 0.5, 3).nodes)


def test_element_of_tie_breaks():
    mesh = build_geometric_mesh((-1, 1), 0.5, 2)
    assert element_of(mesh, -0.75) == 2      # shared node goes right
    assert mesh.nodes[1:3].tolist() == [-0.75, -0.5]
    assert element_of(mesh, 1.0) == mesh.n_elements
    assert element_of(mesh, 0.1) == 4
    assert mesh.nodes[3:5].tolist() == [0.0, 0.5]
    assert element_of(mesh, -1.0) == 1
    with pytest.raises(ValueError):
        element_of(mesh, 1.5)
    with pytest.raises(ValueError):
        element_of(mesh, -1.0000001)
    # an array is located elementwise, by the same rule
    xs = np.concatenate((mesh.nodes, [-0.9, 0.1, 0.99]))
    np.testing.assert_array_equal(element_of(mesh, xs),
                                  [element_of(mesh, x) for x in xs])
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="outside domain"):
            element_of(mesh, np.append(xs, bad))
