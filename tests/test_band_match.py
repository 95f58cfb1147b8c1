"""Tests for the 10 m-band way-point matching (Sec. VII-D methodology)."""
import numpy as np
import pytest

from repro.eval.band_match import band_accuracy, _project_to_polyline
from repro.roadnet.generator import make_city
from repro.roadnet.shortest_path import dijkstra


@pytest.fixture(scope="module")
def city():
    return make_city(grid_n=15, cell_m=200.0, seed=5)


@pytest.fixture(scope="module")
def gt_path(city):
    return dijkstra(city.net, 0, city.net.n_vertices - 1, city.net.dist)[0]


def test_projection_on_segment():
    poly = np.array([[0.0, 0], [10, 0], [20, 0]])
    d, arc = _project_to_polyline(np.array([[5.0, 3.0], [15.0, -4.0]]), poly)
    assert d == pytest.approx([3.0, 4.0])
    assert arc == pytest.approx([5.0, 15.0])


def test_projection_clamps_to_endpoints():
    poly = np.array([[0.0, 0], [10, 0]])
    d, arc = _project_to_polyline(np.array([[-5.0, 0.0]]), poly)
    assert d[0] == pytest.approx(5.0)
    assert arc[0] == pytest.approx(0.0)


def test_exact_waypoints_full_match(city, gt_path):
    wps = city.net.xy[np.asarray(gt_path)]
    assert band_accuracy(city.net, gt_path, wps) == pytest.approx(1.0)


def test_waypoints_within_band_match(city, gt_path):
    g = np.random.default_rng(0)
    wps = city.net.xy[np.asarray(gt_path)] + g.uniform(-5, 5, (len(gt_path), 2))
    assert band_accuracy(city.net, gt_path, wps) > 0.9


def test_far_waypoints_no_match(city, gt_path):
    wps = city.net.xy[np.asarray(gt_path)] + 500.0
    assert band_accuracy(city.net, gt_path, wps) == 0.0


def test_subsampled_waypoints_partial_or_full(city, gt_path):
    """Sub-sampling keeps accuracy high: consecutive matched way-points
    cover the GT edges between their projections."""
    idx = list(range(0, len(gt_path), 3)) + [len(gt_path) - 1]
    wps = city.net.xy[np.asarray([gt_path[i] for i in sorted(set(idx))])]
    acc = band_accuracy(city.net, gt_path, wps)
    assert acc > 0.9


def test_half_path_waypoints(city, gt_path):
    half = gt_path[: len(gt_path) // 2]
    wps = city.net.xy[np.asarray(half)]
    acc = band_accuracy(city.net, gt_path, wps)
    assert 0.2 < acc < 0.8


def test_empty_inputs(city, gt_path):
    assert band_accuracy(city.net, [0], np.zeros((0, 2))) == 0.0
    assert band_accuracy(city.net, gt_path, np.zeros((0, 2))) == 0.0
