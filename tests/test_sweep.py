"""The per-tick neighbor sweep against its oracle, get_nearby_vehicles."""

import pytest

from cavsim.errors import ConfigError
from cavsim.spatial import get_nearby_vehicles, rebuild, sweep_neighbors
from cavsim.trace import VehicleState


def check_against_oracle(states, cell, perception_radius, comm_range):
    idx = rebuild(states, cell)
    near, comm = sweep_neighbors(idx, perception_radius, comm_range)
    assert set(near) == set(comm) == {s.id for s in states}
    for s in states:
        for got, radius in ((near, perception_radius), (comm, comm_range)):
            want = [n.id for n in get_nearby_vehicles(idx, s.id, radius)]
            # sorted lists, not sets: a pair filed twice would show
            assert sorted(n.id for n in got[s.id]) == want
    return near, comm


def scattered(rng, n, span):
    return [VehicleState(f"v{i:04d}", rng.uniform(-span, span),
                         rng.uniform(-span, span), 0.0) for i in range(n)]


def lattice(rng, n, step, span):
    """Points on a lattice of `step`: many pairs lie exactly at 3-4-5 and
    axis distances, so the inclusive boundary is exercised."""
    k = int(span / step)
    points = {(rng.randint(-k, k) * step, rng.randint(-k, k) * step)
              for _ in range(n)}
    return [VehicleState(f"p{i:04d}", x, y, 0.0)
            for i, (x, y) in enumerate(sorted(points))]


RADII = [(100.0, 100.0), (60.0, 100.0), (100.0, 60.0), (100.0, 0.0),
         (37.5, 81.25)]


@pytest.mark.parametrize("perception_radius, comm_range", RADII)
def test_scattered_negative_coordinates(rng, perception_radius, comm_range):
    check_against_oracle(scattered(rng, 400, 700.0), 100.0,
                         perception_radius, comm_range)


@pytest.mark.parametrize("perception_radius, comm_range", RADII)
def test_crowded_single_cells(rng, perception_radius, comm_range):
    # 300 vehicles in a few cells around the origin, including cell -1
    check_against_oracle(scattered(rng, 300, 150.0), 100.0,
                         perception_radius, comm_range)


@pytest.mark.parametrize("perception_radius, comm_range", RADII)
def test_pairs_exactly_at_the_radius(rng, perception_radius, comm_range):
    # radius 100 == cell_size: lattice pairs 100 m apart straddle cells
    states = lattice(rng, 250, 10.0, 300.0)
    maps = check_against_oracle(states, 100.0, perception_radius,
                                comm_range)
    for got, radius in zip(maps, (perception_radius, comm_range)):
        if radius % 10.0 or not radius:
            continue  # no lattice pair lies exactly this far apart
        exact = [(a, b) for a in states for b in states
                 if (b.x - a.x) ** 2 + (b.y - a.y) ** 2 == radius * radius]
        assert exact
        assert all(b in got[a.id] for a, b in exact)


def test_boundary_pair_across_cells():
    states = [VehicleState("a", -50.0, 0.0, 0.0),
              VehicleState("b", 50.0, 0.0, 0.0),
              VehicleState("c", 50.0, 100.0, 0.0)]
    near, comm = check_against_oracle(states, 100.0, 100.0, 100.0)
    assert near is comm
    assert sorted(s.id for s in near["b"]) == ["a", "c"]
    assert [s.id for s in near["c"]] == ["b"]


def test_two_radii_give_two_maps():
    states = [VehicleState("a", 0.0, 0.0, 0.0),
              VehicleState("b", 80.0, 0.0, 0.0)]
    near, comm = check_against_oracle(states, 300.0, 100.0, 50.0)
    assert near is not comm
    assert [s.id for s in near["a"]] == ["b"] and comm["a"] == []
    near, comm = check_against_oracle(states, 300.0, 50.0, 100.0)
    assert near["a"] == [] and [s.id for s in comm["a"]] == ["b"]


def test_empty_grid():
    near, comm = sweep_neighbors(rebuild([], 300.0), 100.0, 300.0)
    assert near == {} and comm == {}


def test_radius_above_cell_size_rejected():
    idx = rebuild([VehicleState("a", 0.0, 0.0, 0.0)], 100.0)
    with pytest.raises(ConfigError):
        sweep_neighbors(idx, 50.0, 100.01)
    with pytest.raises(ConfigError):
        sweep_neighbors(idx, 100.01, 50.0)
