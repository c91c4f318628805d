import math

import pytest

from cavsim.errors import ConfigError, NotFoundError
from cavsim.spatial import (get_nearby_vehicles, query_radius, rebuild,
                            sweep_neighbors)
from cavsim.trace import VehicleState


def naive_nearby(states, ego_id, radius):
    """Full-scan reference implementation."""
    ego = next(s for s in states if s.id == ego_id)
    out = [s for s in states
           if s.id != ego_id
           and math.dist((s.x, s.y), (ego.x, ego.y)) <= radius]
    return sorted(out, key=lambda s: s.id)


def make_states(rng, n, span=1000.0):
    return [VehicleState(f"v{i:04d}", rng.uniform(-span, span),
                         rng.uniform(-span, span), 0.0)
            for i in range(n)]


def test_rebuild_empty():
    idx = rebuild([], 300.0)
    assert idx.states == {}
    assert query_radius(idx, (0.0, 0.0), 300.0) == []
    assert sweep_neighbors(idx, 100.0, 300.0) == ({}, {})


def test_rebuild_negative_coordinates():
    # a vehicle slightly below zero is filed in cell -1: queries from cell
    # -2 (x = -301) up to cell 0 find it
    idx = rebuild([VehicleState("a", -1.6, 0.0, 0.0)], 300.0)
    for x in (-301.0, -1.6, 0.0, 298.4):
        assert [s.id for s in query_radius(idx, (x, 0.0), 300.0)] == ["a"]
    assert query_radius(idx, (298.5, 0.0), 300.0) == []
    # any cell around it, at any distance, reads as empty
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            if dx or dy:
                assert query_radius(idx, (-1.6 + 600.0 * dx,
                                          600.0 * dy), 300.0) == []


def test_rebuild_counts(rng):
    # every vehicle is filed exactly once, where queries and the sweep
    # find it
    states = make_states(rng, 1000)
    idx = rebuild(states, 250.0)
    assert len(idx.states) == 1000
    for s in states:
        assert query_radius(idx, (s.x, s.y), 0.0).count(s) == 1
    near, _ = sweep_neighbors(idx, 250.0, 250.0)
    for s in states:
        assert (sorted(n.id for n in near[s.id])
                == [n.id for n in naive_nearby(states, s.id, 250.0)])


def test_rebuild_bad_cell_size():
    with pytest.raises(ConfigError):
        rebuild([], 0.0)
    with pytest.raises(ConfigError):
        rebuild([], -10.0)


def test_query_single_vehicle_excludes_ego():
    idx = rebuild([VehicleState("a", 0.0, 0.0, 0.0)], 100.0)
    assert get_nearby_vehicles(idx, "a", 50.0) == []


def test_query_boundary_inclusive():
    states = [VehicleState("ego", 0.0, 0.0, 0.0),
              VehicleState("edge", 50.0, 0.0, 0.0)]
    idx = rebuild(states, 100.0)
    assert [s.id for s in get_nearby_vehicles(idx, "ego", 50.0)] == ["edge"]


def test_query_unknown_ego():
    idx = rebuild([VehicleState("a", 0.0, 0.0, 0.0)], 100.0)
    with pytest.raises(NotFoundError):
        get_nearby_vehicles(idx, "nope", 10.0)


def test_query_radius_larger_than_cell_rejected():
    idx = rebuild([VehicleState("a", 0.0, 0.0, 0.0)], 100.0)
    with pytest.raises(ConfigError):
        get_nearby_vehicles(idx, "a", 100.01)


def test_matches_full_scan_oracle(rng):
    states = make_states(rng, 500)
    cell = 150.0
    idx = rebuild(states, cell)
    ids = [s.id for s in states]
    for _ in range(100):
        ego = rng.choice(ids)
        radius = rng.uniform(0.0, cell)
        got = get_nearby_vehicles(idx, ego, radius)
        assert got == naive_nearby(states, ego, radius)


def test_results_sorted_and_no_ego(rng):
    states = make_states(rng, 300, span=100.0)
    idx = rebuild(states, 120.0)
    out = get_nearby_vehicles(idx, states[0].id, 120.0)
    assert [s.id for s in out] == sorted(s.id for s in out)
    assert states[0].id not in [s.id for s in out]


def test_query_radius_by_position():
    states = [VehicleState("a", 0.0, 0.0, 0.0),
              VehicleState("b", 10.0, 0.0, 0.0)]
    idx = rebuild(states, 50.0)
    got = {s.id for s in query_radius(idx, (1.0, 0.0), 10.0)}
    assert got == {"a", "b"}
