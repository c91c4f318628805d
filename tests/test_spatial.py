import math

import pytest

from cavsim.errors import ConfigError, NotFoundError
from cavsim.spatial import (_query_cells, get_nearby_vehicles, query_radius,
                            rebuild)
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
    assert idx.cells == {}
    assert idx.states == {}
    assert idx.lo_cell is None and idx.hi_cell is None


def test_rebuild_negative_coordinates():
    # coordinates slightly below zero land in a valid negative cell
    idx = rebuild([VehicleState("a", -1.6, 0.0, 0.0)], 300.0)
    assert idx.cell_of(-1.6, 0.0) == (-1, 0)
    assert idx.cells == {(-1, 0): ["a"]}
    # the margin ring around the occupied box is addressable: empty lookups
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            assert isinstance(idx.cells.get((dx, dy), []), list)


def test_rebuild_counts(rng):
    states = make_states(rng, 1000)
    idx = rebuild(states, 250.0)
    assert sum(len(b) for b in idx.cells.values()) == 1000
    for key, bucket in idx.cells.items():
        for vid in bucket:
            s = idx.states[vid]
            assert idx.cell_of(s.x, s.y) == key


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


def test_query_touches_at_most_nine_cells(rng):
    idx = rebuild(make_states(rng, 50), 200.0)
    cells = _query_cells(idx, 123.0, -456.0)
    assert len(cells) == 9
    assert len(set(cells)) == 9


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


@pytest.mark.parametrize("origin", [(0.0, 0.0), (-130.5, 77.25)])
def test_lo_hi_cell_are_bounds_of_cell_of(rng, origin):
    for n in (1, 2, 50, 400):
        states = [VehicleState(f"v{i}", rng.uniform(-5000.0, 800.0),
                               rng.uniform(-900.0, 3000.0), 0.0)
                  for i in range(n)]
        idx = rebuild(states, 75.0, origin)
        cells = [idx.cell_of(s.x, s.y) for s in states]
        assert idx.lo_cell == (min(c[0] for c in cells),
                               min(c[1] for c in cells))
        assert idx.hi_cell == (max(c[0] for c in cells),
                               max(c[1] for c in cells))
