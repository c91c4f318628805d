"""Per-tick grid index over vehicle positions.

The world is divided into square cells of a given size; each vehicle is
filed under the cell containing its front-bumper position.  A radius
query only inspects the query cell and its eight neighbors, and the
per-tick neighbor sweep pairs each occupied cell with itself and four of
those neighbors; both are exact as long as the radius does not exceed the
cell size, so a run sizes its cells at the larger of its two radii.
Cells are kept in a sparse mapping, so every integer cell coordinate,
negative ones included, is addressable, and a cell nothing is filed
under reads as empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError, NotFoundError, ValidationError
from .trace import VehicleState


# packed-key stride: cell (cx, cy) -> cx * _STRIDE + cy; int keys hash much
# faster than tuples in the query hot path
_STRIDE = 1 << 33


@dataclass(slots=True)
class GridIndex:
    """Immutable-after-build spatial index for one tick."""

    cell_size: float
    states: dict[str, VehicleState]
    _packed: dict[int, list[VehicleState]]


def rebuild(states: Iterable[VehicleState], cell_size: float) -> GridIndex:
    """Build the index in a single pass over the states.  A position whose
    cell index overflows a float is a ConfigError."""
    if cell_size <= 0:
        raise ConfigError("cell_size must be positive")
    inv = 1.0 / cell_size
    packed: dict[int, list[VehicleState]] = {}
    state_map: dict[str, VehicleState] = {}
    floor = math.floor
    n = 0
    try:
        for s in states:
            key = floor(s.x * inv) * _STRIDE + floor(s.y * inv)
            bucket = packed.get(key)
            if bucket is None:
                packed[key] = [s]
            else:
                bucket.append(s)
            state_map[s.id] = s
            n += 1
    except OverflowError:
        raise ConfigError(f"vehicle {s.id!r} at ({s.x!r}, {s.y!r}) has no "
                          f"cell of size {cell_size!r}") from None
    if len(state_map) != n:
        raise ValidationError("duplicate vehicle id in grid rebuild")
    return GridIndex(cell_size, state_map, packed)


def _check_radius(index: GridIndex, radius: float) -> None:
    if radius > index.cell_size:
        raise ConfigError(
            f"query radius {radius} exceeds cell size {index.cell_size}")


def query_radius(index: GridIndex, pos: tuple[float, float],
                 radius: float) -> list[VehicleState]:
    """All vehicles within `radius` (inclusive) of a point, unordered.

    Requires radius <= cell_size so the 3x3 cell neighborhood is exhaustive.
    """
    _check_radius(index, radius)
    x, y = pos
    r2 = radius * radius
    inv = 1.0 / index.cell_size
    cx = math.floor(x * inv)
    cy = math.floor(y * inv)
    out = []
    get = index._packed.get
    for kx in (cx - 1, cx, cx + 1):
        base = kx * _STRIDE + cy
        for key in (base - 1, base, base + 1):
            for s in get(key, ()):
                dx = s.x - x
                dy = s.y - y
                if dx * dx + dy * dy <= r2:
                    out.append(s)
    return out


def get_nearby_vehicles(index: GridIndex, ego: str,
                        radius: float) -> list[VehicleState]:
    """Vehicles within `radius` of the ego position, ego excluded.

    Distance is measured between front-bumper positions and the boundary is
    inclusive.  Results are sorted by vehicle id.
    """
    ego_state = index.states.get(ego)
    if ego_state is None:
        raise NotFoundError(f"unknown ego vehicle {ego!r}")
    out = [s for s in query_radius(index, (ego_state.x, ego_state.y), radius)
           if s.id != ego]
    out.sort(key=_state_id)
    return out


def _state_id(s: VehicleState) -> str:
    return s.id


def sweep_neighbors(index: GridIndex, perception_radius: float,
                    comm_range: float) -> tuple[dict[str, list[VehicleState]],
                                                dict[str, list[VehicleState]]]:
    """Every vehicle's neighbors within two radii, from one pass.

    Each occupied cell is paired with itself and its four forward
    neighbors (kx+1, ky-1), (kx+1, ky), (kx+1, ky+1) and (kx, ky+1), the
    half-shell cell list of molecular dynamics, so each pair of vehicles
    is tested once, at the larger radius, and filed by its squared
    distance.  That distance is computed once as b - a; since
    fl(a - b) = -fl(b - a), it is bit-equal to what a radius query from
    either end computes, and each map holds the same ids as
    get_nearby_vehicles at its radius.

    Returns (perception, comm): vehicle id -> unordered list of the states
    within perception_radius, resp. comm_range (inclusive, the vehicle
    itself excluded).  With equal radii both are the same dict.
    """
    _check_radius(index, max(perception_radius, comm_range))
    r2p = perception_radius * perception_radius
    r2c = comm_range * comm_range
    wide = {vid: [] for vid in index.states}
    narrow = wide if r2p == r2c else {vid: [] for vid in index.states}
    r2 = max(r2p, r2c)
    r2n = -1.0 if narrow is wide else min(r2p, r2c)
    packed = index._packed
    get = packed.get
    for key, cell in packed.items():
        pool = [*cell, *get(key + 1, ()), *get(key + _STRIDE - 1, ()),
                *get(key + _STRIDE, ()), *get(key + _STRIDE + 1, ())]
        for i, a in enumerate(cell, 1):
            ax = a.x
            ay = a.y
            wide_a = wide[a.id]
            for b in pool[i:]:
                dx = b.x - ax
                dy = b.y - ay
                d2 = dx * dx + dy * dy
                if d2 <= r2:
                    wide_a.append(b)
                    wide[b.id].append(a)
                    if d2 <= r2n:
                        narrow[a.id].append(b)
                        narrow[b.id].append(a)
    return (narrow, wide) if r2p <= r2c else (wide, narrow)
