import math
import random

import pytest

from cavsim.identity import MatchTable
from cavsim.trace import VehicleState


def random_scene(rng: random.Random, n: int, radius: float = 100.0):
    """Random vehicle states around the origin (the ego camera position)."""
    states = []
    for i in range(n):
        r = radius * math.sqrt(rng.random())
        theta = rng.uniform(-math.pi, math.pi)
        states.append(VehicleState(
            f"c{i:03d}",
            r * math.cos(theta),
            r * math.sin(theta),
            rng.uniform(-math.pi, math.pi) or math.pi,
            rng.uniform(3.0, 12.0),
            rng.uniform(1.5, 2.5)))
    return states


def table_of(stations_by_plate):
    """A MatchTable holding the (plate, station) pairs, added in order."""
    table = MatchTable()
    for plate, station in stations_by_plate.items():
        table.add(plate, station)
    return table


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
