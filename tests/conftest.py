import json
import math
import os
import random
import tempfile

import pytest

from cavsim.identity import MatchTable
from cavsim.trace import VehicleState, load_trace


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


# the labeled points of a BoundingBox
LANDMARKS = ("a", "b", "c", "d", "m", "n", "f", "g")


def camera_to_world(cam, point):
    """A camera-frame point in the world frame: the inverse of the rotation
    and translation box_to_camera applies."""
    cb, sb = math.cos(cam.beta0), math.sin(cam.beta0)
    x, y = point
    return (cam.x0 + cb * x - sb * y, cam.y0 + sb * x + cb * y)


def read_trace(text: str, fmt: str, **defaults):
    """load_trace of `text` written to a file as UTF-8, its line ends as
    given (newline=""), in format `fmt` ("csv" or "fcd")."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        return load_trace(path, fmt, **defaults)


def read_run(run_dir: str) -> list[dict]:
    """Every tick line of a run directory's metrics.jsonl, each read by a
    plain json.loads, in file order."""
    with open(os.path.join(run_dir, "metrics.jsonl"), encoding="ascii") as f:
        return [json.loads(line) for line in f]


def table_of(stations_by_plate):
    """A MatchTable holding the (plate, station) pairs, added in order."""
    table = MatchTable()
    for plate, station in stations_by_plate.items():
        table.add(plate, station)
    return table


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
