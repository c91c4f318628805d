import itertools
import math
import random
from dataclasses import replace

import pytest

from cavsim.errors import GeometryError
from cavsim.perception import (HALF_PI, CameraPose, PerceptionConfig,
                               box_to_camera, fov_relevant,
                               get_visible_lines_naive, heading_visible,
                               normalize_heading, perceive, projection_angles,
                               reconstruct_box)
from cavsim.messages import PerceivedObject
from cavsim.trace import VehicleState
from conftest import random_scene

CFG = PerceptionConfig()


def perceive_naive(ego, neighbors, cfg, tick=0):
    """Same pipeline, composed step by step with the quadratic filter."""
    cam = CameraPose(ego.x, ego.y, ego.heading)
    views = []
    by_id = {}
    for s in neighbors:
        if s.id == ego.id:
            continue
        box = box_to_camera(cam, reconstruct_box(s, cfg.plate_width))
        if not fov_relevant(box.corners, cfg):
            continue
        box = normalize_heading(box)
        try:
            views.append(projection_angles(box, s.id))
        except GeometryError:
            continue
        by_id[s.id] = s
    views.sort(key=lambda v: (v.dist_g, v.vehicle_id))
    out = []
    for v in get_visible_lines_naive(views):
        if heading_visible(v.heading, cfg):
            s = by_id[v.vehicle_id]
            out.append(PerceivedObject(s.id, s.x, s.y, s.heading, tick))
    return tuple(out)


def test_no_neighbors():
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    assert perceive(ego, [], CFG) == ()


def test_one_unobstructed_tailing_vehicle():
    ego = VehicleState("ego", -10.0, 0.0, 0.0)
    tgt = VehicleState("tgt", 0.0, 0.0, 0.0)
    got = perceive(ego, [tgt], CFG, tick=7)
    assert got == perceive_naive(ego, [tgt], CFG, tick=7)
    assert got == (PerceivedObject("tgt", 0.0, 0.0, 0.0, 7),)


def test_two_collinear_only_nearer_perceived():
    ego = VehicleState("ego", -10.0, 0.0, 0.0)
    near = VehicleState("near", -4.0, 0.0, 0.0)
    far = VehicleState("far", 3.0, 0.0, 0.0)
    got = perceive(ego, [far, near], CFG)
    assert [o.plate for o in got] == ["near"]
    assert got == perceive_naive(ego, [far, near], CFG)


def test_oncoming_vehicle_shows_front_plate():
    ego = VehicleState("ego", -10.0, 0.0, 0.0)
    oncoming = VehicleState("on", 0.0, 0.0, math.pi)  # facing the ego
    got = perceive(ego, [oncoming], CFG)
    assert [o.plate for o in got] == ["on"]


def test_sideways_vehicle_filtered_by_heading():
    ego = VehicleState("ego", -10.0, 0.0, 0.0)
    crossing = VehicleState("x", 0.0, -2.0, math.pi / 2)
    assert perceive(ego, [crossing], CFG) == ()
    relaxed = PerceptionConfig(max_plate_angle=math.pi / 2)
    assert [o.plate for o in perceive(ego, [crossing], relaxed)] == ["x"]


def test_behind_camera_not_perceived():
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    behind = VehicleState("b", -20.0, 0.0, 0.0)
    assert perceive(ego, [behind], CFG) == ()


def test_matches_full_naive_pipeline_on_random_scenes():
    rng = random.Random(777)
    for _ in range(150):
        ego = VehicleState("ego", 0.0, 0.0,
                           rng.uniform(-math.pi, math.pi) or math.pi)
        scene = random_scene(rng, rng.randint(0, 40))
        assert perceive(ego, scene, CFG, 3) == perceive_naive(ego, scene, CFG, 3)


@pytest.mark.parametrize("fov_deg", [45.0, 90.0])
def test_config_constants_follow_replace(fov_deg):
    # perceive reads constants each config computes once; a config made
    # through dataclasses.replace from a very different one must not keep
    # the old constants
    direct = PerceptionConfig(fov_half_angle=math.radians(fov_deg))
    replaced = replace(PerceptionConfig(fov_half_angle=math.radians(10.0),
                                        max_range=30.0, plate_width=3.0),
                       fov_half_angle=math.radians(fov_deg), max_range=100.0,
                       plate_width=0.52)
    assert replaced == direct
    rng = random.Random(int(fov_deg))
    for _ in range(80):
        # ego headings near +-pi put heading differences on both sides of
        # (-pi, pi], where perceive skips normalize_angle
        ego = VehicleState("ego", 0.0, 0.0,
                           rng.choice((math.pi, -3.0, 3.0,
                                       rng.uniform(-math.pi, math.pi))))
        scene = random_scene(rng, rng.randint(0, 40))
        expected = perceive_naive(ego, scene, direct, 2)
        assert perceive(ego, scene, direct, 2) == expected
        assert perceive(ego, scene, replaced, 2) == expected
    # a heading difference of exactly -pi lies outside (-pi, pi] and is
    # normalized: the oncoming vehicle shows its front plate
    ego = VehicleState("ego", 0.0, 0.0, HALF_PI)
    oncoming = VehicleState("o", 0.0, 30.0, -HALF_PI)
    for cfg in (direct, replaced):
        got = perceive(ego, [oncoming], cfg)
        assert got == perceive_naive(ego, [oncoming], cfg)
        assert [o.plate for o in got] == ["o"]


def test_output_subset_of_fov_relevant_set(rng):
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    cam = CameraPose(0.0, 0.0, 0.0)
    for _ in range(50):
        scene = random_scene(rng, 30)
        relevant = set()
        for s in scene:
            box = box_to_camera(cam, reconstruct_box(s, CFG.plate_width))
            if fov_relevant(box.corners, CFG):
                relevant.add(s.id)
        got = {o.plate for o in perceive(ego, scene, CFG)}
        assert got <= relevant


def test_monotone_in_occluders(rng):
    # removing any one vehicle never hides a previously visible vehicle
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    for _ in range(30):
        scene = random_scene(rng, 15)
        base = {o.plate for o in perceive(ego, scene, CFG)}
        for removed in scene:
            rest = [s for s in scene if s.id != removed.id]
            after = {o.plate for o in perceive(ego, rest, CFG)}
            assert base - {removed.id} <= after


def test_deterministic(rng):
    ego = VehicleState("ego", 0.0, 0.0, 0.3)
    scene = random_scene(rng, 35)
    first = perceive(ego, scene, CFG, 5)
    for _ in range(3):
        assert perceive(ego, scene, CFG, 5) == first
    # input order does not matter either: candidates re-sort by distance
    shuffled = list(scene)
    random.Random(5).shuffle(shuffled)
    assert perceive(ego, shuffled, CFG, 5) == first


def test_overlapping_box_skipped_consistently():
    # a vehicle rectangle containing the camera origin is skipped entirely
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    overlapping = VehicleState("ov", 2.0, 0.0, 0.0)   # box spans x in [-3, 2]
    ahead = VehicleState("ok", 10.0, 0.0, 0.0)
    got = perceive(ego, [overlapping, ahead], CFG)
    assert got == perceive_naive(ego, [overlapping, ahead], CFG)
    assert [o.plate for o in got] == ["ok"]


def footprint_scene(rng, n):
    """Random scene mixing thin (0.05 m), long (18 m) and ordinary boxes."""
    scene = []
    for s in random_scene(rng, n):
        length = rng.choice((18.0, 4.5, rng.uniform(0.5, 18.0)))
        width = rng.choice((0.05, 1.8, rng.uniform(0.05, 2.6)))
        scene.append(VehicleState(s.id, s.x, s.y, s.heading, length, width))
    return scene


@pytest.mark.parametrize("fov_deg", [5.0, 45.0, 90.0])
def test_wedge_pre_reject_is_conservative(fov_deg):
    cfg = PerceptionConfig(fov_half_angle=math.radians(fov_deg))
    rng = random.Random(int(fov_deg * 10))
    cam = CameraPose(0.0, 0.0, 0.0)
    bumper_out_corner_in = 0
    for _ in range(120):
        ego = VehicleState("ego", 0.0, 0.0, 0.0)
        scene = footprint_scene(rng, rng.randint(0, 40))
        assert perceive(ego, scene, cfg, 3) == perceive_naive(ego, scene,
                                                              cfg, 3)
        for s in scene:
            box = box_to_camera(cam, reconstruct_box(s, cfg.plate_width))
            if (not fov_relevant((box.f,), cfg)
                    and fov_relevant(box.corners, cfg)):
                bumper_out_corner_in += 1
    # the scenes do reach the reject's margin: boxes whose bumper lies
    # outside the wedge while a corner lies inside it
    assert bumper_out_corner_in >= 20


def test_wedge_pre_reject_keeps_box_reaching_in_by_its_diagonal():
    # A short, wide box whose bumper-to-rear-corner diagonal (length
    # sqrt(1 + 2^2) = 2.236) points straight into the half-plane x >= 0:
    # the bumper lies 2.136 outside it, farther than the length, yet the
    # rear corner is 0.1 inside.
    cfg = PerceptionConfig(fov_half_angle=math.pi / 2,
                           max_plate_angle=math.pi / 2)
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    diag = math.hypot(1.0, 2.0)
    wide = VehicleState("w", 0.1 - diag, 5.0, math.atan2(2.0, -1.0), 1.0, 4.0)
    box = reconstruct_box(wide, cfg.plate_width)
    assert box.c[0] > 0.0 and max(x for x, _ in box.corners) == box.c[0]
    got = perceive(ego, [wide], cfg)
    assert got == perceive_naive(ego, [wide], cfg)
    assert [o.plate for o in got] == ["w"]


def test_unreadable_plate_still_occludes():
    # a sideways vehicle between the camera and a tailing vehicle: its own
    # plate is rotated past readability, but its box hides the other plate
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    sideways = VehicleState("side", 15.0, -2.0, -math.pi / 2, 4.0, 2.0)
    tailing = VehicleState("tail", 30.0, 0.0, 0.0)
    assert not heading_visible(sideways.heading, CFG)
    scene = [tailing, sideways]
    assert perceive(ego, scene, CFG) == ()
    assert perceive(ego, scene, CFG) == perceive_naive(ego, scene, CFG)
    assert [o.plate for o in perceive(ego, [tailing], CFG)] == ["tail"]
    # readable, the same box is the one vehicle seen
    relaxed = PerceptionConfig(max_plate_angle=math.pi / 2)
    assert [o.plate for o in perceive(ego, scene, relaxed)] == ["side"]


# perceive keeps the farthest candidate raw (its box occludes nothing) and
# builds no spans at all for a lone candidate; each case runs every order
# of the neighbour list, so each vehicle is met first, last and between

def check_all_orders(ego, scene, expected):
    for order in itertools.permutations(scene):
        got = perceive(ego, list(order), CFG, 4)
        assert got == perceive_naive(ego, list(order), CFG, 4)
        assert [o.plate for o in got] == expected


@pytest.mark.parametrize("offset,expected", [
    (3.0, ["c", "a", "b"]),  # the tied plates pass beside the nearer box
    (1.0, ["c"]),            # the nearer box hides both tied plates
])
def test_two_farthest_candidates_tie_on_dist_g(offset, expected):
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    a = VehicleState("a", 20.0, offset, 0.0)
    b = VehicleState("b", 20.0, -offset, 0.0)
    c = VehicleState("c", 10.0, 0.0, 0.0)
    check_all_orders(ego, [a, b, c], expected)
    check_all_orders(ego, [a, b], ["a", "b"])  # a tie never occludes


@pytest.mark.parametrize("far,expected", [
    (VehicleState("f", 40.0, -1.0, 0.0), ["c", "f"]),   # readable, in view
    (VehicleState("f", 40.0, 5.0, 0.0), ["c"]),         # behind c's box
    (VehicleState("f", 40.0, -1.0, HALF_PI), ["c"]),    # unreadable
])
def test_farthest_candidate_readable_or_not(far, expected):
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    c = VehicleState("c", 10.0, 1.25, 0.0)
    check_all_orders(ego, [far, c, VehicleState("u", 20.0, 40.0, 0.0)],
                     expected)


@pytest.mark.parametrize("heading,expected", [(0.0, ["t"]),
                                              (math.pi, ["t"]),
                                              (HALF_PI, [])])
def test_single_candidate_among_neighbours(heading, expected):
    # the other neighbours are behind the camera or outside the wedge
    ego = VehicleState("ego", 0.0, 0.0, 0.0)
    scene = [VehicleState("t", 25.0, 0.0, heading),
             VehicleState("behind", -20.0, 0.0, 0.0),
             VehicleState("side", 5.0, 40.0, 0.0)]
    check_all_orders(ego, scene, expected)
