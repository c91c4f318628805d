import math

import pytest

from cavsim.errors import GeometryError
from cavsim.perception import (BoundingBox, CameraPose, PerceptionConfig,
                               box_to_camera, fov_relevant, from_camera_frame,
                               heading_visible, normalize_heading, perceive,
                               projection_angles, reconstruct_box,
                               to_camera_frame)
from cavsim.trace import VehicleState, normalize_angle
from test_perceive import perceive_naive


def rotate(p, angle, about=(0.0, 0.0)):
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p[0] - about[0], p[1] - about[1]
    return (about[0] + c * dx - s * dy, about[1] + s * dx + c * dy)


def approx_pt(p, q, tol=1e-9):
    return math.isclose(p[0], q[0], abs_tol=tol) and math.isclose(p[1], q[1], abs_tol=tol)


# --- reconstruct_box ------------------------------------------------------

def test_reconstruct_axis_aligned():
    b = reconstruct_box(VehicleState("t", 0.0, 0.0, 0.0, 4.0, 2.0), 0.52)
    assert b.a == (0.0, 1.0)
    assert b.b == (0.0, -1.0)
    assert b.c == (-4.0, -1.0)
    assert b.d == (-4.0, 1.0)
    assert b.g == (-4.0, 0.0)
    assert b.f == (0.0, 0.0)
    assert b.m == (-4.0, 0.26)
    assert b.n == (-4.0, -0.26)


def test_reconstruct_rotation_equivariant():
    base = reconstruct_box(VehicleState("t", 0.0, 0.0, 0.0, 4.0, 2.0), 0.52)
    rot = reconstruct_box(VehicleState("t", 0.0, 0.0, math.pi / 2, 4.0, 2.0), 0.52)
    for name in ("a", "b", "c", "d", "m", "n", "f", "g"):
        assert approx_pt(getattr(rot, name),
                         rotate(getattr(base, name), math.pi / 2))


def test_reconstruct_rectangle_properties(rng):
    for _ in range(200):
        s = VehicleState("t", rng.uniform(-50, 50), rng.uniform(-50, 50),
                         rng.uniform(-math.pi, math.pi) or math.pi,
                         rng.uniform(0.5, 15.0), rng.uniform(0.5, 3.0))
        b = reconstruct_box(s, 0.52)
        # opposite sides equal within 1e-9
        assert math.isclose(math.dist(b.a, b.b), math.dist(b.d, b.c), abs_tol=1e-9)
        assert math.isclose(math.dist(b.a, b.d), math.dist(b.b, b.c), abs_tol=1e-9)
        assert math.isclose(math.dist(b.a, b.b), s.width, abs_tol=1e-9)
        assert math.isclose(math.dist(b.a, b.d), s.length, abs_tol=1e-9)
        # plate centered on the rear edge, centrosymmetric about the center
        cx = 0.5 * (b.a[0] + b.c[0])
        cy = 0.5 * (b.a[1] + b.c[1])
        mirror_m = (2 * cx - b.m[0], 2 * cy - b.m[1])
        front_plate_m = (b.m[0] + (b.f[0] - b.g[0]), b.m[1] + (b.f[1] - b.g[1]))
        assert approx_pt(mirror_m, (front_plate_m[0] - (b.m[0] - b.n[0]),
                                    front_plate_m[1] - (b.m[1] - b.n[1])))
        assert approx_pt(((b.m[0] + b.n[0]) / 2, (b.m[1] + b.n[1]) / 2), b.g)


# --- to_camera_frame ------------------------------------------------------

def test_transform_identity():
    cam = CameraPose(0.0, 0.0, 0.0)
    assert to_camera_frame(cam, (3.0, 4.0, 1.0)) == (3.0, 4.0, 1.0)


def test_transform_quarter_turn():
    cam = CameraPose(0.0, 0.0, math.pi / 2)
    x, y, b = to_camera_frame(cam, (0.0, 1.0, math.pi / 2))
    assert math.isclose(x, 1.0, abs_tol=1e-12)
    assert math.isclose(y, 0.0, abs_tol=1e-12)
    assert b == 0.0


def test_transform_inverse_composition(rng):
    for _ in range(500):
        cam = CameraPose(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                         rng.uniform(-math.pi, math.pi) or math.pi)
        pose = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                rng.uniform(-math.pi, math.pi) or math.pi)
        back = from_camera_frame(cam, to_camera_frame(cam, pose))
        assert math.isclose(back[0], pose[0], abs_tol=1e-9)
        assert math.isclose(back[1], pose[1], abs_tol=1e-9)
        assert math.isclose(normalize_angle(back[2] - pose[2]), 0.0, abs_tol=1e-9)


def test_transform_is_isometry(rng):
    for _ in range(500):
        cam = CameraPose(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                         rng.uniform(-math.pi, math.pi) or math.pi)
        p = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), 0.0)
        q = (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), 0.0)
        tp = to_camera_frame(cam, p)
        tq = to_camera_frame(cam, q)
        assert math.isclose(math.dist(p[:2], q[:2]), math.dist(tp[:2], tq[:2]),
                            abs_tol=1e-9)


def kernel_scene(rng, ego, n):
    """Neighbours around the ego with the camera kernel's edge cases: plate
    headings on both sides of +-pi/2 and across the +-pi seam, exact
    dist_g ties (twins under another id, mirror images about the camera
    axis) and boxes that contain the camera origin."""
    edges = (math.pi / 2, -math.pi / 2, math.pi, -math.pi + 1e-12,
             math.pi - 1e-12, math.pi / 2 + 1e-12, -math.pi / 2 - 1e-12,
             math.pi / 2 - 1e-12, 0.0)
    ch, sh = math.cos(ego.heading), math.sin(ego.heading)
    scene = []
    for _ in range(n):
        # camera-frame pose, mapped to the world frame
        x, y = rng.uniform(-5.0, 60.0), rng.uniform(-30.0, 30.0)
        h = rng.choice(edges) if rng.random() < 0.4 else rng.uniform(
            -math.pi, math.pi)
        length, width = rng.uniform(3.0, 12.0), rng.uniform(1.5, 2.5)
        poses = [(x, y, h)]
        if rng.random() < 0.2:
            poses.append((x, -y, -h))
        for x, y, h in poses:
            s = VehicleState(f"k{len(scene):03d}", ego.x + ch * x - sh * y,
                             ego.y + sh * x + ch * y,
                             normalize_angle(ego.heading + h), length, width)
            scene.append(s)
            if rng.random() < 0.1:
                scene.append(VehicleState(f"k{len(scene):03d}", s.x, s.y,
                                          s.heading, length, width))
    if rng.random() < 0.3:
        scene.append(VehicleState("around", ego.x + 2.0 * ch,
                                  ego.y + 2.0 * sh, ego.heading, 4.0, 2.0))
    # front edge on the camera's lateral axis (exactly when the ego heading
    # is 0): in view only at a 90 degree half angle
    y = rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 30.0)
    scene.append(VehicleState("lateral", ego.x - sh * y, ego.y + ch * y,
                              ego.heading, 4.0, 2.0))
    return scene


@pytest.mark.parametrize("fov_deg", [5.0, 45.0, 90.0])
@pytest.mark.parametrize("plate_deg", [20.0, 60.0, 90.0])
def test_perceive_bit_equal_to_stage_pipeline(fov_deg, plate_deg, rng):
    """The fused kernel in perceive against the public stage functions
    composed one by one (perceive_naive): equal outputs, exactly."""
    cfg = PerceptionConfig(fov_half_angle=math.radians(fov_deg),
                           max_plate_angle=math.radians(plate_deg))
    seen = 0
    for _ in range(60):
        heading = rng.choice((0.0, math.pi / 2, math.pi,
                              rng.uniform(-math.pi, math.pi) or math.pi))
        ego = VehicleState("ego", rng.uniform(-300.0, 300.0),
                           rng.uniform(-300.0, 300.0), heading)
        scene = kernel_scene(rng, ego, rng.randint(1, 30))
        got = perceive(ego, scene, cfg, 4)
        assert got == perceive_naive(ego, scene, cfg, 4)
        seen += len(got)
    assert seen > 0


# --- fov_relevant ---------------------------------------------------------

CFG = PerceptionConfig(fov_half_angle=math.pi / 4, max_range=100.0)


def test_fov_all_behind():
    corners = [(-1.0, 0.5), (-1.0, -0.5), (-2.0, -0.5), (-2.0, 0.5)]
    assert not fov_relevant(corners, CFG)


def test_fov_on_axis():
    corners = [(1.0, 0.0), (-5.0, 3.0), (-5.0, -3.0), (-1.0, 0.5)]
    assert fov_relevant(corners, CFG)


def test_fov_boundary_ray_inclusive():
    t = math.tan(CFG.fov_half_angle)
    corners = [(2.0, 2.0 * t), (-10.0, 50.0), (-10.0, 60.0), (-20.0, 50.0)]
    assert fov_relevant(corners, CFG)


def test_fov_range_boundary_inclusive():
    corners = [(100.0, 0.0), (200.0, 0.0), (200.0, 1.0), (100.0, 1.0)]
    assert fov_relevant(corners, CFG)
    corners = [(100.0000001, 0.0), (200.0, 0.0), (200.0, 1.0), (150.0, 1.0)]
    assert not fov_relevant(corners, CFG)


def test_fov_in_angle_but_out_of_range():
    corners = [(150.0, 0.0), (160.0, 0.0), (160.0, 1.0), (150.0, 1.0)]
    assert not fov_relevant(corners, CFG)


def test_fov_half_pi_accepts_side():
    cfg = PerceptionConfig(fov_half_angle=math.pi / 2, max_range=100.0)
    corners = [(0.0, 5.0), (-1.0, 5.0), (-1.0, 6.0), (0.0, 6.0)]
    assert fov_relevant(corners, cfg)


# --- normalize_heading ----------------------------------------------------

def cam_box(heading):
    state = VehicleState("t", 10.0, 0.0, heading, 4.0, 2.0)
    return box_to_camera(CameraPose(0.0, 0.0, 0.0),
                         reconstruct_box(state, 0.52))


def test_normalize_heading_identity():
    b = cam_box(0.0)
    assert normalize_heading(b) is b


def test_normalize_heading_pi_swaps_labels():
    b = cam_box(math.pi)
    nb = normalize_heading(b)
    assert nb.heading == 0.0
    # plate and G now on the formerly-front edge
    assert approx_pt(nb.g, b.f)
    assert approx_pt(nb.f, b.g)
    assert {tuple(nb.a), tuple(nb.b), tuple(nb.c), tuple(nb.d)} == \
           {tuple(b.a), tuple(b.b), tuple(b.c), tuple(b.d)}
    # rear edge midpoint still carries the plate
    assert approx_pt(((nb.m[0] + nb.n[0]) / 2, (nb.m[1] + nb.n[1]) / 2), nb.g)


def test_normalize_heading_generic_angle():
    b = cam_box(0.6 * math.pi)
    nb = normalize_heading(b)
    assert math.isclose(abs(nb.heading), 0.4 * math.pi, abs_tol=1e-12)
    assert abs(nb.heading) <= math.pi / 2


def test_normalize_heading_boundary_untouched():
    b = cam_box(math.pi / 2)
    assert normalize_heading(b) is b


# --- projection_angles ----------------------------------------------------

def manual_box(corners, m, n, g, heading=0.0):
    (a, b, c, d) = corners
    f = (2 * ((a[0] + c[0]) / 2) - g[0], 2 * ((a[1] + c[1]) / 2) - g[1])
    return BoundingBox(a, b, c, d, m, n, f, g, heading)


def test_projection_angles_example():
    box = manual_box([(4.0, 1.0), (4.0, -1.0), (2.0, -1.0), (2.0, 1.0)],
                     m=(3.0, 0.26), n=(3.0, -0.26), g=(3.0, 0.0))
    view = projection_angles(box, "x")
    assert view.delta1 == -math.atan2(1.0, 2.0)
    assert view.delta2 == math.atan2(1.0, 2.0)
    assert view.delta1 <= view.rho1 <= view.rho2 <= view.delta2
    assert view.rho1 == -view.rho2
    assert view.dist_g == 3.0
    assert view.box_spans == ((view.delta1, view.delta2),)
    assert view.plate_spans == ((view.rho1, view.rho2),)


def test_projection_symmetric_box():
    box = manual_box([(2.0, 1.0), (4.0, 1.0), (4.0, -1.0), (2.0, -1.0)],
                     m=(3.0, 0.2), n=(3.0, -0.2), g=(3.0, 0.0))
    view = projection_angles(box)
    assert view.delta1 == -view.delta2


def test_projection_rejects_origin_inside():
    box = manual_box([(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)],
                     m=(-1.0, 0.2), n=(-1.0, -0.2), g=(-1.0, 0.0))
    with pytest.raises(GeometryError):
        projection_angles(box)


def test_projection_seam_crossing_box():
    # box behind the camera straddling the -x axis: arc crosses +-pi
    box = manual_box([(-2.0, 0.5), (-2.0, -0.5), (-4.0, -0.5), (-4.0, 0.5)],
                     m=(-4.0, 0.2), n=(-4.0, -0.2), g=(-4.0, 0.0))
    view = projection_angles(box)
    assert len(view.box_spans) == 2
    spans = sorted(view.box_spans)
    assert spans[0][0] == -math.pi
    assert spans[1][1] == math.pi
    # principal min/max still the plain extremes of the corner arguments
    assert view.delta1 == min(math.atan2(y, x) for x, y in box.corners)
    assert view.delta2 == max(math.atan2(y, x) for x, y in box.corners)
    # the true arc is narrow even though principal values straddle the seam
    width = sum(b - a for a, b in view.box_spans)
    assert width < math.pi


def test_projection_invariant_random(rng):
    for _ in range(300):
        s = VehicleState("t", rng.uniform(-60, 60), rng.uniform(-60, 60),
                         rng.uniform(-math.pi, math.pi) or math.pi,
                         rng.uniform(1.0, 10.0), rng.uniform(1.0, 3.0))
        box = box_to_camera(CameraPose(0.0, 0.0, 0.0),
                            reconstruct_box(s, 0.52))
        box = normalize_heading(box)
        try:
            view = projection_angles(box, s.id)
        except GeometryError:
            continue
        if len(view.box_spans) == 1:
            assert view.delta1 <= view.rho1 <= view.rho2 <= view.delta2
        # plate arc always inside box arc (span arithmetic)
        for pa, pb in view.plate_spans:
            assert any(ba - 1e-12 <= pa and pb <= bb + 1e-12
                       for ba, bb in view.box_spans)
        for a, b in view.box_spans + view.plate_spans:
            assert -math.pi <= a <= b <= math.pi


# --- heading_visible ------------------------------------------------------

def test_heading_visible():
    cfg = PerceptionConfig(max_plate_angle=math.pi / 3)
    assert heading_visible(0.0, cfg)
    assert heading_visible(math.pi / 3, cfg)  # inclusive
    assert not heading_visible(math.pi / 2, cfg)
