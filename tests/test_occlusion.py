import math
import random

import pytest

from cavsim.errors import ContractViolation, GeometryError
from cavsim.perception import (CameraPose, PerceptionConfig, ProjectionView,
                               _unoccluded, box_to_camera, fov_relevant,
                               get_visible_lines, get_visible_lines_naive,
                               normalize_heading, projection_angles,
                               reconstruct_box)
from conftest import random_scene


def view(vid, d1, d2, r1, r2, dist):
    return ProjectionView(vid, dist, 0.0, ((d1, d2),), ((r1, r2),))


def scene_views(states, cfg=None):
    """The perception pipeline up to (and excluding) the occlusion filter."""
    cfg = cfg or PerceptionConfig()
    cam = CameraPose(0.0, 0.0, 0.0)
    views = []
    for s in states:
        box = box_to_camera(cam, reconstruct_box(s, cfg.plate_width))
        if not fov_relevant(box.corners, cfg):
            continue
        box = normalize_heading(box)
        try:
            views.append(projection_angles(box, s.id))
        except GeometryError:
            continue
    views.sort(key=lambda v: (v.dist_g, v.vehicle_id))
    return views


def test_empty_input():
    assert get_visible_lines([]) == []
    assert get_visible_lines_naive([]) == []


def test_single_candidate_always_visible():
    v = view("a", -0.5, 0.5, -0.1, 0.1, 10.0)
    assert get_visible_lines([v]) == [v]
    assert get_visible_lines_naive([v]) == [v]


def test_near_box_occludes_far_plate():
    near = view("near", -0.5, 0.5, -0.2, 0.2, 5.0)
    far = view("far", -0.6, 0.6, -0.1, 0.1, 20.0)
    assert get_visible_lines([near, far]) == [near]
    assert get_visible_lines_naive([near, far]) == [near]


def test_partial_plate_overlap_occludes():
    near = view("near", 0.1, 0.5, 0.2, 0.3, 5.0)
    far = view("far", -0.6, 0.6, 0.05, 0.15, 20.0)  # plate pokes into [0.1,0.5]
    assert get_visible_lines([near, far]) == [near]


def test_tangential_contact_does_not_occlude():
    # plate interval is open, box interval closed: shared endpoint only
    near = view("near", -0.5, 0.1, -0.2, 0.1, 5.0)
    far = view("far", -0.6, 0.6, 0.1, 0.3, 20.0)
    assert get_visible_lines([near, far]) == [near, far]
    assert get_visible_lines_naive([near, far]) == [near, far]


def test_far_plate_disjoint_is_visible():
    near = view("near", -0.5, -0.1, -0.3, -0.2, 5.0)
    far = view("far", -0.6, 0.6, 0.2, 0.4, 20.0)
    assert get_visible_lines([near, far]) == [near, far]


def test_equal_distance_candidates_do_not_occlude_each_other():
    a = view("a", -0.5, 0.5, -0.2, 0.2, 10.0)
    b = view("b", -0.5, 0.5, -0.1, 0.1, 10.0)
    behind = view("c", -0.5, 0.5, -0.1, 0.1, 11.0)
    assert get_visible_lines([a, b, behind]) == [a, b]
    assert get_visible_lines_naive([a, b, behind]) == [a, b]


def test_union_of_nearer_boxes_occludes():
    # neither nearer box alone covers the far plate, their union does
    left = view("l", -0.3, 0.0, -0.2, -0.1, 5.0)
    right = view("r", 0.0, 0.3, 0.1, 0.2, 6.0)
    far = view("f", -0.6, 0.6, -0.05, 0.05, 20.0)
    assert get_visible_lines([left, right, far]) == [left, right]
    # and a plate crossing only a gap stays visible
    gap_left = view("l2", -0.3, -0.1, -0.25, -0.2, 5.0)
    gap_right = view("r2", 0.1, 0.3, 0.15, 0.2, 6.0)
    thin = view("f2", -0.6, 0.6, -0.05, 0.05, 20.0)
    assert get_visible_lines([gap_left, gap_right, thin]) == \
        [gap_left, gap_right, thin]


def test_unsorted_input_rejected():
    a = view("a", -0.5, 0.5, -0.2, 0.2, 10.0)
    b = view("b", -0.5, 0.5, -0.1, 0.1, 5.0)
    with pytest.raises(ContractViolation):
        get_visible_lines([a, b])
    with pytest.raises(ContractViolation):
        get_visible_lines_naive([a, b])


def test_zero_width_plate_never_occluded():
    near = view("near", -0.5, 0.5, -0.2, 0.2, 5.0)
    degenerate = ProjectionView("deg", 20.0, 0.0, ((-0.6, 0.6),),
                                ((0.0, 0.0),))
    assert get_visible_lines([near, degenerate]) == [near, degenerate]
    assert get_visible_lines_naive([near, degenerate]) == [near, degenerate]


def test_seam_crossing_occluder():
    # a wrapped box (two spans hugging +-pi) occludes a plate near the seam
    wrapped = ProjectionView("w", 5.0, 0.0,
                             ((3.0, math.pi), (-math.pi, -3.0)),
                             ((3.12, math.pi),))
    target = ProjectionView("t", 10.0, 0.0, ((3.05, math.pi),),
                            ((3.1, 3.14),))
    clear = ProjectionView("c", 10.0, 0.0, ((0.5, 1.0),), ((0.6, 0.9),))
    assert get_visible_lines([wrapped, target, clear]) == [wrapped, clear]
    assert get_visible_lines_naive([wrapped, target, clear]) == [wrapped, clear]


def test_output_preserves_input_order(rng):
    views = scene_views(random_scene(rng, 40))
    out = get_visible_lines(views)
    positions = {id(v): i for i, v in enumerate(views)}
    assert [positions[id(v)] for v in out] == \
        sorted(positions[id(v)] for v in out)


def test_matches_naive_oracle_on_random_scenes():
    rng = random.Random(1234)
    checked = 0
    for _ in range(300):
        views = scene_views(random_scene(rng, rng.randint(0, 50)))
        fast = get_visible_lines(views)
        slow = get_visible_lines_naive(views)
        assert fast == slow
        checked += len(views)
    assert checked > 1000


def test_matches_naive_on_dense_synthetic_intervals():
    # adversarial: many overlapping hand-rolled intervals incl. shared endpoints
    rng = random.Random(99)
    for _ in range(200):
        views = []
        endpoints = [rng.uniform(-math.pi, math.pi) for _ in range(8)]
        for i in range(rng.randint(0, 25)):
            a, b = sorted(rng.sample(endpoints, 2))
            lo = rng.uniform(a, b)
            hi = rng.uniform(lo, b)
            views.append(view(f"v{i:02d}", a, b, lo, hi,
                              float(rng.randint(1, 6))))
        views.sort(key=lambda v: (v.dist_g, v.vehicle_id))
        assert get_visible_lines(views) == get_visible_lines_naive(views)


# --- the interval union: each merge and query case against the oracle -------

def check_filter(views, visible_ids):
    # the probes of each case share one distance, so they test the union
    # of the nearer boxes without occluding each other
    fast = get_visible_lines(views)
    assert fast == get_visible_lines_naive(views)
    assert [v.vehicle_id for v in fast] == visible_ids


def test_box_touching_stored_interval_at_endpoint():
    # [0, 0.2] and [0.2, 0.4] share one point; the union is [0, 0.4]
    views = [view("a", 0.0, 0.2, -0.9, -0.8, 5.0),
             view("b", 0.2, 0.4, 0.9, 1.0, 6.0),
             view("inside", -1.0, 1.0, 0.15, 0.25, 9.0),
             view("tangent_hi", -1.0, 1.0, 0.4, 0.5, 9.0),
             view("tangent_lo", -1.0, 1.0, -0.1, 0.0, 9.0),
             view("degenerate", -1.0, 1.0, 0.2, 0.2, 9.0)]
    check_filter(views, ["a", "b", "tangent_hi", "tangent_lo",
                         "degenerate"])


def test_box_nested_inside_stored_interval():
    # merging [-0.1, 0.1] must not shrink the stored [-0.5, 0.5]
    views = [view("outer", -0.5, 0.5, -0.2, 0.2, 5.0),
             view("nested", -0.1, 0.1, -0.05, 0.05, 6.0),
             view("edge", -1.0, 1.0, 0.3, 0.4, 9.0),
             view("clear", -1.0, 1.0, 0.5, 0.6, 9.0)]
    check_filter(views, ["outer", "clear"])


def test_box_bridging_three_stored_intervals():
    views = [view("p", 0.0, 0.1, -0.9, -0.8, 1.0),
             view("q", 0.2, 0.3, -0.7, -0.6, 2.0),
             view("r", 0.4, 0.5, -0.5, -0.4, 3.0),
             view("gap", 0.11, 0.19, 0.12, 0.18, 4.0),   # visible: in a gap
             view("bridge", 0.05, 0.45, 0.9, 1.0, 5.0),
             view("gap_after", -1.0, 1.0, 0.32, 0.38, 9.0),
             view("past_end", -1.0, 1.0, 0.5, 0.6, 9.0),
             view("before", -1.0, 1.0, -0.3, 0.0, 9.0)]
    check_filter(views, ["p", "q", "r", "gap", "bridge", "past_end",
                         "before"])


def test_seam_split_box():
    seam = ProjectionView("seam", 5.0, 0.0,
                          ((3.0, math.pi), (-math.pi, -3.0)), ((1.0, 1.1),))

    def plate(vid, spans, dist):
        return ProjectionView(vid, dist, 0.0, ((-math.pi, math.pi),), spans)

    views = [seam,
             plate("upper", ((3.1, 3.14),), 9.0),
             plate("lower", ((-3.14, -3.1),), 9.0),
             plate("across", ((3.13, math.pi), (-math.pi, -3.13)), 9.0),
             plate("tangent_lower", ((-3.0, -2.9),), 9.0),
             plate("tangent_upper", ((2.9, 3.0),), 9.0)]
    check_filter(views, ["seam", "tangent_lower", "tangent_upper"])


def test_equal_distance_group_tested_before_merge():
    # a's box covers b's plate and b's box covers a's plate; merged one by
    # one they would hide each other, tested as a group neither is hidden
    near = view("near", 2.0, 2.5, 2.1, 2.2, 1.0)
    a = view("a", -0.5, 0.0, 0.1, 0.2, 10.0)
    b = view("b", 0.0, 0.5, -0.2, -0.1, 10.0)
    c = view("c", -0.4, 0.4, 0.3, 0.35, 10.0)
    behind_a = view("behind_a", -1.0, 1.0, -0.4, -0.3, 11.0)
    behind_c = view("behind_c", -1.0, 1.0, 0.32, 0.33, 11.0)
    check_filter([near, a, b, c], ["near", "a", "b", "c"])
    check_filter([near, a, b, c, behind_a, behind_c], ["near", "a", "b", "c"])
    check_filter([a, b, c, behind_c], ["a", "b", "c"])


# --- the lazy filter: which spans it reads ------------------------------------

def counting_reader(spans, log):
    """A span reader over named spans that logs each name it is asked for."""
    def read(name):
        log.append(name)
        return spans[name]
    return read


def run_lazy(candidates, boxes, plates):
    box_log, plate_log = [], []
    got = _unoccluded(candidates, counting_reader(boxes, box_log),
                      counting_reader(plates, plate_log))
    return [c[1] for c in got], box_log, plate_log


def test_filter_reads_only_the_spans_it_needs():
    # (dist_g, id, box, plate, item); the plate is None when unreadable
    boxes = {"a": ((-0.1, 0.1),), "b": ((0.05, 0.3),), "c": ((0.5, 0.7),),
             "e": ((-1.0, 1.0),), "f": ((-1.0, 1.0),), "g": ((-1.0, 1.0),),
             "h": ((-1.0, 1.0),)}
    plates = {"a": ((-0.05, 0.05),), "b": ((0.1, 0.2),),
              "e": ((0.55, 0.6),), "f": ((0.35, 0.45),)}
    candidates = [(1.0, "a", "a", "a", "A"),
                  (1.0, "b", "b", "b", "B"),   # ties with a: not hidden
                  (2.0, "c", "c", None, "C"),  # unreadable, still occludes
                  (3.0, "e", "e", "e", "E"),   # behind c's box
                  (3.0, "f", "f", "f", "F"),   # the last readable plate
                  (4.0, "g", "g", None, "G"),
                  (5.0, "h", "h", None, "H")]
    visible, box_log, plate_log = run_lazy(candidates, boxes, plates)
    assert visible == ["a", "b", "f"]
    # a and b are seen while the union is empty, so their plates are not
    # read; no box from f's distance on is read, and nothing after f
    assert box_log == ["a", "b", "c"]
    assert plate_log == ["e", "f"]


def test_filter_reads_nothing_without_a_readable_plate():
    candidates = [(1.0, "a", "a", None, "A"), (2.0, "b", "b", None, "B")]
    assert run_lazy(candidates, {}, {}) == ([], [], [])

