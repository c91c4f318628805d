"""Geometric forward-camera model.

The camera sits at the origin of the camera frame looking along +x;
Arg(p) = atan2(py, px) in [-pi, pi].  A vehicle is a perfect rectangle
whose front-bumper center is its trace position; numberplates are short
segments centered on the front and rear bumpers, centrosymmetric about
the rectangle center.  Perceiving a vehicle means its camera-facing plate
is inside the field of view, fully unoccluded by nearer vehicles, and not
rotated past the readability threshold.

The pipeline: reconstruct rectangles in world frame, transform to the
camera frame, discard boxes with no corner in view, normalize headings so
every candidate effectively tails the camera, reduce each candidate to
angular intervals, resolve occlusion on the flattened [-pi, pi] number
line, and finally filter by plate rotation.  The public stage functions
(reconstruct_box, box_to_camera, fov_relevant, normalize_heading,
projection_angles, get_visible_lines, heading_visible) spell it out step
by step and are the reference.  perceive runs it as one fused kernel over
plain floats, bit-equal to the stages composed.  It keeps each candidate's
camera-frame corners and plate ends and computes their angular spans only
where the occlusion filter reads them; that one filter also serves
get_visible_lines, which hands it the spans its views carry.  A plate
rotated past readability is never projected, but its box still occludes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ConfigError, ContractViolation, GeometryError
from .messages import PerceivedObject
from .trace import TAU, VehicleState, normalize_angle

HALF_PI = 0.5 * math.pi

Point = tuple[float, float]
Span = tuple[float, float]


@dataclass(frozen=True, slots=True)
class CameraPose:
    """World-frame pose of the ego camera."""

    x0: float
    y0: float
    beta0: float


@dataclass(frozen=True, slots=True)
class PerceptionConfig:
    """Camera settings.  `_kernel` holds the constants perceive derives
    from them, computed once per config (dataclasses.replace recomputes
    them)."""

    fov_half_angle: float = math.radians(45.0)
    max_range: float = 100.0
    max_plate_angle: float = math.radians(60.0)
    plate_width: float = 0.52
    _kernel: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        half = self.fov_half_angle
        if not (0.0 < half <= HALF_PI):
            raise ConfigError("fov_half_angle must be in (0, pi/2]")
        if self.max_range <= 0 or self.max_plate_angle <= 0 or self.plate_width <= 0:
            raise ConfigError("perception distances and angles must be positive")
        # fov_relevant's angular test, as 0 <= x and |y| * wy <= wx * x:
        # |y| <= tan * x below pi/2 (at x == 0 only y == 0 passes), any y
        # at pi/2
        wy, wx = (1.0, math.tan(half)) if half < HALF_PI else (0.0, 1.0)
        object.__setattr__(self, "_kernel", (
            wy, wx, math.sin(half), math.cos(half),
            self.max_range * self.max_range, 0.5 * self.plate_width))


@dataclass(slots=True)
class BoundingBox:
    """Vehicle rectangle with labeled landmarks, in one coordinate frame.

    Corners a,b,c,d run front-left, front-right, rear-right, rear-left
    (clockwise).  m,n are the plate endpoints on the rear edge; f and g
    the front/rear bumper centers.  Treated as immutable.
    """

    a: Point
    b: Point
    c: Point
    d: Point
    m: Point
    n: Point
    f: Point
    g: Point
    heading: float

    @property
    def corners(self) -> tuple[Point, Point, Point, Point]:
        return (self.a, self.b, self.c, self.d)


@dataclass(slots=True)
class ProjectionView:
    """A candidate reduced to angular intervals in the camera frame.

    box_spans and plate_spans are the angular extents of the box corners
    and of the plate ends: a single interval normally, two sub-intervals
    when the extent crosses the +-pi seam.
    """

    vehicle_id: str
    dist_g: float
    heading: float
    box_spans: tuple[Span, ...]
    plate_spans: tuple[Span, ...]


def reconstruct_box(state: VehicleState, plate_width: float) -> BoundingBox:
    """World-frame rectangle from a front-bumper pose and dimensions."""
    ch = math.cos(state.heading)
    sh = math.sin(state.heading)
    fx, fy = state.x, state.y
    hw = 0.5 * state.width
    dxl = state.length * ch
    dyl = state.length * sh
    ax, ay = fx - sh * hw, fy + ch * hw
    bx, by = fx + sh * hw, fy - ch * hw
    gx, gy = fx - dxl, fy - dyl
    hp = 0.5 * plate_width
    return BoundingBox(
        (ax, ay), (bx, by), (bx - dxl, by - dyl), (ax - dxl, ay - dyl),
        (gx - sh * hp, gy + ch * hp), (gx + sh * hp, gy - ch * hp),
        (fx, fy), (gx, gy), state.heading)


def box_to_camera(cam: CameraPose, box: BoundingBox) -> BoundingBox:
    """Transform every landmark of a box into the camera frame."""
    cb = math.cos(cam.beta0)
    sb = math.sin(cam.beta0)
    x0 = cam.x0
    y0 = cam.y0
    ax, ay = box.a[0] - x0, box.a[1] - y0
    bx, by = box.b[0] - x0, box.b[1] - y0
    cx, cy = box.c[0] - x0, box.c[1] - y0
    dx, dy = box.d[0] - x0, box.d[1] - y0
    mx, my = box.m[0] - x0, box.m[1] - y0
    nx, ny = box.n[0] - x0, box.n[1] - y0
    fx, fy = box.f[0] - x0, box.f[1] - y0
    gx, gy = box.g[0] - x0, box.g[1] - y0
    return BoundingBox(
        (cb * ax + sb * ay, cb * ay - sb * ax),
        (cb * bx + sb * by, cb * by - sb * bx),
        (cb * cx + sb * cy, cb * cy - sb * cx),
        (cb * dx + sb * dy, cb * dy - sb * dx),
        (cb * mx + sb * my, cb * my - sb * mx),
        (cb * nx + sb * ny, cb * ny - sb * nx),
        (cb * fx + sb * fy, cb * fy - sb * fx),
        (cb * gx + sb * gy, cb * gy - sb * gx),
        normalize_angle(box.heading - cam.beta0))


def fov_relevant(corners, cfg: PerceptionConfig) -> bool:
    """True when at least one corner is inside the FOV wedge and range.

    Both boundaries are inclusive.  The angular test |Arg(p)| <= fov uses
    the tangent form |y| <= tan(fov) * x, which is exact on the boundary
    ray itself.  A vehicle failing this can neither be identified nor
    occlude anything.
    """
    r2 = cfg.max_range * cfg.max_range
    half = cfg.fov_half_angle
    tan_half = math.tan(half) if half < HALF_PI else None
    for x, y in corners:
        if x * x + y * y > r2:
            continue
        if x > 0.0:
            if tan_half is None or abs(y) <= tan_half * x:
                return True
        elif x == 0.0:
            if y == 0.0 or tan_half is None:
                return True
    return False


def normalize_heading(box: BoundingBox) -> BoundingBox:
    """Relabel a camera-frame box so it effectively tails the camera.

    When |heading| > pi/2 the vehicle shows the camera its front; the role
    labels are rotated by pi (front/rear edges exchange, the plate and
    bumper centers move to their centrosymmetric twins) so the plate under
    consideration is always the one facing the camera.  The rectangle
    itself is unchanged and afterwards |heading| <= pi/2.
    """
    h = box.heading
    if -HALF_PI <= h <= HALF_PI:
        return box
    nh = h - math.pi if h > 0 else h + math.pi
    cx = 0.5 * (box.a[0] + box.c[0])
    cy = 0.5 * (box.a[1] + box.c[1])
    tx = cx + cx
    ty = cy + cy
    return BoundingBox(box.c, box.d, box.a, box.b,
                       (tx - box.m[0], ty - box.m[1]),
                       (tx - box.n[0], ty - box.n[1]),
                       box.g, box.f, nh)


def _contains_origin(corners) -> bool:
    """Inside-or-on test for the camera origin against a clockwise box."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = corners
    if ax * (by - ay) - ay * (bx - ax) > 0.0:
        return False
    if bx * (cy - by) - by * (cx - bx) > 0.0:
        return False
    if cx * (dy - cy) - cy * (dx - cx) > 0.0:
        return False
    if dx * (ay - dy) - dy * (ax - dx) > 0.0:
        return False
    return True


def _spans(args) -> tuple[Span, ...]:
    """Angular extent of the arguments (atan2 values) of a point set.

    The extent of a convex set not containing the origin is an arc
    narrower than pi, unwrapped around the first argument; when the arc
    crosses the +-pi seam it is split into two principal sub-intervals.
    """
    pi = math.pi
    ref = args[0]
    lo = hi = ref
    for a in args:
        if a - ref > pi:
            a -= TAU
        elif ref - a > pi:
            a += TAU
        if a < lo:
            lo = a
        elif a > hi:
            hi = a
    if lo >= -pi and hi <= pi:
        return ((lo, hi),)
    if hi > pi:
        return ((lo, pi), (-pi, hi - TAU))
    return ((lo + TAU, pi), (-pi, hi))


def _box_spans(box) -> tuple[Span, ...]:
    """_spans of the arguments of camera-frame corners (ax, ay, ..., dy).

    When the arguments lie within pi of each other, every difference
    _spans tests for unwrapping is at most fl(hi - lo) <= pi (rounding is
    monotone), so it unwraps nothing and returns ((lo, hi),), found by its
    own strict comparisons (the first of equal values wins).
    """
    ax, ay, bx, by, cx, cy, dx, dy = box
    atan2 = math.atan2
    lo = hi = a = atan2(ay, ax)
    b = atan2(by, bx)
    c = atan2(cy, cx)
    d = atan2(dy, dx)
    lo = b if b < lo else lo
    hi = b if b > hi else hi
    lo = c if c < lo else lo
    hi = c if c > hi else hi
    lo = d if d < lo else lo
    hi = d if d > hi else hi
    if hi - lo <= math.pi:
        return ((lo, hi),)
    return _spans((a, b, c, d))


def _plate_spans(plate) -> tuple[Span, ...]:
    """_spans of the arguments of camera-frame plate ends (mx, my, nx, ny),
    by the shortcut of _box_spans."""
    lo = hi = a = math.atan2(plate[1], plate[0])
    b = math.atan2(plate[3], plate[2])
    lo = b if b < lo else lo
    hi = b if b > hi else hi
    if hi - lo <= math.pi:
        return ((lo, hi),)
    return _spans((a, b))


def projection_angles(box: BoundingBox, vehicle_id: str = "") -> ProjectionView:
    """Reduce a camera-frame box to its angular intervals.

    Rejects boxes containing the camera origin: the view direction of such
    a box is undefined.
    """
    corners = (box.a, box.b, box.c, box.d)
    if _contains_origin(corners):
        raise GeometryError("box contains the camera origin")
    box_args = [math.atan2(y, x) for x, y in corners]
    plate_args = [math.atan2(y, x) for x, y in (box.m, box.n)]
    return ProjectionView(vehicle_id, math.hypot(box.g[0], box.g[1]),
                          box.heading, _spans(box_args), _spans(plate_args))


def heading_visible(heading: float, cfg: PerceptionConfig) -> bool:
    """True when the plate is not rotated past readability (inclusive)."""
    return abs(heading) <= cfg.max_plate_angle


def _check_sorted(candidates) -> None:
    prev = None
    for c in candidates:
        if prev is not None and c.dist_g < prev:
            raise ContractViolation("candidates not sorted by dist_g")
        prev = c.dist_g


def _spans_overlap(plate_spans, box_spans) -> bool:
    # Plate intervals are open, box intervals closed: tangential contact
    # (a shared endpoint) does not occlude.
    for pa, pb in plate_spans:
        if pa == pb:
            continue
        for ba, bb in box_spans:
            if ba < pb and pa < bb:
                return True
    return False


def get_visible_lines_naive(candidates) -> list[ProjectionView]:
    """Quadratic occlusion reference: a candidate survives iff its plate
    intervals intersect no box interval of any strictly nearer candidate.

    Kept as the independent oracle for the optimized filter.
    """
    _check_sorted(candidates)
    visible = []
    for i, c in enumerate(candidates):
        occluded = False
        for j in range(i):
            o = candidates[j]
            if o.dist_g == c.dist_g:
                continue
            if _spans_overlap(c.plate_spans, o.box_spans):
                occluded = True
                break
        if not occluded:
            visible.append(c)
    return visible


def _unoccluded(candidates, box_spans, plate_spans) -> list:
    """Occlusion filter over (dist_g, id, box, plate, item) tuples sorted
    ascending by dist_g; box_spans(box) and plate_spans(plate) give their
    angular intervals.

    A candidate is visible iff its (open) plate intervals avoid the union
    of (closed) box intervals of all strictly nearer candidates; one whose
    plate is None is never visible but still occludes.  Spans are read
    only where the answer needs them: no box at or after the last
    readable plate, nothing after it, and no plate while the union is
    empty.  Boxes wait until the distance grows, so a box never hides a
    plate at its own distance.  The union is kept as disjoint closed
    intervals in two sorted lists, starts and ends, so a query is one
    bisect and a merge one bisect pair plus a slice assignment.  Merging
    only compares endpoints, never computes new ones, so the result is
    exact.  Output preserves input order.
    """
    n = len(candidates)
    while n and candidates[n - 1][3] is None:
        n -= 1
    starts: list[float] = []
    ends: list[float] = []
    held = []  # the boxes at distance d, merged once the distance grows
    d = None
    visible = []
    for c in candidates[:n]:
        if c[0] != d:
            for box in held:
                for a, b in box_spans(box):
                    lo = bisect_left(ends, a)
                    hi = bisect_right(starts, b)
                    if lo < hi:  # [a, b] meets stored intervals lo .. hi-1
                        if starts[lo] < a:
                            a = starts[lo]
                        if ends[hi - 1] > b:
                            b = ends[hi - 1]
                    starts[lo:hi] = (a,)
                    ends[lo:hi] = (b,)
            held = []
            d = c[0]
        held.append(c[2])
        if c[3] is None:
            continue
        if starts:
            for a, b in plate_spans(c[3]):
                if a == b:
                    continue
                # intervals before k end at or before a; those after k
                # start after starts[k], so k alone decides
                k = bisect_right(ends, a)
                if k < len(starts) and starts[k] < b:
                    break
            else:
                visible.append(c)
        else:  # nothing nearer yet: no spans needed
            visible.append(c)
    return visible


def get_visible_lines(candidates) -> list[ProjectionView]:
    """Occlusion filter over views sorted ascending by dist_g.

    The nearest candidate is always visible; each further candidate is
    visible iff its plate intervals avoid the box intervals of all
    strictly nearer candidates.  The views are run through the filter
    that perceive uses, with the spans they carry.
    """
    _check_sorted(candidates)
    if len(candidates) <= 1:
        return list(candidates)
    # the views carry their spans, and tuple() hands a tuple back as is
    return [c[4] for c in _unoccluded(
        [(v.dist_g, v.vehicle_id, v.box_spans, v.plate_spans, v)
         for v in candidates], tuple, tuple)]


_ORDER = itemgetter(0, 1)  # candidates by (dist_g, id)


def perceive(ego: VehicleState, neighbors, cfg: PerceptionConfig,
             tick: int = 0) -> tuple[PerceivedObject, ...]:
    """Full camera pipeline for one ego vehicle.

    Neighbors are expected to come from the spatial index within
    cfg.max_range of the ego.  Candidates whose rectangle contains the
    camera origin are skipped: they coincide with the sensor and are
    treated as neither perceivable nor occluding.  Returns the surviving
    vehicles as perceived objects carrying ground-truth poses, ordered by
    distance (ties by id).

    One loop over plain floats runs the stages of the public pipeline
    (reconstruct_box, box_to_camera, fov_relevant, normalize_heading,
    projection_angles, get_visible_lines, heading_visible) with the same
    operations in the same order, so the result is bit-equal to theirs.
    Each candidate keeps its camera-frame corners and plate ends; the
    plate is None when rotated past readability (its box still occludes,
    but it can never be output).  Their angular spans are computed only
    where the occlusion filter, the one get_visible_lines also uses,
    reads them: no box at or after the last readable plate, no plate
    while nothing nearer occludes, nothing for a lone candidate.
    """
    if not neighbors:
        return ()
    cb = math.cos(ego.heading)
    sb = math.sin(ego.heading)
    ex = ego.x
    ey = ego.y
    ego_id = ego.id
    ego_heading = ego.heading
    wy, wx, sf, cf, r2, hp = cfg._kernel
    max_plate = cfg.max_plate_angle
    pi = math.pi
    cands = []
    for s in neighbors:
        if s.id == ego_id:
            continue
        # Conservative FOV-wedge reject.  Every corner lies within
        # sqrt(length^2 + width^2/4) < length + width/2 of the front bumper
        # (strict, since the trace loader requires width > 0).  The camera
        # axis and the inward normals of the two wedge edges are unit
        # vectors, so a bumper farther than length + width/2 outside the
        # half-plane x' >= 0, or outside either edge's half-plane, leaves
        # every corner outside the wedge: fov_relevant would reject the box.
        sx = s.x
        sy = s.y
        u = sx - ex
        v = sy - ey
        fx = cb * u + sb * v  # the front bumper f in the camera frame
        fy = cb * v - sb * u
        reach = -(s.length + 0.5 * s.width)
        if (fx < reach or sf * fx - cf * fy < reach
                or sf * fx + cf * fy < reach):
            continue
        # reconstruct_box, then box_to_camera, on the corners a b c d
        ch = math.cos(s.heading)
        sh = math.sin(s.heading)
        hw = 0.5 * s.width
        dxl = s.length * ch
        dyl = s.length * sh
        wax = sx - sh * hw
        way = sy + ch * hw
        wbx = sx + sh * hw
        wby = sy - ch * hw
        u = wax - ex
        v = way - ey
        ax = cb * u + sb * v
        ay = cb * v - sb * u
        u = wbx - ex
        v = wby - ey
        bx = cb * u + sb * v
        by = cb * v - sb * u
        u = (wbx - dxl) - ex
        v = (wby - dyl) - ey
        cx = cb * u + sb * v
        cy = cb * v - sb * u
        u = (wax - dxl) - ex
        v = (way - dyl) - ey
        dx = cb * u + sb * v
        dy = cb * v - sb * u
        if not (0.0 <= ax and abs(ay) * wy <= wx * ax
                and ax * ax + ay * ay <= r2
                or 0.0 <= bx and abs(by) * wy <= wx * bx
                and bx * bx + by * by <= r2
                or 0.0 <= cx and abs(cy) * wy <= wx * cx
                and cx * cx + cy * cy <= r2
                or 0.0 <= dx and abs(dy) * wy <= wx * dx
                and dx * dx + dy * dy <= r2):
            continue  # fov_relevant
        # projection_angles rejects a box that contains the origin
        if (ax * (by - ay) - ay * (bx - ax) <= 0.0
                and bx * (cy - by) - by * (cx - bx) <= 0.0
                and cx * (dy - cy) - cy * (dx - cx) <= 0.0
                and dx * (ay - dy) - dy * (ax - dx) <= 0.0):
            continue
        gx = sx - dxl
        gy = sy - dyl
        h = s.heading - ego_heading
        if not -pi < h <= pi:  # normalize_angle returns h itself inside
            h = normalize_angle(h)
        flip = not -HALF_PI <= h <= HALF_PI
        if flip:  # normalize_heading: labels (c, d, a, b), g and f swap
            h = h - pi if h > 0 else h + pi
            dist_g = math.hypot(fx, fy)
        else:
            u = gx - ex
            v = gy - ey
            dist_g = math.hypot(cb * u + sb * v, cb * v - sb * u)
        readable = abs(h) <= max_plate  # heading_visible
        if readable:
            u = (gx - sh * hp) - ex
            v = (gy + ch * hp) - ey
            mx = cb * u + sb * v
            my = cb * v - sb * u
            u = (gx + sh * hp) - ex
            v = (gy - ch * hp) - ey
            nx = cb * u + sb * v
            ny = cb * v - sb * u
            if flip:
                tx = 0.5 * (ax + cx)
                ty = 0.5 * (ay + cy)
                tx = tx + tx
                ty = ty + ty
                mx = tx - mx
                my = ty - my
                nx = tx - nx
                ny = ty - ny
        cands.append((dist_g, s.id, (cx, cy, dx, dy, ax, ay, bx, by) if flip
                      else (ax, ay, bx, by, cx, cy, dx, dy),
                      (mx, my, nx, ny) if readable else None, s))
    if len(cands) > 1:
        cands.sort(key=_ORDER)
        cands = _unoccluded(cands, _box_spans, _plate_spans)
    elif not cands or cands[0][3] is None:  # a lone candidate: no spans
        return ()
    return tuple([PerceivedObject(s.id, s.x, s.y, s.heading, tick)
                  for _, _, _, _, s in cands])

