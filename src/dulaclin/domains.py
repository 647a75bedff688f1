"""Domain machinery: quadratic domains, bound functions, admissibility checks.

Everything here is sampled verification, not proof: "for x large enough"
conditions are tested on geometric grids and reports carry worst margins so
thresholds stay auditable.

The boundary of the quadratic domain kappa(C+) has a closed-form height
(quad_boundary_height).  A boundary map is one record of its function,
declared monotonicity and JSON object, built by one of five factories; a
union region holds the parts of the unions it is built from.

A band D_{h_l,h_u} is invariant only if h_u is an upper map (s = 1) and h_l
a lower map (s = -1).  With b = Im(beta), M the drift envelope and
rho_-/rho_+ the guaranteed real-part steps, the sampled conditions are:

  upper, b >= 0:  h increasing, h(x + rho_-(x)) - h(x) >= b + M(x);
  upper, b < 0:   h increasing, or h decreasing with
                  h(x + rho_+(x)) - h(x) >= b + M(x);
  lower, b > 0:   h decreasing, or h increasing with
                  h(x + rho_+(x)) - h(x) <= b - M(x);
  lower, b <= 0:  h decreasing, h(x + rho_-(x)) - h(x) <= b - M(x);

that is, h monotone like s, and if s*b >= 0 also s*(diff - (b + s*M)) >= 0
for diff at rho_-; if s*b < 0, h monotone like -s with that at rho_+ will
do instead.  check_upper_map and check_lower_map sample this on a geometric
grid from max(domain start, R) to MAP_X_MAX; verify-domain runs both on
every band.

check_invariance evaluates its samples in chunks of float64 numpy lanes, the
first LANE_CHUNK samples long, each then as long as all before it, up to
LANE_CHUNK_MAX.  A lane gives the row that checking its sample alone gives,
bit for bit: its basic float operations, sqrt and hypot are IEEE's or libm's
in numpy too, every ** is CPython's own float pow (map(pow, ...)), delta runs
through exprparse.compile_lanes and a band's maps run as map(h.fn, xs), so
that each keeps its one formula.  numpy's complex sqrt only decides quad
membership, where it clears 0 by KAPPA_MARGIN.  A lane the lanes cannot vouch
for is checked alone: an exp flagged bad, an unsure membership, a value that
would make the sample raise.  So is every sample of a union, of k > 0 or of a
map whose delta has no lanes, and every sample of a chunk in which a pow or a
map raises, so that the check raises, or stops at a violation first, exactly
where checking sample after sample does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, DulaclinError
from .exprparse import compile_lanes, complex_lanes

__all__ = [
    "exp_tower",
    "M_eps_k",
    "M_tail_integral",
    "AsymptoticProfile",
    "iterated_log_real",
    "kappa_inv",
    "quad_boundary_height",
    "BoundaryMap",
    "power_map",
    "linear_map",
    "log_map",
    "quad_boundary_map",
    "negated",
    "Region",
    "QuadRegion",
    "BandRegion",
    "UnionRegion",
    "region_from_json",
    "MapCheckReport",
    "check_upper_map",
    "check_lower_map",
    "in_safety_rect",
    "InvarianceReport",
    "check_invariance",
    "find_invariant_cut",
]

MAP_SAMPLES = 512       # geometric sample points of a boundary-map check
MAP_X_MAX = 1e6         # right end of the sampled range of a boundary-map check
RECT_SLACK = 1e-12      # rounding allowance of safety-rectangle membership
INVARIANCE_RE_SPAN = 50.0   # width in Re of the strip sampled beyond the cut
CUT_DOUBLINGS = 24      # doublings of R tried by find_invariant_cut
LANE_CHUNK = 64         # samples in check_invariance's first chunk of lanes
LANE_CHUNK_MAX = 4096   # samples in its longest chunk
KAPPA_MARGIN = 1e-9     # relative margin by which numpy's kappa_inv decides membership


def exp_tower(k: int) -> float:
    """exp iterated k times at 0: 0, 1, e, e^e, ..."""
    x = 0.0
    for _ in range(k):
        x = math.exp(x)
    return x


_TOWERS = tuple(exp_tower(k) for k in range(5))  # exp_tower(5) overflows


def _tower(k: int) -> float:
    """exp_tower(k), looked up where it is finite; past that, exp_tower raises
    its OverflowError."""
    return _TOWERS[k] if 0 <= k < len(_TOWERS) else exp_tower(k)


def M_eps_k(x: float, epsilon: float, k: int) -> float:
    """1 / (x * log x * ... * (log^k x)^(1+eps)); for k = 0 this is x^-(1+eps)."""
    if x <= _tower(k):
        raise DomainError(f"M undefined at x = {x} for k = {k}")
    v = x
    prod = 1.0
    for _ in range(k):
        prod *= v
        v = math.log(v)
    if not (denom := prod * v ** (1.0 + epsilon)):
        raise DomainError(f"M undefined at x = {x}: its denominator underflows to 0")
    return 1.0 / denom


def M_tail_integral(x: float, epsilon: float, k: int) -> float:
    """Closed form of the integral of M over [x, infinity): (log^k x)^-eps / eps.

    Substituting u -> log u peels one factor per level, so the antiderivative
    telescopes down to the k = 0 case.
    """
    return iterated_log_real(x, k) ** -epsilon / epsilon


def iterated_log_real(x: float, m: int) -> float:
    if x <= _tower(m):
        raise DomainError(f"iterated log needs x > exp tower({m}), got {x}")
    for _ in range(m):
        x = math.log(x)
    return x


@dataclass(frozen=True)
class AsymptoticProfile:
    """Drift data (beta, stored as a complex, epsilon, k), the cut R and rho = rho_minus(R)."""

    beta: complex
    epsilon: float
    k: int
    R: float
    rho: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        if self.beta.real <= 0:
            raise DomainError("profile requires Re(beta) > 0")
        if self.epsilon <= 0:
            raise DomainError("profile requires epsilon > 0")
        if self.k < 0 or int(self.k) != self.k:
            raise DomainError("k must be a nonnegative integer")
        if self.R <= exp_tower(self.k):
            raise DomainError(f"cut R must exceed exp tower({self.k})")
        try:
            object.__setattr__(self, "rho", self.rho_minus(self.R))
        except OverflowError:  # (log^k R)^(1 + eps) past the largest double
            raise DomainError(f"M undefined at R = {self.R}: its denominator overflows") from None
        if self.rho <= 0:
            raise DomainError("rho_minus(R) must be positive; raise R")

    def M(self, x: float) -> float:
        return M_eps_k(x, self.epsilon, self.k)

    def M_tail(self, x: float) -> float:
        return M_tail_integral(x, self.epsilon, self.k)

    def rho_minus(self, x: float) -> float:
        return self.beta.real - self.M(x)

    def rho_plus(self, x: float) -> float:
        return self.beta.real + self.M(x)


# ---------------------------------------------------------------------------
# standard quadratic domains

def kappa_inv(zeta: complex, C: float):
    """Closed-form inverse; returns (w, inside) with inside = Re(w) > 0.

    s = sqrt(w+1) solves s^2 + C s - (zeta+1) = 0; the principal-root branch
    s = (-C + sqrt(C^2 + 4(zeta+1)))/2 recovers sqrt(w+1) exactly whenever
    Re(w) > 0, which the round-trip property pins down.
    """
    w = _kappa_w(zeta, C, cmath.sqrt)
    return w, w.real > 0


def _kappa_w(zeta, C: float, sqrt):
    """kappa_inv's w, by the complex `sqrt` given: cmath's, or numpy's on lanes."""
    s = (-C + sqrt(C * C + 4.0 * (zeta + 1.0))) / 2.0
    return s * s - 1.0


def quad_boundary_height(x: float, C: float) -> float:
    """Height of the quadratic-domain boundary above the point x >= C.

    Writing sqrt(1 + i r) = a + i b, the boundary point kappa(i r) is
    (C a, r + C b) with a^2 - b^2 = 1 and 2ab = r, so b = sqrt(x^2 - C^2)/C
    and the height is b (2x/C + C).  The factored x^2 - C^2 keeps full
    relative accuracy near x = C.
    """
    if not C > 0:
        raise DomainError(f"quadratic domain needs C > 0, got {C}")
    if x < C:
        raise DomainError(f"quadratic boundary starts at Re = {C}")
    if not math.isfinite(y := _height(x, C, math.sqrt)):
        raise DomainError(f"quadratic boundary height not finite at Re = {x}")
    return y


def _height(x, C: float, sqrt):
    """quad_boundary_height's formula, by the real `sqrt` given: math's, or numpy's on lanes."""
    b = sqrt((x - C) * (x + C)) / C
    return b * (2.0 * x / C + C)


# ---------------------------------------------------------------------------
# boundary maps

@dataclass(frozen=True, eq=False)
class BoundaryMap:
    """A boundary function h with its declared monotonicity (+1 increasing,
    -1 decreasing, 0 constant, on the declared domain) and its JSON object,
    whose "t" is the domain start.  The five factories below build every map.
    """

    fn: Callable[[float], float]
    monotonicity: int
    json: dict

    def __call__(self, x: float) -> float:
        return self.fn(x)

    @property
    def domain_start(self) -> float:
        return self.json["t"]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def power_map(a: float, r: float, t: float = 1.0) -> BoundaryMap:
    return BoundaryMap(lambda x: a * x ** r, _sign(a * r),
                       {"kind": "power", "a": a, "r": r, "t": float(t)})


def linear_map(a: float, t: float = 1.0) -> BoundaryMap:
    return BoundaryMap(lambda x: a * x, _sign(a), {"kind": "linear", "a": a, "t": float(t)})


def log_map(delta: float, t: float = 2.0) -> BoundaryMap:
    if delta <= 0:
        raise ValueError("log map needs delta > 0")

    def h(x):
        if x < 1.0:
            raise DomainError("log map needs x >= 1")
        return math.log(x) ** delta
    return BoundaryMap(h, 1, {"kind": "log", "delta": delta, "t": float(max(t, 1.0))})


def quad_boundary_map(C: float, sign: int = 1, t: Optional[float] = None) -> BoundaryMap:
    sign = 1 if sign >= 0 else -1
    return BoundaryMap(lambda x: sign * quad_boundary_height(x, C), sign,
                       {"kind": "quad", "C": C, "sign": sign, "t": float(C if t is None else t)})


def negated(inner: BoundaryMap) -> BoundaryMap:
    return BoundaryMap(lambda x: -inner(x), -inner.monotonicity,
                       {"kind": "neg", "inner": inner.json, "t": inner.domain_start})


def _finite(obj: dict, key: str, default=None):
    """A finite real field of a region JSON object, as given; a missing field
    without a default is a KeyError, anything else not finite a ValueError."""
    v = obj[key] if default is None else obj.get(key, default)
    try:
        ok = math.isfinite(v)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{key!r} must be a finite number, got {v!r}")
    return v


def boundary_map_from_json(obj) -> BoundaryMap:
    if not isinstance(obj, dict):
        raise ValueError(f"boundary map JSON must be an object, got {obj!r}")
    kind = obj.get("kind")
    t = _finite(obj, "t", 1.0)
    if kind == "power":
        return power_map(_finite(obj, "a"), _finite(obj, "r"), t)
    if kind == "linear":
        return linear_map(_finite(obj, "a"), t)
    if kind == "log":
        return log_map(_finite(obj, "delta"), t)
    if kind == "quad":
        sign = obj.get("sign", 1)
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"'sign' must be 1 or -1, got {sign!r}")
        return quad_boundary_map(_finite(obj, "C"), sign, obj.get("t"))
    if kind == "neg":
        return negated(boundary_map_from_json(obj["inner"]))
    raise ValueError(f"unknown boundary map JSON kind {kind!r}")


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class QuadRegion:
    C: float
    R_cut: float = 0.0

    def __post_init__(self):
        if not self.C > 0:
            raise DomainError(f"quadratic domain needs C > 0, got {self.C}")

    def contains(self, zeta: complex) -> bool:
        if zeta.real < self.R_cut:
            return False
        _, inside = kappa_inv(zeta, self.C)
        return inside

    parts = property(lambda self: (self,))

    @property
    def cut(self) -> float:
        return self.R_cut

    def im_bounds(self, x: float):
        h = quad_boundary_height(x, self.C)
        return -h, h


@dataclass(frozen=True)
class BandRegion:
    """D_{h_l,h_u}: Re >= t and h_l(Re) < Im < h_u(Re)."""

    t: float
    hl: BoundaryMap
    hu: BoundaryMap

    def __post_init__(self):
        for x in np.geomspace(max(self.t, 1e-9), max(self.t * 1e3, 10.0), 64):
            try:
                crossed = self.hl(float(x)) >= self.hu(float(x))
            except OverflowError:  # a steep power map, say
                raise ValueError(f"a boundary map overflows at x = {x}") from None
            if crossed:
                raise ValueError(f"lower boundary not below upper at x = {x}")

    def contains(self, zeta: complex) -> bool:
        x = zeta.real
        if x < self.t or x <= 0:
            return False
        return self.hl(x) < zeta.imag < self.hu(x)

    parts = property(lambda self: (self,))

    @property
    def cut(self) -> float:
        return self.t

    def im_bounds(self, x: float):
        return self.hl(x), self.hu(x)


@dataclass(frozen=True)
class UnionRegion:
    """A union of quad and band regions; a nested union's parts are its own."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(q for p in self.parts for q in p.parts))

    def contains(self, zeta: complex) -> bool:
        return any(p.contains(zeta) for p in self.parts)

    @property
    def cut(self) -> float:
        return min(p.cut for p in self.parts)


# contains(zeta), cut and parts (a plain region is its own part); the parts
# also have im_bounds(x)
Region = QuadRegion | BandRegion | UnionRegion


def region_from_json(obj) -> Region:
    """The region of a parsed JSON object; malformed JSON raises ValueError,
    KeyError or TypeError."""
    if "quad" in obj:
        q = obj["quad"]
        return QuadRegion(_finite(q, "C"), _finite(q, "R", 0.0))
    if "band" in obj:
        b = obj["band"]
        return BandRegion(_finite(b, "t"), boundary_map_from_json(b["hl"]),
                          boundary_map_from_json(b["hu"]))
    if "union" in obj:
        if not obj["union"]:
            raise ValueError("a union region needs at least one part")
        return UnionRegion(tuple(region_from_json(p) for p in obj["union"]))
    raise ValueError("region JSON must be tagged quad | band | union")


# ---------------------------------------------------------------------------
# upper/lower boundary-map conditions

@dataclass
class MapCheckReport:
    side: str
    case: str
    passed: bool
    monotone_required: str
    monotone_ok: bool
    n_samples: int
    n_violations: int
    worst_margin: float
    violations: list = field(default_factory=list)


def _map_grid(h: BoundaryMap, profile: AsymptoticProfile):
    """The geometric sample grid from the map's domain start, kept at or above
    the profile's cut R (so above its exp tower), to MAP_X_MAX."""
    t = max(h.domain_start, profile.R)
    return [float(v) for v in np.geomspace(t, max(MAP_X_MAX, t * 2), MAP_SAMPLES)]


_MONOTONE = {1: "increasing", -1: "decreasing"}
# s -> the case for s*Im(beta) >= 0, for s*Im(beta) < 0 with h monotone
# like s, and for s*Im(beta) < 0 otherwise
_CASES = {1: ("im>=0", "im<0 increasing", "im<0 decreasing"),
          -1: ("im<=0", "im>0 decreasing", "im>0 increasing")}


def _monotone_ok(h: BoundaryMap, xs, required: int) -> bool:
    if h.monotonicity not in (required, 0):
        return False
    vals = [h(x) for x in xs]
    pairs = zip(vals, vals[1:]) if required > 0 else zip(vals[1:], vals)
    return all(b >= a for a, b in pairs)


def _check_map(h: BoundaryMap, profile: AsymptoticProfile, s: int) -> MapCheckReport:
    """The case table of the module docstring for an upper (s = 1) or a
    lower (s = -1) map: each sample's margin is s * (diff - (b + s*M(x)))
    with diff = h(x + rho(x)) - h(x), so a negative margin is a violation."""
    imb = profile.beta.imag
    xs = _map_grid(h, profile)
    side = "upper" if s > 0 else "lower"
    same, own, other = _CASES[s]
    if s * imb >= 0:
        case, required, rho = same, s, profile.rho_minus
    elif h.monotonicity == s and _monotone_ok(h, xs, s):
        return MapCheckReport(side, own, True, _MONOTONE[s], True, len(xs), 0, math.inf)
    else:
        case, required, rho = other, -s, profile.rho_plus
    mono_ok = _monotone_ok(h, xs, required)
    margins = [(x, s * (h(x + rho(x)) - h(x) - (imb + s * profile.M(x)))) for x in xs]
    bad = [(x, m) for x, m in margins if m < 0]
    return MapCheckReport(side, case, mono_ok and not bad, _MONOTONE[required], mono_ok,
                          len(xs), len(bad), min(math.inf, *(m for _, m in margins)), bad[:10])


def check_upper_map(h: BoundaryMap, profile: AsymptoticProfile) -> MapCheckReport:
    return _check_map(h, profile, 1)


def check_lower_map(h: BoundaryMap, profile: AsymptoticProfile) -> MapCheckReport:
    return _check_map(h, profile, -1)


# ---------------------------------------------------------------------------
# invariance of regions under hyperbolic maps

def in_safety_rect(zeta: complex, w: complex, profile: AsymptoticProfile) -> bool:
    """Whether w is, to RECT_SLACK, in the box that holds f(zeta) under the drift
    hypothesis: horizontally [rho_minus, rho_plus] ahead, vertically Im(beta) +/- M."""
    x = zeta.real
    if x < profile.R:
        raise DomainError(f"safety rect needs Re >= R = {profile.R}")
    return _in_rect(x, zeta.imag, w.real, w.imag, profile.M(x), profile.beta)


def _in_rect(x, y, wr, wi, m, beta: complex):
    """in_safety_rect's test of w = wr + i*wi for zeta = x + i*y, with M(x) = m,
    on floats or on lanes."""
    a, b = beta.real, beta.imag
    # rho_minus(x) and rho_plus(x) are a - m and a + m
    return ((x + (a - m) - RECT_SLACK <= wr) & (wr <= x + (a + m) + RECT_SLACK)
            & (y + b - m - RECT_SLACK <= wi) & (wi <= y + b + m + RECT_SLACK))


def _eq_new_bound(zeta: complex, epsilon: float, k: int) -> float:
    """1 / |zeta * L1 ... L_{k-1} * L_k^(1+eps)| with principal iterated logs."""
    if k == 0:
        return 1.0 / abs(zeta) ** (1.0 + epsilon)
    if zeta.real <= _tower(k):
        raise DomainError(f"bound needs Re > exp tower({k}), got {zeta.real}")
    prod = abs(zeta)
    v = zeta
    for m in range(1, k + 1):
        v = cmath.log(v)
        prod *= abs(v) if m < k else abs(v) ** (1.0 + epsilon)
    return 1.0 / prod


@dataclass
class InvarianceReport:
    n_samples: int
    R: float
    n_bound_violations: int
    n_rect_violations: int
    n_region_violations: int
    worst_bound_margin: float
    rows: list = field(default_factory=list)  # (re, im, bound_margin, rect_ok, region_ok)

    @property
    def n_violations(self) -> int:
        return self.n_bound_violations + self.n_rect_violations + self.n_region_violations

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def _sample_re(R: float, j, u1, n_strata: int):
    """Re of sample j, in stratum j mod n_strata of the strip beyond R, on
    floats or on lanes."""
    return R + INVARIANCE_RE_SPAN * ((j % n_strata) + u1) / n_strata


def _call_lanes(fn, xs, *args):
    """fn(x, *args) at each lane x, by Python: a boundary map's one function,
    or pow, CPython's float pow, which raises where ** does."""
    return np.array(list(map(fn, xs.tolist(), *args)), float)


def _quad_lanes(zr, zi, C: float):
    """(inside, sure): kappa_inv's verdict at each lane zr + i*zi by numpy's
    complex sqrt, and whether its w clears 0 by KAPPA_MARGIN * (|w| + 1 + C),
    a million times the few ulps by which it may differ from cmath's w."""
    w = _kappa_w(complex_lanes(zr, zi), C, np.sqrt)
    return w.real > 0, np.abs(w.real) > KAPPA_MARGIN * (np.abs(w) + 1.0 + C)


def _invariance_lanes(part, delta, beta: complex, profile: AsymptoticProfile, R: float, x, u2):
    """The columns (im, bound_margin, rect_ok, region_ok, sure) of the samples
    at Re = x, drawn with the uniforms u2 from `part`, a quad or a band, at
    k = 0, with delta's lanes and f's beta.  Where `sure` is set, the row is
    the one its sample gives alone, bit for bit; elsewhere that sample may
    raise, or numpy may not give its bits.  Raises what a pow or a map raises."""
    quad = isinstance(part, QuadRegion)
    if quad:
        hi = _height(x, part.C, np.sqrt)
        lo = -hi
    else:
        lo, hi = _call_lanes(part.hl.fn, x), _call_lanes(part.hu.fn, x)
    y = lo + (hi - lo) * u2
    if quad:
        inside, sure = _quad_lanes(x, y, part.C)
        sure &= np.isfinite(hi)  # quad_boundary_height raises where it is not
    else:
        inside, sure = (lo < y) & (y < hi), np.ones(x.shape, bool)
    y = np.where(inside, y, 0.5 * (lo + hi))
    dr, di, bad = delta(x, y)
    wr, wi = x + beta.real + dr, y + beta.imag + di
    az, ad = np.hypot(x, y), np.hypot(dr, di)  # abs(zeta) and abs(d)
    e = repeat(1.0 + profile.epsilon)
    pz, px = _call_lanes(pow, az, e), _call_lanes(pow, x, e)
    # abs raises where hypot overflows; 1.0 / 0.0 and M's zero denominator raise
    sure &= ~bad & np.isfinite(az) & np.isfinite(ad) & (pz != 0.0) & (px != 0.0)
    margin = 1.0 / pz - ad  # _eq_new_bound at k = 0, less abs(d)
    rect = _in_rect(x, y, wr, wi, 1.0 / px, profile.beta)  # M(x) is 1 / (1.0 * x ** (1 + eps))
    live = wr >= R  # so w's Re is at or above a band's t, and above 0
    if quad:
        inside, clear = _quad_lanes(wr, wi, part.C)
        sure &= clear | ~live
        return y, margin, rect, live & inside, sure
    region = np.zeros(x.shape, bool)
    at = np.flatnonzero(live)
    at = at[_call_lanes(part.hl.fn, wr[at]) < wi[at]]  # hu is read where hl(Re) < Im only
    region[at] = wi[at] < _call_lanes(part.hu.fn, wr[at])
    return y, margin, rect, region, sure


def check_invariance(f, region: Region, profile: AsymptoticProfile,
                     n_samples: int = 1000, seed: int = 0, *,
                     stop_at_violation: bool = False) -> InvarianceReport:
    """Sample stratified points of the cut region and test, for each:
    the modulus drift bound, membership of f(zeta) in the safety rectangle,
    and membership of f(zeta) in the region itself.

    Sample j is drawn at Re = x from the parts of a union whose cut is at
    most x, cycling through them by j; a region with one part is its own.
    Its two uniforms are entries 2j and 2j + 1 of one draw of 2*n_samples.
    With `stop_at_violation`, the check ends at the first violating sample,
    and the report's n_samples counts the samples checked up to it.  A cut
    R at or below the C of a quad part raises DomainError.

    The samples are checked in chunks of lanes, as the module docstring
    says; every row, count and the worst margin are those of checking sample
    after sample, and so are the sample at which the check stops or raises.
    A chunk checks sample by sample each lane that `sure` leaves unset, in
    order, up to the first violation, and every sample where there are no
    lanes or a pow or a map raised.

    `f` is an AnalyticMap-like object: `.delta(zeta)` for the drift,
    `.profile` matching the supplied profile and `.ast`, the AST delta
    evaluates, or None; f(zeta) is zeta + beta + delta.
    """
    R = max(profile.R, region.cut)
    parts = region.parts
    if any(isinstance(p, QuadRegion) and R <= p.C for p in parts):
        raise DomainError("cut must exceed the quadratic-domain constant C")
    # one call draws what 2*n_samples scalar calls would, in the same order
    u = np.random.default_rng(seed).random(2 * n_samples)
    n_strata = max(1, min(64, n_samples))
    delta, beta, epsilon, k = f.delta, f.profile.beta, profile.epsilon, profile.k
    # a region of one part draws every sample from it; a band contains its own
    # sample iff lo < y < hi, as x >= R >= its t and R > 0
    one = parts[0] if len(parts) == 1 else None
    band = isinstance(one, BandRegion)

    def sample(j: int) -> tuple:
        """Sample j's row, checked alone."""
        u1, u2 = u[2 * j:2 * j + 2].tolist()
        x = _sample_re(R, j, u1, n_strata)
        if one is None:
            # at least one part has cut <= x, as x >= R >= region.cut
            live = [p for p in parts if p.cut <= x]
            lo, hi = live[j % len(live)].im_bounds(x)
        else:
            lo, hi = one.im_bounds(x)
        y = lo + (hi - lo) * u2
        zeta = complex(x, y)
        if not (lo < y < hi if band else region.contains(zeta)):  # x >= R: the cut holds
            # boundary-exact draws; resample toward the centerline
            y = 0.5 * (lo + hi)
            zeta = complex(x, y)
        d = delta(zeta)
        w = zeta + beta + d
        return (x, y, _eq_new_bound(zeta, epsilon, k) - abs(d), in_safety_rect(zeta, w, profile),
                w.real >= R and region.contains(w))

    lanes = None if one is None or k or f.ast is None else compile_lanes(f.ast)
    rows = []
    nb = nr = ng = 0
    worst = math.inf
    j = 0
    while j < n_samples:
        end = min(n_samples, j + min(max(j, LANE_CHUNK), LANE_CHUNK_MAX))
        x = _sample_re(R, np.arange(j, end), u[2 * j:2 * end:2], n_strata)
        cols = None
        if lanes is not None:
            try:
                with np.errstate(all="ignore"):
                    cols = _invariance_lanes(one, lanes, beta, profile, R, x,
                                             u[2 * j + 1:2 * end:2])
            except (ArithmeticError, DulaclinError):
                pass  # checked sample by sample, which raises it or stops first
        if cols is None:  # no lane is sure
            cols = (*np.zeros((2, len(x))), *np.zeros((3, len(x)), bool))
        y, margin, rect, inside, sure = cols
        violates = (margin < 0) | ~rect | ~inside
        stop = len(x)  # the chunk's rows are [:stop]
        if stop_at_violation and (hit := np.flatnonzero(violates & sure)).size:
            stop = int(hit[0]) + 1
        for i in np.flatnonzero(~sure[:stop]).tolist():
            x[i], y[i], margin[i], rect[i], inside[i] = row = sample(j + i)
            violates[i] = row[2] < 0 or not (row[3] and row[4])
            if stop_at_violation and violates[i]:
                stop = i + 1
                break
        nb += int(np.count_nonzero(margin[:stop] < 0))
        nr += stop - int(np.count_nonzero(rect[:stop]))
        ng += stop - int(np.count_nonzero(inside[:stop]))
        m = margin[:stop].tolist()
        worst = min(worst, *m)  # skipping NaNs and keeping the first of 0.0 and -0.0
        rows += zip(x[:stop].tolist(), y[:stop].tolist(), m, rect[:stop].tolist(),
                    inside[:stop].tolist())
        if stop_at_violation and violates[stop - 1]:
            break
        j = end
    return InvarianceReport(
        n_samples=len(rows),
        R=R,
        n_bound_violations=nb,
        n_rect_violations=nr,
        n_region_violations=ng,
        worst_bound_margin=worst,
        rows=rows,
    )


def find_invariant_cut(f, region: Region, profile: AsymptoticProfile,
                       n_samples: int = 2000, seed: int = 0):
    """Geometric search for a cut R making the sampled invariance checks pass.

    The first cut is the largest of profile.R and C + 1 over the quad parts.
    Returns (R, report) for the first passing cut; raises DomainError if the
    search exhausts its doublings.  A failing cut's report is dropped, so its
    check stops at its first violation.
    """
    R = max([profile.R] + [p.C + 1.0 for p in region.parts if isinstance(p, QuadRegion)])
    for _ in range(CUT_DOUBLINGS):
        report = check_invariance(f, region, replace(profile, R=R), n_samples=n_samples,
                                  seed=seed, stop_at_violation=True)
        if report.passed:
            return R, report
        R *= 2.0
    raise DomainError(f"no invariant cut found up to R = {R}")

