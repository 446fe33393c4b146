"""Link closed forms in plain Python: RF carrier, focal spot, efficiency chain,
safety densities; and the records a scenario builds (receiver panels,
aircraft, farm network, flight plan). No numpy here, so `spot`, `link`, `econ`
and `safety` start without it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

from .constants import SPEED_OF_LIGHT, STANDARD_GRAVITY
from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Diffraction constant for a uniformly illuminated circular aperture.
SPOT_DIAMETER_FACTOR = 1.22

# Tie-break precedence when two panels see the beam equally well.
PANEL_LABELS = ("underside", "lower-front", "lower-tail")


def vector_length(dx: float, dy: float, dz: float = 0.0) -> float:
    """Euclidean length with the squares summed left to right, as numpy sums a
    row: bit-equal to np.linalg.norm(rows, axis=1). A 1-D np.linalg.norm goes
    through BLAS, which may fuse the multiply-adds, so it can differ by 2 ulp."""
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def check_heading(dx: float, dy: float) -> None:
    """Refuse a horizontal heading (dx, dy) whose length is not finite or is
    under 1e-12 m: a level attitude needs a horizontal direction."""
    if not 1e-12 <= vector_length(dx, dy) < math.inf:
        raise InvalidArgumentError("heading must have a finite horizontal component")


@dataclass(frozen=True)
class RfSpec:
    """RF carrier: frequency [Hz] plus derived wavelength [m] and wavenumber [rad/m]."""

    frequency: float
    wavelength: float
    wavenumber: float

    def __post_init__(self):
        if not self.frequency > 0.0:
            raise InvalidArgumentError("frequency must be positive")
        if abs(self.wavelength * self.frequency - SPEED_OF_LIGHT) > 1e-9 * SPEED_OF_LIGHT:
            raise InvalidArgumentError("wavelength inconsistent with frequency")
        if abs(self.wavenumber * self.wavelength - TWO_PI) > 1e-12 * TWO_PI:
            raise InvalidArgumentError("wavenumber inconsistent with wavelength")

    @classmethod
    def from_frequency(cls, frequency: float) -> "RfSpec":
        if frequency <= 0.0:
            raise InvalidArgumentError("frequency must be positive")
        wavelength = SPEED_OF_LIGHT / frequency
        return cls(frequency, wavelength, TWO_PI / wavelength)

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "RfSpec":
        """Build from an exact wavelength (handy for round numbers like 0.10 m)."""
        if wavelength <= 0.0:
            raise InvalidArgumentError("wavelength must be positive")
        return cls(SPEED_OF_LIGHT / wavelength, wavelength, TWO_PI / wavelength)


# ---------------------------------------------------------------------------
# focal spot of a uniform circular aperture
# ---------------------------------------------------------------------------

def first_null_spot_diameter(aperture_diameter: float, rf: RfSpec,
                             range_m: float) -> float:
    """Diffraction-limited focal spot size 1.22 * lambda * range / aperture [m].

    Numerically this equals the radial distance from the beam axis to the
    first intensity null of a uniformly illuminated circular aperture; it is
    the figure quoted as the spot "diameter" in the headline link budgets
    (the null-to-null width across the beam is twice this value).
    """
    if not aperture_diameter > 0.0 or not range_m > 0.0:
        raise InvalidArgumentError("aperture_diameter and range must be positive")
    return SPOT_DIAMETER_FACTOR * rf.wavelength * range_m / aperture_diameter


# Bessel functions J0 and J1 for x >= 0: the rational approximations of the
# Cephes library (S. L. Moshier, 1989), with its coefficients (the leading 1
# that its p1evl implies written out) and its order of evaluation, so results
# are bit-equal to scipy.special.j0 / j1, which evaluate the same
# approximations. Loading scipy would cost a `spot` process more than its report.
_SQ2OPI = 7.9788456080286535587989E-1       # sqrt(2 / pi)
_PI_4 = 7.85398163397448309616E-1
_THPIO4 = 2.35619449019234492885            # 3 pi / 4
_DR1, _DR2 = 5.78318596294678452118E0, 3.04712623436620863991E1   # J0 zeros squared
_Z1, _Z2 = 1.46819706421238932572E1, 4.92184563216946036703E1     # J1 zeros squared
_RP0 = (-4.79443220978201773821E9, 1.95617491946556577543E12,
        -2.49248344360967716204E14, 9.70862251047306323952E15)
_RQ0 = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5, 4.84409658339962045305E7,
        1.11855537045356834862E10, 2.11277520115489217587E12, 3.10518229857422583814E14,
        3.18121955943204943306E16, 1.71086294081043136091E18)
_PP0 = (7.96936729297347051624E-4, 8.28352392107440799803E-2, 1.23953371646414299388E0,
        5.44725003058768775090E0, 8.74716500199817011941E0, 5.30324038235394892183E0,
        9.99999999999999997821E-1)
_PQ0 = (9.24408810558863637013E-4, 8.56288474354474431428E-2, 1.25352743901058953537E0,
        5.47097740330417105182E0, 8.76190883237069594232E0, 5.30605288235394617618E0,
        1.00000000000000000218E0)
_QP0 = (-1.13663838898469149931E-2, -1.28252718670509318512E0, -1.95539544257735972385E1,
        -9.32060152123768231369E1, -1.77681167980488050595E2, -1.47077505154951170175E2,
        -5.14105326766599330220E1, -6.05014350600728481186E0)
_QQ0 = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2, 3.88240183605401609683E3,
        7.24046774195652478189E3, 5.93072701187316984827E3, 2.06209331660327847417E3,
        2.42005740240291393179E2)
_RP1 = (-8.99971225705559398224E8, 4.52228297998194034323E11,
        -7.27494245221818276015E13, 3.68295732863852883286E15)
_RQ1 = (1.0, 6.20836478118054335476E2, 2.56987256757748830383E5, 8.35146791431949253037E7,
        2.21511595479792499675E10, 4.74914122079991414898E12, 7.84369607876235854894E14,
        8.95222336184627338078E16, 5.32278620332680085395E18)
_PP1 = (7.62125616208173112003E-4, 7.31397056940917570436E-2, 1.12719608129684925192E0,
        5.11207951146807644818E0, 8.42404590141772420927E0, 5.21451598682361504063E0,
        1.00000000000000000254E0)
_PQ1 = (5.71323128072548699714E-4, 6.88455908754495404082E-2, 1.10514232634061696926E0,
        5.07386386128601488557E0, 8.39985554327604159757E0, 5.20982848682361821619E0,
        9.99999999999999997461E-1)
_QP1 = (5.10862594750176621635E-2, 4.98213872951233449420E0, 7.58238284132545283818E1,
        3.66779609360150777800E2, 7.10856304998926107277E2, 5.97489612400613639965E2,
        2.11688757100572135698E2, 2.52070205858023719784E1)
_QQ1 = (1.0, 7.42373277035675149943E1, 1.05644886038262816351E3, 4.98641058337653607651E3,
        9.56231892404756170795E3, 7.99704160447350683650E3, 2.82619278517639096600E3,
        3.36093607810698293419E2)


def _polevl(x: float, coef) -> float:
    """Horner evaluation of the polynomial with coefficients coef, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0(x: float) -> float:
    """Bessel function of the first kind of order 0, for x >= 0."""
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _DR1) * (z - _DR2)
        return p * _polevl(z, _RP0) / _polevl(z, _RQ0)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _PP0) / _polevl(q, _PQ0)
    q = _polevl(q, _QP0) / _polevl(q, _QQ0)
    xn = x - _PI_4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def _j1(x: float) -> float:
    """Bessel function of the first kind of order 1, for x >= 0."""
    if x <= 5.0:
        z = x * x
        w = _polevl(z, _RP1) / _polevl(z, _RQ1)
        return w * x * (z - _Z1) * (z - _Z2)
    w = 5.0 / x
    z = w * w
    p = _polevl(z, _PP1) / _polevl(z, _PQ1)
    q = _polevl(z, _QP1) / _polevl(z, _QQ1)
    xn = x - _THPIO4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def airy_encircled_fraction(disk_diameter: float, aperture_diameter: float,
                            rf: RfSpec, range_m: float) -> float:
    """Uniform-circular-aperture encircled-energy fraction, closed form.

    1 - J0(x)^2 - J1(x)^2 with x = pi * D * rho / (lambda * R), rho the disk
    radius. Valid for an aperture focused exactly at range R.
    """
    if not disk_diameter >= 0.0:
        raise InvalidArgumentError("disk_diameter must be non-negative")
    x = math.pi * aperture_diameter * (0.5 * disk_diameter) / (rf.wavelength * range_m)
    if x == 0.0:
        return 0.0
    return 1.0 - _j0(x) ** 2 - _j1(x) ** 2


def airy_peak_density(radiated_power: float, aperture_diameter: float,
                      rf: RfSpec, range_m: float) -> float:
    """On-axis power density P * A / (lambda * R)^2 of the focused aperture [W/m^2].

    Infinite when (lambda * R)^2 underflows to zero.
    """
    area = math.pi * (0.5 * aperture_diameter) ** 2
    spread = (rf.wavelength * range_m) ** 2
    return radiated_power * area / spread if spread > 0.0 else math.inf


@dataclass(frozen=True)
class SpotReport:
    """Focal-spot summary for a uniformly filled circular aperture at one range.

    first_null_diameter follows the quoted-spot convention (radial extent of
    the central lobe, 1.22 lambda R / D); the enclosing null-bounded disk has
    twice this geometric diameter.
    """

    aperture_diameter: float
    range_m: float
    wavelength: float
    radiated_power: float
    first_null_diameter: float
    peak_density: float
    encircled_fraction_first_null: float

    def encircled_fraction_at(self, disk_diameter: float) -> float:
        """Encircled fraction inside a disk of the given geometric diameter."""
        rf = RfSpec.from_wavelength(self.wavelength)
        return airy_encircled_fraction(disk_diameter, self.aperture_diameter,
                                       rf, self.range_m)


def spot_report(aperture_diameter: float, rf: RfSpec, range_m: float,
                radiated_power: float) -> SpotReport:
    """Closed-form SpotReport (uniform circular aperture theory)."""
    fn = first_null_spot_diameter(aperture_diameter, rf, range_m)
    return SpotReport(
        aperture_diameter=aperture_diameter,
        range_m=range_m,
        wavelength=rf.wavelength,
        radiated_power=radiated_power,
        first_null_diameter=fn,
        peak_density=airy_peak_density(radiated_power, aperture_diameter, rf, range_m),
        encircled_fraction_first_null=airy_encircled_fraction(
            2.0 * fn, aperture_diameter, rf, range_m),
    )


# ---------------------------------------------------------------------------
# efficiency chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyChain:
    """Multiplicative grid-to-shaft power budget; every stage is a fraction in [0, 1].

    Stages: DC to RF conversion at the farm, beam collection by the receiver
    footprint, incidence cosine at the panel, RF to DC rectification.
    """

    dc_to_rf: float
    beam_collection: float
    incidence_cosine: float
    rf_to_dc: float

    # the stage fields, in order (a class attribute, not a field)
    STAGES = ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc")

    def __post_init__(self):
        for name in self.STAGES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0, 1], got {v}")

    @property
    def end_to_end(self) -> float:
        return self.at_incidence(self.incidence_cosine)

    def at_incidence(self, cosine: float) -> float:
        """End-to-end efficiency with the incidence-cosine stage replaced
        (dynamic geometry)."""
        return self.dc_to_rf * self.beam_collection * cosine * self.rf_to_dc


def delivered_power(input_power: float, chain: EfficiencyChain) -> float:
    """DC watts at the aircraft bus for a given grid input power."""
    if not input_power >= 0.0:
        raise InvalidArgumentError("input_power must be non-negative")
    return input_power * chain.end_to_end


# ---------------------------------------------------------------------------
# receiver panels, aircraft, farm network, flight plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceiverPanel:
    """Rectenna patch on the airframe.

    normal: outward unit normal in the body frame (x forward, z up, so the
    underside panel points along -z), an (x, y, z) tuple. area in m^2.
    """

    label: str
    normal: tuple[float, float, float]
    area: float
    rf_to_dc: float

    def __post_init__(self):
        n = tuple(map(float, self.normal))
        if len(n) != 3 or not abs(vector_length(*n) - 1.0) <= 1e-9:
            raise InvalidArgumentError("panel normal must be a 3-D unit vector")
        if not self.area > 0.0:
            raise InvalidArgumentError("panel area must be positive")
        if not 0.0 <= self.rf_to_dc <= 1.0:
            raise InvalidArgumentError("rf_to_dc must be in [0, 1]")
        object.__setattr__(self, "normal", n)


def default_panels() -> list[ReceiverPanel]:
    """Stock single-aisle receiver fit: belly patch plus 60-degree nose/tail
    wedges, each rectifying at 85 %."""
    s60, c60 = math.sin(math.radians(60.0)), math.cos(math.radians(60.0))
    return [
        ReceiverPanel("underside", (0.0, 0.0, -1.0), 40.0, 0.85),
        ReceiverPanel("lower-front", (s60, 0.0, -c60), 15.0, 0.85),
        ReceiverPanel("lower-tail", (-s60, 0.0, -c60), 15.0, 0.85),
    ]


@dataclass(frozen=True)
class Aircraft:
    """Turbo-electric airliner cruise model."""

    mass: float                   # kg
    lift_to_drag: float
    propulsive_efficiency: float  # electric motor + fan, fraction
    cruise_speed: float           # m/s
    fuel_burn_reference: float    # kg/h at reference cruise, turbofan only
    panels: list[ReceiverPanel] = field(default_factory=default_panels)

    def __post_init__(self):
        if not (self.mass > 0.0 and self.cruise_speed > 0.0 and self.fuel_burn_reference > 0.0):
            raise InvalidArgumentError("mass, cruise_speed and fuel_burn_reference must be positive")
        if not self.lift_to_drag > 1.0:
            raise InvalidArgumentError("lift_to_drag must exceed 1")
        if not 0.0 < self.propulsive_efficiency <= 1.0:
            raise InvalidArgumentError("propulsive_efficiency must be in (0, 1]")
        if not self.panels:
            raise InvalidArgumentError("aircraft needs at least one receiver panel")


def cruise_power(aircraft: Aircraft) -> float:
    """Electric power needed for steady level cruise [W]: m g V / (L/D * eta)."""
    return (aircraft.mass * STANDARD_GRAVITY * aircraft.cruise_speed
            / (aircraft.lift_to_drag * aircraft.propulsive_efficiency))


@dataclass(frozen=True)
class FarmNetwork:
    """Ground farm sites with shared service limits."""

    farms: tuple                  # m (x, y) ground positions [m]
    input_cap: tuple              # m max grid draws per farm [W], or one for all
    max_scan_deg: float           # beam steering limit from zenith
    max_slant_range: float        # m

    def __post_init__(self):
        farms = tuple(tuple(map(float, site)) for site in self.farms)
        if not all(len(site) == 2 and all(map(math.isfinite, site)) for site in farms):
            raise InvalidArgumentError("farms must be (x, y) pairs of finite positions")
        try:
            caps = tuple(map(float, self.input_cap))
        except TypeError:       # one cap for every farm
            caps = (float(self.input_cap),) * len(farms)
        if len(caps) != len(farms):
            raise InvalidArgumentError("input_cap must match the number of farms")
        if not all(cap >= 0.0 for cap in caps):
            raise InvalidArgumentError("input caps must be non-negative")
        if not 0.0 < self.max_scan_deg < 90.0:
            raise InvalidArgumentError("max_scan_deg must be in (0, 90)")
        if not self.max_slant_range > 0.0:
            raise InvalidArgumentError("max_slant_range must be positive")
        object.__setattr__(self, "farms", farms)
        object.__setattr__(self, "input_cap", caps)

    @property
    def n_farms(self) -> int:
        return len(self.farms)

    @property
    def limits(self) -> tuple[float, float]:
        """Inclusive (slant, scan) bounds, padded so exact-boundary geometry survives rounding."""
        return self.max_slant_range * (1.0 + 1e-12), self.max_scan_deg + 1e-9

    @classmethod
    def empty(cls) -> "FarmNetwork":
        return cls((), (), 60.0, 20e3)


@dataclass(frozen=True)
class FlightPlan:
    """Waypoint route flown at constant speed, sampled every `timestep` seconds."""

    waypoints: tuple              # k (x, y, altitude) triples [m]
    speed: float                  # m/s
    timestep: float = 10.0        # s
    # measured once, here: segment lengths, route length at each waypoint [m], steps
    segment_lengths: tuple = field(init=False, repr=False)
    distance: tuple = field(init=False, repr=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        wps = tuple(tuple(map(float, wp)) for wp in self.waypoints)
        if len(wps) < 2 or any(len(wp) != 3 for wp in wps):
            raise InvalidArgumentError("need at least 2 waypoints of (x, y, altitude)")
        if not all(wp[2] > 0.0 for wp in wps):
            raise InvalidArgumentError("waypoint altitude must be positive")
        if not (self.speed > 0.0 and self.timestep > 0.0):
            raise InvalidArgumentError("speed and timestep must be positive")
        # the bits of np.linalg.norm(np.diff(waypoints), axis=1) and np.cumsum
        seg_len = tuple(vector_length(bx - ax, by - ay, bz - az)
                        for (ax, ay, az), (bx, by, bz) in zip(wps, wps[1:]))
        if any(length <= 0.0 for length in seg_len):
            raise InvalidArgumentError("consecutive waypoints must be distinct")
        cum = (0.0, *accumulate(seg_len))
        steps = cum[-1] / self.speed / self.timestep - 1e-12
        if not math.isfinite(steps):
            raise InvalidArgumentError("the route must take a finite number of steps")
        for name, value in (("waypoints", wps), ("segment_lengths", seg_len),
                            ("distance", cum), ("n_steps", max(1, math.ceil(steps)))):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# safety densities
# ---------------------------------------------------------------------------

def farm_surface_density(input_power: float, farm_area: float) -> float:
    """Mean emitted power density over the farm surface [W/m^2]."""
    if not farm_area > 0.0:
        raise InvalidArgumentError("farm_area must be positive")
    if not input_power >= 0.0:
        raise InvalidArgumentError("input_power must be non-negative")
    return input_power / farm_area


def reflected_ground_density(reflected_power: float, spot_diameter: float,
                             rf: RfSpec, range_m: float) -> float:
    """Worst-case ground power density from a flat-plate reflection [W/m^2].

    The lit spot re-radiates as an aperture of its own diameter, so the ground
    patch diameter is max(spot, 1.22 lambda R / spot) and the density is the
    reflected power over that patch. A deliberate safety screen, not a radar
    cross-section computation.
    """
    if not reflected_power >= 0.0:
        raise InvalidArgumentError("reflected_power must be non-negative")
    if not spot_diameter > 0.0 or not range_m >= 0.0:
        raise InvalidArgumentError("spot_diameter must be positive, range non-negative")
    if reflected_power == 0.0:
        return 0.0
    ground_diameter = spot_diameter
    if range_m > 0.0:
        ground_diameter = max(
            spot_diameter, first_null_spot_diameter(spot_diameter, rf, range_m))
    return reflected_power / (math.pi * (0.5 * ground_diameter) ** 2)
