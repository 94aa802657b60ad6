"""Switched fiber-loop buffer model.

A 2x2 electro-optic switch with one output looped back to one input through a
fiber delay line stores a photon for N round-trips.  The switch is driven by
an RF ON/OFF pattern: ON routes cross (1->4, 2->3), OFF routes straight
(1->3, 2->4).  The ON duration equals one loop round-trip T, the OFF duration
(N-1)*T, so the photon is injected on the rising edge, recirculates through
the straight state N-1 times, and is called out by the next ON transition.

Above a port-dependent repetition rate the switch no longer holds the photon
and it leaks, whole, to the output on the first pass; the leak thresholds are
calibration constants of the two loop wirings.  A second tier of 1x2 selector
switches can swap the delay line between a unit-length fiber and an integer
fraction of it, yielding integer multiples and integer dividers of the unit
delay.  ``divider_schedule`` lists every exit of that device: the straight
pass of a photon arriving while the switch is OFF, then each path's exits,
a short path's trapped "ghost" among them, decided by the one rule that also
serves the plain loop.  Every decoherence knob is in ``NoiseConfig``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields

from . import qstate
from .qstate import QubitChannel

__all__ = [
    "SPEED_OF_LIGHT",
    "LEAK_RATE_GUARD",
    "MAX_TRIPS",
    "SchedulingError",
    "SwitchCapabilityError",
    "NoRetrievalError",
    "TimelineContractError",
    "SwitchSpec",
    "FiberLoop",
    "RfPattern",
    "TopologyVariant",
    "BufferTopology",
    "EventKind",
    "TimelineEvent",
    "PhotonTimeline",
    "NoiseConfig",
    "buffer_time",
    "round_trip_time",
    "rf_pattern_for",
    "simulate_timeline",
    "insertion_loss_db",
    "divider_schedule",
    "loss_to_survival",
    "channel_for_timeline",
]

SPEED_OF_LIGHT = 299792458.0  # m/s

# Leak thresholds are nominal calibration constants quoted to ~1%; comparisons
# carry this guard band so a pattern built exactly at a demonstrated-good rate
# (e.g. the 1.3 km loop at its realized 78.5 kHz) does not trip the threshold.
LEAK_RATE_GUARD = 0.01

# Round trips one photon may make: the timeline holds one event per trip, so
# this bounds the work of one scenario.
MAX_TRIPS = 1000

# Timing drift the walk may accumulate over one stay, as a fraction of the ON
# window: exits are decided in whole slots, so the true exit times may slip
# from the window by no more than this.
_PATTERN_TOL = 1e-3


class SchedulingError(ValueError):
    """Round trip incommensurate with the RF drive."""


class SwitchCapabilityError(ValueError):
    """Requested drive exceeds what the switch hardware supports."""


class NoRetrievalError(ValueError):
    """Timeline has no RETRIEVE event to build a channel from."""


class TimelineContractError(ValueError):
    """Event sequence violates the photon-timeline invariants."""


# Field bounds, declared as ``field(metadata=...)`` where a spec declares the
# field; ``_validate`` checks them, and that every float is finite.
_POSITIVE = {"bound": ("positive", lambda v: v > 0)}
_NONNEGATIVE = {"bound": ("nonnegative", lambda v: v >= 0)}
_PROBABILITY = {"bound": ("a probability in [0, 1]", lambda v: 0 <= v <= 1)}
_AT_LEAST_ONE = {"bound": (">= 1", lambda v: v >= 1)}


def _validate(spec: object) -> None:
    """Reject a non-finite float field (NaN passes every ordering check) and
    any field outside its declared bound, naming it ``<Class>.<field>``."""
    for name, bound, ok in _plan(type(spec)):
        value = getattr(spec, name)
        if isinstance(value, float) and not math.isfinite(value):
            bound = "finite"
        elif ok is None or ok(value):
            continue
        raise ValueError(f"{type(spec).__name__}.{name} must be {bound}, got {value}")


@functools.cache  # one plan per spec class: (name, bound, check), None if undeclared
def _plan(cls: type) -> tuple[tuple[str, str | None, object], ...]:
    return tuple((f.name, *f.metadata.get("bound", (None, None))) for f in fields(cls))


@dataclass(frozen=True)
class SwitchSpec:
    """2x2 switch parameters: per-pass losses and drive capabilities."""

    loss_cross_db: float = field(default=1.2, metadata=_NONNEGATIVE)
    loss_straight_db: float = field(default=1.0, metadata=_NONNEGATIVE)
    rise_fall_time: float = field(default=100e-9, metadata=_POSITIVE)
    max_rep_rate_hz: float = field(default=100e3, metadata=_POSITIVE)
    v_pi_calibrated: bool = False

    __post_init__ = _validate


@dataclass(frozen=True)
class FiberLoop:
    """Fiber delay line: length, attenuation, group index."""

    length_m: float = field(metadata=_POSITIVE)
    attenuation_db_per_km: float = field(default=0.2, metadata=_NONNEGATIVE)
    group_index: float = field(default=1.468, metadata=_AT_LEAST_ONE)

    __post_init__ = _validate

    @property
    def length_km(self) -> float:
        return self.length_m / 1000.0


@dataclass(frozen=True)
class RfPattern:
    """RF drive: ON for ``on_duration`` (one round trip T), OFF for (N-1)*T."""

    on_duration: float = field(metadata=_POSITIVE)
    n_trips: int

    def __post_init__(self) -> None:
        _validate(self)
        _check_trips(self.n_trips)

    @property
    def off_duration(self) -> float:
        return (self.n_trips - 1) * self.on_duration

    @property
    def repetition_rate_hz(self) -> float:
        return 1.0 / (self.on_duration + self.off_duration)


class TopologyVariant(enum.Enum):
    LOOP_PORTS_2_4 = "LOOP_PORTS_2_4"
    LOOP_PORTS_2_3 = "LOOP_PORTS_2_3"
    MULTIPLIER_DIVIDER = "MULTIPLIER_DIVIDER"


# Calibration constants: highest reliable drive rate per loop wiring.  The
# 2-4 wiring leaks above ~50 kHz; rewired to ports 2-3 (with the pi-voltage
# readjusted) the switch holds up to the highest demonstrated 78 kHz.
DEFAULT_LEAK_THRESHOLD_HZ: dict[TopologyVariant, float] = {
    TopologyVariant.LOOP_PORTS_2_4: 50e3,
    TopologyVariant.LOOP_PORTS_2_3: 78e3,
    TopologyVariant.MULTIPLIER_DIVIDER: 50e3,
}


@dataclass(frozen=True)
class BufferTopology:
    """Loop wiring, its leak threshold and, for the divider, the delay paths."""

    variant: TopologyVariant
    leak_threshold_hz: float | None = field(default=None, metadata=_POSITIVE)
    divider_paths: tuple[FiberLoop, ...] = ()
    selector_loss_db: float = field(default=0.01, metadata=_NONNEGATIVE)

    def __post_init__(self) -> None:
        if self.leak_threshold_hz is None:
            object.__setattr__(
                self, "leak_threshold_hz", DEFAULT_LEAK_THRESHOLD_HZ[self.variant]
            )
        _validate(self)
        object.__setattr__(self, "divider_paths", tuple(self.divider_paths))
        is_divider = self.variant is TopologyVariant.MULTIPLIER_DIVIDER
        if is_divider and not self.divider_paths:
            raise ValueError("MULTIPLIER_DIVIDER topology needs divider paths")
        if not is_divider and self.divider_paths:
            raise ValueError("divider paths only apply to MULTIPLIER_DIVIDER")


class EventKind(enum.Enum):
    INJECT = "INJECT"
    RECIRCULATE = "RECIRCULATE"
    LEAK = "LEAK"
    RETRIEVE = "RETRIEVE"
    GHOST_EXIT = "GHOST_EXIT"


# EnumType's __getattr__ hook makes each EventKind.<member> lookup cost about
# 0.1 us on Python 3.11, so the per-timeline code reads these names instead.
_INJECT, _RECIRCULATE, _LEAK, _RETRIEVE, _GHOST_EXIT = EventKind
_EXITS = (_RETRIEVE, _LEAK, _GHOST_EXIT)


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    kind: EventKind
    accumulated_loss_db: float


@dataclass(frozen=True)
class PhotonTimeline:
    """One photon's events with accumulated loss, in one shape: INJECT, then
    ``round_trips`` - 1 RECIRCULATE (one per straight pass), then exactly one
    exit, a RETRIEVE, LEAK or GHOST_EXIT, which is the last event.  Times
    strictly increase, except that the divider's 0-trip straight pass is an
    INJECT and a RETRIEVE at one instant.
    """

    events: tuple[TimelineEvent, ...]
    total_buffer_time: float
    round_trips: int

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        kinds = [e.kind for e in events]
        trips = self.round_trips
        if (trips < 0 or len(kinds) != (trips or 1) + 1 or kinds[0] is not _INJECT
                or kinds.count(_RECIRCULATE) != len(kinds) - 2
                or kinds[-1] not in (_EXITS if trips else (_RETRIEVE,))):
            raise TimelineContractError(
                "a timeline is INJECT, round_trips - 1 RECIRCULATE, then one RETRIEVE, LEAK or "
                f"GHOST_EXIT (0 trips: RETRIEVE); got {[k.value for k in kinds]}, trips {trips}")
        if not all(b.time > a.time or trips == 0 and b.time == a.time  # 0 trips: one instant
                   for a, b in zip(events, events[1:])):
            raise TimelineContractError("event times must be strictly increasing")
        if self.total_buffer_time < 0:
            raise TimelineContractError("buffer time must be nonnegative")

    @property
    def retrieved(self) -> bool:
        return self.events[-1].kind is _RETRIEVE

    @property
    def leaked(self) -> bool:
        return self.events[-1].kind is _LEAK

    @property
    def ghosted(self) -> bool:
        return self.events[-1].kind is _GHOST_EXIT

    @property
    def final_loss_db(self) -> float:
        return self.events[-1].accumulated_loss_db


def _timeline(t_inject: float, rt: float, trips: int, inject_db: float, step_db: float,
              exit_db: float, kind: EventKind) -> PhotonTimeline:
    """The one builder of a timeline: INJECT at ``t_inject`` after ``inject_db``,
    a RECIRCULATE every round trip ``rt`` that adds ``step_db``, and the exit
    ``kind`` after ``trips`` round trips, which adds ``exit_db``."""
    loss = inject_db
    events = [TimelineEvent(t_inject, _INJECT, loss)]
    for k in range(1, trips):
        loss += step_db
        events.append(TimelineEvent(t_inject + k * rt, _RECIRCULATE, loss))
    events.append(TimelineEvent(t_inject + trips * rt, kind, loss + exit_db))
    return PhotonTimeline(tuple(events), trips * rt, trips)


@dataclass(frozen=True)
class NoiseConfig:
    """Decoherence knobs for the buffered idler.

    ``pmd_dephasing_per_km`` is the std dev (radians) of the dephasing angle
    gathered per km of fiber, so its variance grows linearly with length.  The
    per-cross probabilities apply once per cross pass (injection, retrieval).
    ``accidental_rate`` is consumed by the counting stage, not by the channel.
    """

    pmd_dephasing_per_km: float = field(default=0.0, metadata=_NONNEGATIVE)
    cross_bit_flip: float = field(default=0.0, metadata=_PROBABILITY)
    cross_phase_flip: float = field(default=0.0, metadata=_PROBABILITY)
    cross_amplitude_damping: float = field(default=0.0, metadata=_PROBABILITY)
    accidental_rate: float = field(default=0.0, metadata=_NONNEGATIVE)

    __post_init__ = _validate


def round_trip_time(loop: FiberLoop) -> float:
    """One loop round-trip L * n_g / c; this is the RF unit delay T."""
    return loop.length_m * loop.group_index / SPEED_OF_LIGHT


def _check_trips(n_trips: int) -> None:
    if type(n_trips) is not int:  # so a bool or 2.5 is no trip count
        raise ValueError(f"n_trips must be an int, got {n_trips!r}")
    if not 1 <= n_trips <= MAX_TRIPS:
        raise ValueError(f"n_trips: need 1 to {MAX_TRIPS} round trips, got {n_trips}")


def buffer_time(n_trips: int, loop: FiberLoop) -> float:
    """Total storage time N * L * n_g / c."""
    _check_trips(n_trips)
    return n_trips * round_trip_time(loop)


def rf_pattern_for(n_trips: int, loop: FiberLoop) -> RfPattern:
    """ON for one round-trip, OFF for the remaining N-1 round-trips."""
    return RfPattern(round_trip_time(loop), n_trips)


def insertion_loss_db(
    n_trips: int,
    loop: FiberLoop,
    switch: SwitchSpec = SwitchSpec(),
) -> float:
    """Loss budget: 2 cross passes + (N-1) straight passes + fiber."""
    _check_trips(n_trips)
    fiber = loop.attenuation_db_per_km * n_trips * loop.length_km
    return (
        2.0 * switch.loss_cross_db
        + (n_trips - 1) * switch.loss_straight_db
        + fiber
    )


def loss_to_survival(loss_db: float) -> float:
    """Transmission probability 10^(-loss/10)."""
    if loss_db < 0:
        raise ValueError(f"loss must be nonnegative, got {loss_db} dB")
    return 10.0 ** (-loss_db / 10.0)


def _check_drive(pattern: RfPattern, switch: SwitchSpec) -> None:
    rate = pattern.repetition_rate_hz
    if rate > switch.max_rep_rate_hz:
        raise SwitchCapabilityError(
            f"drive rate {rate:.0f} Hz exceeds switch limit {switch.max_rep_rate_hz:.0f} Hz"
        )
    if pattern.on_duration < 2.0 * switch.rise_fall_time:
        raise SwitchCapabilityError("ON duration too short for the switch rise/fall time")


def simulate_timeline(
    pattern: RfPattern,
    loop: FiberLoop,
    topo: BufferTopology,
    switch: SwitchSpec = SwitchSpec(),
) -> PhotonTimeline:
    """Walk one photon through the loop under the given RF pattern.

    The photon is injected at t=0 on the rising edge (cross), recirculates at
    every multiple of the round-trip time while the switch sits straight, and
    is retrieved by the next ON transition at N*T.  If the drive rate exceeds
    the topology's leak threshold the photon instead leaks out on its first
    return and no RETRIEVE is emitted.
    """
    if topo.variant is TopologyVariant.MULTIPLIER_DIVIDER:
        raise ValueError("topology.variant MULTIPLIER_DIVIDER runs only in the divider suite")
    if topo.variant is TopologyVariant.LOOP_PORTS_2_3 and not switch.v_pi_calibrated:
        raise SwitchCapabilityError("the ports 2-3 loop requires a recalibrated pi-voltage")
    rt = round_trip_time(loop)
    if _slots(rt, pattern) != (1, 1):
        raise SchedulingError(
            f"ON duration {pattern.on_duration:.3e} s is not one round trip {rt:.3e} s"
        )
    _check_drive(pattern, switch)

    fiber_db = loop.attenuation_db_per_km * loop.length_km
    if pattern.repetition_rate_hz > topo.leak_threshold_hz * (1.0 + LEAK_RATE_GUARD):
        return _timeline(0.0, rt, 1, switch.loss_cross_db, 0.0,
                         fiber_db + switch.loss_straight_db, _LEAK)
    (timeline,) = _walk_path(rt, (1, 1), pattern, fiber_db, switch)
    return timeline


def _slots(rt: float, pattern: RfPattern) -> tuple[int, int]:
    """Round trip and ON window as whole slots (a, b), one of them 1.

    The ratio is rounded once.  Each ON window's worth of arrivals then slips
    by |b*rt - a*on| against the slot grid, and the longest stay the walk
    decides spans about N windows (N arrivals on (1, 1) and (r, 1), about N*r
    for the late exit on (1, r)), so N times that slip must stay within
    ``_PATTERN_TOL`` of the ON window.
    """
    on = pattern.on_duration
    a, b = (1, round(on / rt)) if rt <= on else (round(rt / on), 1)
    if pattern.n_trips * abs(b * rt - a * on) > _PATTERN_TOL * on:
        raise SchedulingError(
            f"round trip {rt:.3e} s incommensurate with the ON duration {on:.3e} s "
            f"over {pattern.n_trips} trips"
        )
    return a, b


def _walk_path(rt: float, slots: tuple[int, int], pattern: RfPattern, per_trip_db: float,
               switch: SwitchSpec) -> list[PhotonTimeline]:
    """Every exit of one path, each as the walk of the photon that takes it.

    ``slots`` = (a, b): the round trip spans ``a`` slots and the ON window
    ``b``, so an N-trip frame spans N*b.  A photon entering at half-slot s
    leaves on the first arrival k with (s + 2ka) mod 2Nb < 2b.  The exits
    come from two starts: the ON edge (t = 0, RETRIEVE) and the window's last
    half-slot 2b - 1 (t = ON - rt/2, GHOST_EXIT), kept if it leaves after
    another number of trips, which it never does when b = 1.
    """
    a, b = slots
    frame, window = 2 * pattern.n_trips * b, 2 * b
    step_db, exit_db = per_trip_db + switch.loss_straight_db, per_trip_db + switch.loss_cross_db
    exits: list[PhotonTimeline] = []
    for start, t_inject, kind in ((0, 0.0, _RETRIEVE),
                                  (window - 1, pattern.on_duration - rt / 2.0, _GHOST_EXIT)):
        # that k, solved: on (1, b) the first return if it lands in the window,
        # else the one that wraps the frame; on (a, 1) once k*a is a multiple of N
        trips = ((1 if start + 2 < window else (frame - start + 1) // 2) if a == 1
                 else pattern.n_trips // math.gcd(a, pattern.n_trips))
        if trips > MAX_TRIPS:
            raise ValueError(f"the photon needs more than {MAX_TRIPS} round trips")
        if exits and exits[0].round_trips == trips:
            break
        exits.append(_timeline(t_inject, rt, trips, switch.loss_cross_db, step_db, exit_db, kind))
    return exits


def divider_schedule(
    topo: BufferTopology,
    pattern: RfPattern,
    switch: SwitchSpec = SwitchSpec(),
) -> list[tuple[FiberLoop, PhotonTimeline]]:
    """Every exit of the multiplier/divider under one RF pattern, with its path.

    First the 0-trip straight pass of a photon that arrives while the switch
    is OFF (1 -> 3, one straight-pass loss), then each path's exits
    (``_walk_path``).  A path as long as the ON window holds the photon N
    trips, like the plain loop.  A path r times shorter lets it out on its
    first return (the divider) and traps a photon injected at the window's
    end until the next one: a ghost exit after (N-1)*r + 1 trips.
    """
    if topo.variant is not TopologyVariant.MULTIPLIER_DIVIDER:
        raise ValueError("divider_schedule needs a MULTIPLIER_DIVIDER topology")
    _check_drive(pattern, switch)
    # The straight pass enters no path.  It is listed under the last one so
    # that the suite's bypass row keeps its scenario, and with it the run id.
    straight = _timeline(0.0, 0.0, 0, 0.0, 0.0, switch.loss_straight_db, _RETRIEVE)
    out = [(topo.divider_paths[-1], straight)]
    for path in topo.divider_paths:
        rt = round_trip_time(path)
        per_trip = path.attenuation_db_per_km * path.length_km + 2.0 * topo.selector_loss_db
        exits = _walk_path(rt, _slots(rt, pattern), pattern, per_trip, switch)
        out.extend((path, timeline) for timeline in exits)
    return out


def channel_for_timeline(
    timeline: PhotonTimeline,
    loop: FiberLoop,
    noise: NoiseConfig = NoiseConfig(),
) -> QubitChannel:
    """Trace-preserving decoherence channel seen by the retrieved idler.

    Composes, in order: the noise's PMD dephasing as a phase-damping channel
    whose variance grows linearly with the fiber length propagated (round
    trips times the loop length), and the per-cross switch-actuation channels
    (bit flip, phase flip, amplitude damping) once per cross pass.  The loss
    budget is polarization independent, so it is no part of the channel: the
    photon survives with ``loss_to_survival(timeline.final_loss_db)``.
    """
    if not timeline.retrieved:
        raise NoRetrievalError("timeline has no RETRIEVE event")
    parts: list[QubitChannel] = []
    pmd = noise.pmd_dephasing_per_km
    km = timeline.round_trips * loop.length_km
    if pmd > 0 and km > 0:
        variance = pmd * pmd * km
        parts.append(qstate.phase_damping_channel(1.0 - math.exp(-variance)))
    if timeline.round_trips >= 1 and (cross := _cross_channels(noise)) is not None:
        parts.append(cross)  # both cross passes, one cached channel per NoiseConfig
    return qstate.compose_channels(*parts) if parts else qstate.identity_channel()


@functools.lru_cache(maxsize=16)  # NoiseConfig is frozen, so its channel is too
def _cross_channels(noise: NoiseConfig) -> QubitChannel | None:
    """Injection and retrieval cross passes as one channel; None if no knob is set."""
    one_pass = [make(p) for make, p in (
        (qstate.bit_flip_channel, noise.cross_bit_flip),
        (qstate.phase_flip_channel, noise.cross_phase_flip),
        (qstate.amplitude_damping_channel, noise.cross_amplitude_damping),
    ) if p > 0]
    return qstate.compose_channels(*one_pass, *one_pass) if one_pass else None
