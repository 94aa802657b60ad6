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
delay (plus a "ghost" recirculation for photons injected near the end of the
ON window).  Every decoherence knob, PMD dephasing included, is in ``NoiseConfig``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

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


def _require_finite(spec: object) -> None:
    """Reject non-finite float fields: NaN passes every ordering check."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SwitchSpec:
    """2x2 switch parameters: per-pass losses and drive capabilities."""

    loss_cross_db: float = 1.2
    loss_straight_db: float = 1.0
    rise_fall_time: float = 100e-9
    max_rep_rate_hz: float = 100e3
    v_pi_calibrated: bool = False

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.loss_cross_db < 0 or self.loss_straight_db < 0:
            raise ValueError("switch losses must be nonnegative")
        if not self.rise_fall_time > 0:
            raise ValueError("rise/fall time must be positive")
        if not self.max_rep_rate_hz > 0:
            raise ValueError("max repetition rate must be positive")


@dataclass(frozen=True)
class FiberLoop:
    """Fiber delay line: length, attenuation, group index."""

    length_m: float
    attenuation_db_per_km: float = 0.2
    group_index: float = 1.468

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.length_m > 0:
            raise ValueError("loop length must be positive")
        if self.attenuation_db_per_km < 0:
            raise ValueError("attenuation must be nonnegative")
        if self.group_index < 1:
            raise ValueError("group index must be >= 1")

    @property
    def length_km(self) -> float:
        return self.length_m / 1000.0


@dataclass(frozen=True)
class RfPattern:
    """RF drive: ON for ``on_duration`` (one round trip T), OFF for (N-1)*T."""

    on_duration: float
    n_trips: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.on_duration) and self.on_duration > 0):
            raise ValueError(f"on_duration must be finite and positive, got {self.on_duration}")
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
    leak_threshold_hz: float | None = None
    divider_paths: tuple[FiberLoop, ...] = ()
    selector_loss_db: float = 0.01

    def __post_init__(self) -> None:
        if self.leak_threshold_hz is None:
            object.__setattr__(
                self, "leak_threshold_hz", DEFAULT_LEAK_THRESHOLD_HZ[self.variant]
            )
        _require_finite(self)
        if not self.leak_threshold_hz > 0:
            raise ValueError("leak threshold must be positive")
        object.__setattr__(self, "divider_paths", tuple(self.divider_paths))
        is_divider = self.variant is TopologyVariant.MULTIPLIER_DIVIDER
        if is_divider and not self.divider_paths:
            raise ValueError("MULTIPLIER_DIVIDER topology needs divider paths")
        if not is_divider and self.divider_paths:
            raise ValueError("divider paths only apply to MULTIPLIER_DIVIDER")
        if self.selector_loss_db < 0:
            raise ValueError("selector loss must be nonnegative")


class EventKind(enum.Enum):
    INJECT = "INJECT"
    RECIRCULATE = "RECIRCULATE"
    LEAK = "LEAK"
    RETRIEVE = "RETRIEVE"
    GHOST_EXIT = "GHOST_EXIT"


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    kind: EventKind
    accumulated_loss_db: float


@dataclass(frozen=True)
class PhotonTimeline:
    """Ordered photon events with accumulated loss.

    ``round_trips`` counts loop traversals (0 for the straight pass-through
    of the divider bypass, which is also the only case where RETRIEVE may
    share the INJECT timestamp).  A timeline ends in exactly one of RETRIEVE,
    LEAK, or GHOST_EXIT.
    """

    events: tuple[TimelineEvent, ...]
    total_buffer_time: float
    round_trips: int

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if sum(1 for e in events if e.kind is EventKind.INJECT) != 1:
            raise TimelineContractError("timeline needs exactly one INJECT")
        times = [e.time for e in events]
        strictly = all(b > a for a, b in zip(times, times[1:]))
        if not strictly:
            passthrough = (
                self.round_trips == 0
                and len(events) == 2
                and events[1].kind is EventKind.RETRIEVE
                and times[0] == times[1]
            )
            if not passthrough:
                raise TimelineContractError("event times must be strictly increasing")
        n_retrieve = sum(1 for e in events if e.kind is EventKind.RETRIEVE)
        if n_retrieve > 1:
            raise TimelineContractError("at most one RETRIEVE allowed")
        terminal = {EventKind.LEAK, EventKind.GHOST_EXIT}
        has_terminal_loss = any(e.kind in terminal for e in events)
        if n_retrieve == 0 and not has_terminal_loss:
            raise TimelineContractError(
                "RETRIEVE may be absent only when the photon leaked or ghost-exited"
            )
        if n_retrieve == 1 and has_terminal_loss:
            raise TimelineContractError("RETRIEVE cannot follow a LEAK/GHOST_EXIT")
        if self.round_trips < 0:
            raise TimelineContractError("round trips must be nonnegative")
        if self.total_buffer_time < 0:
            raise TimelineContractError("buffer time must be nonnegative")

    @property
    def retrieved(self) -> bool:
        return any(e.kind is EventKind.RETRIEVE for e in self.events)

    @property
    def leaked(self) -> bool:
        return any(e.kind is EventKind.LEAK for e in self.events)

    @property
    def ghosted(self) -> bool:
        return any(e.kind is EventKind.GHOST_EXIT for e in self.events)

    @property
    def final_loss_db(self) -> float:
        return self.events[-1].accumulated_loss_db


@dataclass(frozen=True)
class NoiseConfig:
    """Decoherence knobs for the buffered idler.

    ``pmd_dephasing_per_km`` is the std dev (radians) of the dephasing angle
    gathered per km of fiber, so its variance grows linearly with length.  The
    per-cross probabilities apply once per cross pass (injection, retrieval).
    ``accidental_rate`` is consumed by the counting stage, not by the channel.
    """

    pmd_dephasing_per_km: float = 0.0
    cross_bit_flip: float = 0.0
    cross_phase_flip: float = 0.0
    cross_amplitude_damping: float = 0.0
    accidental_rate: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("cross_bit_flip", "cross_phase_flip", "cross_amplitude_damping"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")
        if self.pmd_dephasing_per_km < 0:
            raise ValueError("PMD dephasing must be nonnegative")
        if self.accidental_rate < 0:
            raise ValueError("accidental rate must be nonnegative")


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
        raise ValueError("use divider_schedule for the multiplier/divider topology")
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
        inject = TimelineEvent(0.0, EventKind.INJECT, switch.loss_cross_db)
        loss = switch.loss_cross_db + (fiber_db + switch.loss_straight_db)
        leak = TimelineEvent(rt, EventKind.LEAK, loss)
        return PhotonTimeline((inject, leak), total_buffer_time=rt, round_trips=1)
    return _walk_path(rt, (1, 1), pattern, fiber_db, switch.loss_straight_db, switch.loss_cross_db)


def _slots(rt: float, pattern: RfPattern) -> tuple[int, int]:
    """Round trip and ON window as whole slots (a, b), one of them 1.

    The ratio is rounded once.  Each ON window's worth of arrivals then slips
    by |b*rt - a*on| against the slot grid, and the longest stay the walk
    decides spans about N windows (N arrivals on (1, 1) and (r, 1), about N*r
    for the ghost on (1, r)), so N times that slip must stay within
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


def _walk_path(
    rt: float,
    slots: tuple[int, int],
    pattern: RfPattern,
    per_trip_db: float,
    straight_db: float,
    cross_db: float,
    ghost: bool = False,
) -> PhotonTimeline:
    """Arrival-by-arrival walk of one photon until an ON window lets it out.

    ``slots`` = (a, b): the round trip spans ``a`` slots and the ON window
    ``b``, so the frame of an N-trip pattern spans N*b.  Exits are decided
    in exact half-slots: arrival k leaves when (start + 2ka) mod 2Nb < 2b.
    The photon enters at t=0 (half-slot 0), a ghost half a round trip before
    the ON window closes (half-slot 2b - a); arrival k comes k*rt later.
    """
    a, b = slots
    t_inject, start = (pattern.on_duration - rt / 2.0, 2 * b - a) if ghost else (0.0, 0)
    exit_kind = EventKind.GHOST_EXIT if ghost else EventKind.RETRIEVE
    frame = 2 * pattern.n_trips * b
    events = [TimelineEvent(t_inject, EventKind.INJECT, cross_db)]
    loss = cross_db
    for k in range(1, MAX_TRIPS + 1):
        t = t_inject + k * rt
        if (start + 2 * k * a) % frame < 2 * b:
            loss += per_trip_db + cross_db
            events.append(TimelineEvent(t, exit_kind, loss))
            return PhotonTimeline(
                tuple(events), total_buffer_time=k * rt, round_trips=k
            )
        loss += per_trip_db + straight_db
        events.append(TimelineEvent(t, EventKind.RECIRCULATE, loss))
    raise ValueError(f"the photon needs more than {MAX_TRIPS} round trips")


def divider_schedule(
    topo: BufferTopology,
    pattern: RfPattern,
    switch: SwitchSpec = SwitchSpec(),
) -> list[tuple[FiberLoop, PhotonTimeline]]:
    """Timelines for every selectable divider path under one RF pattern.

    A path whose round trip equals the ON duration behaves like the plain
    loop (integer multiple of the unit delay).  A path whose round trip is an
    integer fraction of the ON duration exits on its first return, still
    inside the ON window (the divider), and additionally traps photons
    injected near the end of the ON window until the next ON transition,
    producing a ghost exit with extra straight-pass losses.
    """
    if topo.variant is not TopologyVariant.MULTIPLIER_DIVIDER:
        raise ValueError("divider_schedule needs a MULTIPLIER_DIVIDER topology")
    _check_drive(pattern, switch)
    out: list[tuple[FiberLoop, PhotonTimeline]] = []
    for path in topo.divider_paths:
        rt = round_trip_time(path)
        slots = _slots(rt, pattern)
        per_trip = path.attenuation_db_per_km * path.length_km + 2.0 * topo.selector_loss_db
        walk = (rt, slots, pattern, per_trip, switch.loss_straight_db, switch.loss_cross_db)
        main = _walk_path(*walk)
        out.append((path, main))
        if slots[1] >= 2:
            # photons entering in the last fraction of the ON window return
            # after it closed and stay trapped until the next ON transition
            ghost = _walk_path(*walk, ghost=True)
            if ghost.round_trips != main.round_trips:
                out.append((path, ghost))
    return out


def channel_for_timeline(
    timeline: PhotonTimeline,
    loop: FiberLoop,
    noise: NoiseConfig = NoiseConfig(),
) -> QubitChannel:
    """Decoherence channel seen by the retrieved idler.

    Composes, in order: polarization-independent attenuation from the
    accumulated loss budget, the noise's PMD dephasing as a phase-damping
    channel whose variance grows linearly with the fiber length propagated
    (round trips times the loop length), and the per-cross switch-actuation
    channels (bit flip, phase flip, amplitude damping) once per cross pass.
    """
    if not timeline.retrieved:
        raise NoRetrievalError("timeline has no RETRIEVE event")
    parts: list[QubitChannel] = []
    loss_db = timeline.final_loss_db
    if loss_db > 0:
        parts.append(qstate.loss_channel(loss_to_survival(loss_db)))
    pmd = noise.pmd_dephasing_per_km
    km = timeline.round_trips * loop.length_km
    if pmd > 0 and km > 0:
        variance = pmd * pmd * km
        parts.append(qstate.phase_damping_channel(1.0 - math.exp(-variance)))
    # one cross pass on injection, one on retrieval: the same channel objects
    parts.extend(_cross_channels(noise) * 2 if timeline.round_trips >= 1 else ())
    return qstate.compose_channels(*parts) if parts else qstate.identity_channel()


@functools.lru_cache(maxsize=16)  # NoiseConfig is frozen, so its channels are too
def _cross_channels(noise: NoiseConfig) -> tuple[QubitChannel, ...]:
    return tuple(make(p) for make, p in (
        (qstate.bit_flip_channel, noise.cross_bit_flip),
        (qstate.phase_flip_channel, noise.cross_phase_flip),
        (qstate.amplitude_damping_channel, noise.cross_amplitude_damping),
    ) if p > 0)
