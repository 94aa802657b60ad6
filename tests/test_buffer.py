import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberloop import buffer, qstate
from fiberloop.buffer import (
    MAX_TRIPS,
    SPEED_OF_LIGHT,
    BufferTopology,
    EventKind,
    FiberLoop,
    NoiseConfig,
    NoRetrievalError,
    PhotonTimeline,
    RfPattern,
    SchedulingError,
    SwitchCapabilityError,
    SwitchSpec,
    TimelineContractError,
    TimelineEvent,
    TopologyVariant,
    buffer_time,
    channel_for_timeline,
    divider_schedule,
    insertion_loss_db,
    loss_to_survival,
    rf_pattern_for,
    round_trip_time,
    simulate_timeline,
)
from fiberloop.counting import AnalyzerSetting, CountingConfig, CountRecord
from fiberloop.harness import PAPER_2023, Scenario
from fiberloop.tomography import MleConfig

V24 = TopologyVariant.LOOP_PORTS_2_4
V23 = TopologyVariant.LOOP_PORTS_2_3


def walk_ports(pattern: RfPattern, loop: FiberLoop, max_arrivals: int = 10_000):
    """Brute-force oracle: track the photon port by port through the
    cross/straight switch states; ON during [k*frame, k*frame + on)."""
    rt = loop.length_m * loop.group_index / SPEED_OF_LIGHT
    frame = pattern.on_duration + pattern.off_duration
    recirculations = 0
    for k in range(1, max_arrivals + 1):
        t = k * rt
        if math.fmod(t, frame) < pattern.on_duration:
            return t, k, recirculations  # cross state: 2 -> 3, photon out
        recirculations += 1  # straight state: 2 -> 4, back into the loop
    raise AssertionError("photon never exited")


class TestBufferTime:
    @pytest.mark.parametrize(
        "n,length_m,expect_us,rel",
        [
            (2, 5400.0, 52.0, 0.03),
            (3, 3000.0, 44.0, 0.03),
            (2, 1300.0, 12.7, 0.01),
        ],
    )
    def test_reference_times(self, n, length_m, expect_us, rel):
        t = buffer_time(n, FiberLoop(length_m))
        assert t == pytest.approx(expect_us * 1e-6, rel=rel)

    def test_short_length_limit(self):
        assert buffer_time(1, FiberLoop(1e-6)) < 1e-14

    def test_rejects_zero_trips(self):
        with pytest.raises(ValueError):
            buffer_time(0, FiberLoop(1000.0))

    @pytest.mark.parametrize("n", [2.5, True])
    @pytest.mark.parametrize("budget", [buffer_time, insertion_loss_db])
    def test_rejects_non_integer_trips(self, budget, n):
        # the same trip-count rule as RfPattern: 2.5 trips has no timeline
        with pytest.raises(ValueError, match="n_trips must be an int"):
            budget(n, FiberLoop(1000.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 500),
        st.floats(1.0, 1e5, allow_nan=False, allow_infinity=False),
    )
    def test_linearity_in_trips(self, n, length_m):
        loop = FiberLoop(length_m)
        assert buffer_time(2 * n, loop) == pytest.approx(
            2 * buffer_time(n, loop), rel=1e-15
        )


class TestRoundTripTime:
    @pytest.mark.parametrize(
        "length_m,expect_s",
        [(1300.0, 6.4e-6), (4000.0, 19.57e-6), (1.0, 4.9e-9)],
    )
    def test_reference_unit_delays(self, length_m, expect_s):
        assert round_trip_time(FiberLoop(length_m)) == pytest.approx(expect_s, rel=0.01)


class TestRfPattern:
    def test_three_trip_rate(self):
        p = rf_pattern_for(3, FiberLoop(3000.0))
        assert p.repetition_rate_hz == pytest.approx(22.7e3, rel=0.01)
        assert p.off_duration == pytest.approx(2 * p.on_duration, rel=1e-12)

    def test_two_trip_rate(self):
        p = rf_pattern_for(2, FiberLoop(5400.0))
        assert p.repetition_rate_hz == pytest.approx(19e3, rel=0.03)

    def test_single_pass(self):
        p = rf_pattern_for(1, FiberLoop(2.0))
        assert p.off_duration == 0.0
        assert p.n_trips == 1

    @pytest.mark.parametrize(
        "field, value",
        [("on_duration", v) for v in (math.nan, math.inf, 0.0)]
        + [("n_trips", v) for v in (2.5, True, 0, MAX_TRIPS + 1)],
    )
    def test_bad_field_is_a_value_error_naming_it(self, field, value):
        # NaN passes every ordering check, and a fractional trip count is an
        # OFF duration that is no whole number of ON windows
        with pytest.raises(ValueError, match=field):
            RfPattern(**{"on_duration": 1e-5, "n_trips": 2, field: value})


class TestInsertionLoss:
    # the seven reference rows: (n, length_m, dB/km, expected dB)
    ROWS = [
        (1, 5400.0, 0.20, 3.48),
        (2, 5400.0, 0.20, 5.56),
        (2, 4000.0, 0.15, 4.60),
        (2, 3000.0, 0.20, 4.60),
        (2, 1830.0, 0.20, 4.13),
        (2, 1300.0, 0.20, 3.92),
        (3, 3000.0, 0.20, 6.20),
    ]

    @pytest.mark.parametrize("n,length_m,atten,expect_db", ROWS)
    def test_reference_rows(self, n, length_m, atten, expect_db):
        loss = insertion_loss_db(n, FiberLoop(length_m, attenuation_db_per_km=atten))
        assert loss == pytest.approx(expect_db, abs=0.01)


class TestLossToSurvival:
    def test_reference_values(self):
        assert loss_to_survival(0.0) == 1.0
        assert loss_to_survival(3.48) == pytest.approx(0.4487, abs=1e-4)
        assert loss_to_survival(10.0) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            loss_to_survival(-1.0)


class TestSimulateTimeline:
    def test_retrieve_at_19khz(self):
        loop = FiberLoop(5400.0)
        tl = simulate_timeline(rf_pattern_for(2, loop), loop, BufferTopology(V24))
        assert tl.retrieved and not tl.leaked
        assert tl.events[-1].time == pytest.approx(52e-6, rel=0.03)
        assert tl.final_loss_db == pytest.approx(
            insertion_loss_db(2, loop), abs=1e-12
        )

    def test_leak_at_55_8khz_ports_2_4(self):
        loop = FiberLoop(1850.0)
        pattern = rf_pattern_for(2, loop)
        assert pattern.repetition_rate_hz == pytest.approx(55.8e3, rel=0.02)
        tl = simulate_timeline(pattern, loop, BufferTopology(V24))
        assert tl.leaked and not tl.retrieved
        assert tl.events[-1].kind is EventKind.LEAK
        assert tl.events[-1].time == pytest.approx(round_trip_time(loop), rel=1e-12)

    def test_retrieve_at_78khz_ports_2_3(self):
        loop = FiberLoop(1300.0)
        pattern = rf_pattern_for(2, loop)
        assert pattern.repetition_rate_hz == pytest.approx(78e3, rel=0.01)
        tl = simulate_timeline(
            pattern, loop, BufferTopology(V23), SwitchSpec(v_pi_calibrated=True)
        )
        assert tl.retrieved
        assert tl.total_buffer_time == pytest.approx(12.7e-6, rel=0.01)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_port_walker(self, n):
        loop = FiberLoop(3000.0)
        pattern = rf_pattern_for(n, loop)
        tl = simulate_timeline(pattern, loop, BufferTopology(V24, leak_threshold_hz=1e9))
        t_exit, trips, recirc = walk_ports(pattern, loop)
        assert tl.round_trips == trips
        assert tl.total_buffer_time == pytest.approx(t_exit, rel=1e-12)
        assert sum(1 for e in tl.events if e.kind is EventKind.RECIRCULATE) == recirc

    def test_loss_matches_closed_form(self):
        for n, length in [(1, 5400.0), (2, 4000.0), (3, 3000.0)]:
            loop = FiberLoop(length)
            tl = simulate_timeline(
                rf_pattern_for(n, loop), loop, BufferTopology(V24, leak_threshold_hz=1e9)
            )
            assert tl.final_loss_db == pytest.approx(insertion_loss_db(n, loop), abs=1e-12)

    def test_short_on_duration_rejected(self):
        loop = FiberLoop(3000.0)
        rt = round_trip_time(loop)
        with pytest.raises(SchedulingError):
            simulate_timeline(
                RfPattern(rt * 0.5, 2), loop, BufferTopology(V24)
            )

    def test_drift_over_the_whole_stay_rejected(self):
        # 0.09 % short is within 0.1 % per trip, yet over 1000 trips the
        # exit slips 0.9 ON windows off the slot grid
        loop = FiberLoop(3000.0)
        rt = round_trip_time(loop)
        with pytest.raises(SchedulingError, match="incommensurate"):
            simulate_timeline(RfPattern(0.9991 * rt, MAX_TRIPS), loop, BufferTopology(V24))

    def test_drive_rate_beyond_switch_rejected(self):
        loop = FiberLoop(2.0)  # 9.8 ns round trip -> MHz-scale drive
        with pytest.raises(SwitchCapabilityError):
            simulate_timeline(rf_pattern_for(2, loop), loop, BufferTopology(V24))

    def test_ports_2_3_requires_v_pi(self):
        loop = FiberLoop(1300.0)
        with pytest.raises(SwitchCapabilityError):
            simulate_timeline(
                rf_pattern_for(2, loop), loop, BufferTopology(V23), SwitchSpec()
            )

    def test_retrieve_below_both_thresholds(self):
        for n, length in [(2, 5400.0), (3, 3000.0), (2, 4000.0), (2, 3000.0)]:
            loop = FiberLoop(length)
            tl = simulate_timeline(rf_pattern_for(n, loop), loop, BufferTopology(V24))
            assert tl.retrieved

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, MAX_TRIPS),
        st.floats(1.0, 1e5, allow_nan=False, allow_infinity=False),
    )
    def test_any_multiple_makes_exactly_n_trips(self, n, length_m):
        # a switch and threshold that accept any drive, so only the walk decides
        loop = FiberLoop(length_m)
        switch = SwitchSpec(rise_fall_time=1e-15, max_rep_rate_hz=1e15)
        topo = BufferTopology(V24, leak_threshold_hz=1e15)
        tl = simulate_timeline(rf_pattern_for(n, loop), loop, topo, switch)
        assert tl.retrieved and tl.round_trips == n
        assert sum(1 for e in tl.events if e.kind is EventKind.RECIRCULATE) == n - 1
        assert tl.total_buffer_time == n * round_trip_time(loop)

    def test_pattern_beyond_trip_cap_rejected(self):
        loop = FiberLoop(3000.0)
        rt = round_trip_time(loop)
        with pytest.raises(ValueError, match="round trips"):
            simulate_timeline(
                RfPattern(rt, MAX_TRIPS + 1), loop, BufferTopology(V24, leak_threshold_hz=1e9)
            )


class TestTimelineInvariants:
    def test_requires_single_inject(self):
        with pytest.raises(TimelineContractError):
            PhotonTimeline(
                (TimelineEvent(1.0, EventKind.RETRIEVE, 1.0),), 1.0, 1
            )

    def test_requires_increasing_times(self):
        events = (
            TimelineEvent(0.0, EventKind.INJECT, 1.0),
            TimelineEvent(0.0, EventKind.RETRIEVE, 2.0),
        )
        with pytest.raises(TimelineContractError):
            PhotonTimeline(events, 1.0, 1)
        # the zero-delay pass-through (0 round trips) is the one exception
        PhotonTimeline(events, 0.0, 0)

    def test_no_silent_photon_loss(self):
        events = (TimelineEvent(0.0, EventKind.INJECT, 1.0),)
        with pytest.raises(TimelineContractError):
            PhotonTimeline(events, 0.0, 1)

    def test_retrieve_after_leak_rejected(self):
        events = (
            TimelineEvent(0.0, EventKind.INJECT, 1.0),
            TimelineEvent(1e-6, EventKind.LEAK, 2.0),
            TimelineEvent(2e-6, EventKind.RETRIEVE, 3.0),
        )
        with pytest.raises(TimelineContractError):
            PhotonTimeline(events, 2e-6, 2)


def _events(*pairs):
    """Timeline events from (time, kind) pairs, each with 1 dB of loss."""
    return tuple(TimelineEvent(t, kind, 1.0) for t, kind in pairs)


I, R, L, G, C = (EventKind.INJECT, EventKind.RETRIEVE, EventKind.LEAK,
                 EventKind.GHOST_EXIT, EventKind.RECIRCULATE)


class TestTimelineMessages:
    """One pass over the event kinds keeps each invariant and its message."""

    @pytest.mark.parametrize("pairs, trips, message", [
        pytest.param(((0, I), (1, I), (2, R)), 1, "exactly one INJECT", id="two-injects"),
        pytest.param(((0, C), (1, R)), 1, "exactly one INJECT", id="no-inject"),
        pytest.param(((0, I), (0, L)), 0, "strictly increasing", id="instant-leak"),
        pytest.param(((0, R), (0, I)), 0, "strictly increasing", id="retrieve-first"),
        pytest.param(((0, I), (0, C), (0, R)), 0, "strictly increasing", id="three-at-once"),
        pytest.param(((0, I), (1, R), (2, R)), 2, "at most one RETRIEVE", id="two-retrieves"),
        pytest.param(((0, I), (1, C)), 1, "RETRIEVE may be absent only", id="silent-loss"),
        pytest.param(((0, I), (1, G), (2, R)), 2, "RETRIEVE cannot follow", id="ghost-retrieve"),
    ])
    def test_rejected(self, pairs, trips, message):
        with pytest.raises(TimelineContractError, match=message):
            PhotonTimeline(_events(*pairs), 1.0, trips)

    @pytest.mark.parametrize("pairs, trips", [
        pytest.param(((0, I), (0, R)), 0, id="pass-through"),
        pytest.param(((0, I), (1, C), (2, L)), 2, id="leak"),
        pytest.param(((0, I), (1, G)), 1, id="ghost"),
        pytest.param(((0, I), (1, C), (2, R)), 2, id="retrieve"),
    ])
    def test_accepted(self, pairs, trips):
        timeline = PhotonTimeline(list(_events(*pairs)), 1.0, trips)
        assert isinstance(timeline.events, tuple)
        assert timeline.retrieved == (pairs[-1][1] is R)


class TestDividerSchedule:
    def _run(self):
        unit = FiberLoop(4000.0, attenuation_db_per_km=0.15)
        short = FiberLoop(1000.0, attenuation_db_per_km=0.15)
        topo = BufferTopology(
            TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(unit, short)
        )
        return unit, short, divider_schedule(topo, rf_pattern_for(2, unit))

    def test_unit_path_doubles_delay(self):
        unit, _, out = self._run()
        tl = [t for p, t in out if p is unit][0]
        assert tl.retrieved
        assert tl.total_buffer_time == pytest.approx(39.1e-6, rel=0.01)

    def test_short_path_divides_by_eight(self):
        unit, short, out = self._run()
        t_long = [t for p, t in out if p is unit][0].total_buffer_time
        # the 0-trip straight pass is listed under the short path too
        t_short = [t for p, t in out if p is short and t.retrieved and t.round_trips][0]
        t_short = t_short.total_buffer_time
        assert t_short == pytest.approx(4.9e-6, rel=0.01)
        assert 7.9 <= t_long / t_short <= 8.1

    def test_ghost_recirculation(self):
        _, short, out = self._run()
        ghost = [t for p, t in out if p is short and t.ghosted][0]
        assert ghost.round_trips == 5
        assert ghost.total_buffer_time == pytest.approx(5 * 4.9e-6, rel=0.01)
        straight_passes = sum(
            1 for e in ghost.events if e.kind is EventKind.RECIRCULATE
        )
        assert straight_passes >= 4

    def test_ghost_losses_accumulate_straight_passes(self):
        _, short, out = self._run()
        ghost = [t for p, t in out if p is short and t.ghosted][0]
        # 2 cross + 4 straight + 5 km fiber + 10 selector passes
        expected = 2 * 1.2 + 4 * 1.0 + 5 * 0.15 + 10 * 0.01
        assert ghost.final_loss_db == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(1000.0, 6000.0),
        # every N whose ghost, (N-1)*r + 1 trips, fits under the trip cap
        st.integers(1, 8).flatmap(
            lambda r: st.tuples(st.just(r), st.integers(1, (MAX_TRIPS - 1) // r + 1))
        ),
    )
    @example(4000.0, (4, 13))  # the multiple a float exit rule made 14 trips
    @example(3000.0, (3, 60))
    @example(1000.0, (1, MAX_TRIPS))
    def test_trip_counts_follow_the_slot_closed_forms(self, unit_m, r_n):
        # the unit path holds N trips, the short path exits on its first
        # return, and the ghost waits for the next ON window: (N-1)*r + 1
        r, n = r_n
        unit = FiberLoop(unit_m, attenuation_db_per_km=0.15)
        short = FiberLoop(unit_m / r, attenuation_db_per_km=0.15)
        topo = BufferTopology(
            TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(unit, short)
        )
        switch = SwitchSpec(rise_fall_time=1e-15, max_rep_rate_hz=1e15)
        out = divider_schedule(topo, rf_pattern_for(n, unit), switch)
        trips = {(p is unit, t.ghosted): t.round_trips for p, t in out}
        # at r = 1 the "short" path is the unit path again
        expected = {(True, False): n, (False, False): 1 if r > 1 else n}
        if r > 1 and n > 1:
            expected[(False, True)] = (n - 1) * r + 1
        assert trips == expected

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1000.0, 6000.0), st.integers(1, 12), st.booleans(), st.integers(1, 40))
    @example(4000.0, 4, True, 2)  # the divider suite's geometry
    def test_every_exit_is_found(self, unit_m, r, shorter, n):
        """Each path lists the trip counts of a brute-force walk from every
        half-slot of the ON window, each once, with at most one ghost exit.
        The longest stay, (N-1)*r + 1 = 469 trips, is under the trip cap."""
        unit = FiberLoop(unit_m, attenuation_db_per_km=0.15)
        path = FiberLoop(unit_m / r if shorter else unit_m * r, attenuation_db_per_km=0.15)
        topo = BufferTopology(TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(unit, path))
        switch = SwitchSpec(rise_fall_time=1e-15, max_rep_rate_hz=1e15)
        out = divider_schedule(topo, rf_pattern_for(n, unit), switch)

        def brute_force(a, b):  # a photon entering at half-slot s, round trip a slots
            trips = set()
            for s in range(2 * b):
                k = 1
                while (s + 2 * k * a) % (2 * n * b) >= 2 * b:
                    k += 1
                trips.add(k)
            return trips

        (straight_path, straight), *exits = out
        assert straight_path is path and straight.round_trips == 0 and straight.retrieved
        for p, slots in ((unit, (1, 1)), (path, (1, r) if shorter else (r, 1))):
            listed = [t.round_trips for q, t in exits if q is p]
            assert sorted(listed) == sorted(brute_force(*slots))
            assert sum(t.ghosted for q, t in exits if q is p) <= 1

    @pytest.mark.parametrize("n", [2, 50, 120, 200])
    def test_path_drifting_out_of_the_on_window_rejected(self, n):
        # 0.98 % long is within 1 % per trip, yet after N = 120 trips its
        # exit would lie 1.17 ON windows into the frame
        unit = FiberLoop(4000.0)
        topo = BufferTopology(
            TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(FiberLoop(4039.0),)
        )
        with pytest.raises(SchedulingError, match="incommensurate"):
            divider_schedule(topo, rf_pattern_for(n, unit))

    def test_ghost_beyond_the_trip_cap_is_a_round_trip_error(self):
        unit, short = FiberLoop(4000.0), FiberLoop(1000.0)
        topo = BufferTopology(
            TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(unit, short)
        )
        out = divider_schedule(topo, rf_pattern_for(250, unit))
        assert max(t.round_trips for _, t in out) == 249 * 4 + 1
        # the drive is commensurate; only the ghost's 1,001 trips are too many
        with pytest.raises(ValueError, match=f"{MAX_TRIPS} round trips") as err:
            divider_schedule(topo, rf_pattern_for(251, unit))
        assert err.type is ValueError

    def test_incommensurate_path_rejected(self):
        unit = FiberLoop(4000.0)
        odd = FiberLoop(1700.0)
        topo = BufferTopology(
            TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(odd,)
        )
        with pytest.raises(SchedulingError):
            divider_schedule(topo, rf_pattern_for(2, unit))

    def test_needs_divider_topology(self):
        loop = FiberLoop(4000.0)
        with pytest.raises(ValueError):
            divider_schedule(BufferTopology(V24), rf_pattern_for(2, loop))


class TestChannelForTimeline:
    def _timeline(self, loss_db=0.0, trips=1, length_m=1000.0):
        events = (
            TimelineEvent(0.0, EventKind.INJECT, 0.0),
            TimelineEvent(trips * 5e-6, EventKind.RETRIEVE, loss_db),
        )
        return PhotonTimeline(events, trips * 5e-6, trips)

    def test_zero_noise_zero_loss_is_identity(self):
        loop = FiberLoop(1000.0)
        ch = channel_for_timeline(self._timeline(), loop)
        assert len(ch.kraus_ops) == 1
        np.testing.assert_allclose(ch.kraus_ops[0], np.eye(2), atol=1e-15)

    def test_loss_only_scalar_kraus(self):
        # the loss is a survival number, not a channel part: the channel of a
        # loss-only timeline is the identity
        loop = FiberLoop(1000.0)
        ch = channel_for_timeline(self._timeline(loss_db=3.0), loop)
        assert len(ch.kraus_ops) == 1
        np.testing.assert_allclose(ch.kraus_ops[0], np.eye(2), atol=1e-12)
        assert loss_to_survival(3.0) == pytest.approx(0.501, abs=1e-3)

    def test_pmd_phase_damping_kraus(self):
        # dephasing variance sigma^2 with lambda = 1 - exp(-sigma^2);
        # pick sigma^2 = -ln(0.9) so lambda = 0.1 exactly
        var = -math.log(0.9)
        noise = NoiseConfig(pmd_dephasing_per_km=math.sqrt(var))
        ch = channel_for_timeline(self._timeline(), FiberLoop(1000.0), noise)
        k0, k1 = ch.kraus_ops
        np.testing.assert_allclose(k0, np.diag([1.0, math.sqrt(0.9)]), atol=1e-12)
        np.testing.assert_allclose(k1, np.diag([0.0, math.sqrt(0.1)]), atol=1e-12)
        chi = qstate.channel_to_chi(ch)
        p = (1 - math.sqrt(0.9)) / 2
        np.testing.assert_allclose(chi.matrix, np.diag([1 - p, 0, 0, p]), atol=1e-12)

    def test_cross_noise_applied_twice(self):
        loop = FiberLoop(1000.0)
        q = 0.01
        ch = channel_for_timeline(
            self._timeline(), loop, NoiseConfig(cross_phase_flip=q)
        )
        chi = qstate.channel_to_chi(ch)
        # two independent phase flips: identity weight ((1-q)^2 + q^2), rest s3
        expected_id = (1 - q) ** 2 + q**2
        assert chi.matrix[0, 0].real == pytest.approx(expected_id, abs=1e-12)
        assert chi.matrix[3, 3].real == pytest.approx(1 - expected_id, abs=1e-12)

    def test_requires_retrieve(self):
        events = (
            TimelineEvent(0.0, EventKind.INJECT, 1.0),
            TimelineEvent(5e-6, EventKind.LEAK, 2.0),
        )
        tl = PhotonTimeline(events, 5e-6, 1)
        with pytest.raises(NoRetrievalError):
            channel_for_timeline(tl, FiberLoop(1000.0))

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.0, 20.0),
        st.floats(0.0, 0.3),
        st.floats(0.0, 0.3),
    )
    def test_output_channel_is_valid(self, loss_db, pmd, q):
        ch = channel_for_timeline(
            self._timeline(loss_db=loss_db, trips=2),
            FiberLoop(1000.0),
            NoiseConfig(pmd_dephasing_per_km=pmd, cross_phase_flip=q, cross_bit_flip=q / 2),
        )
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.linalg.eigvalsh(total).max() <= 1.0 + 1e-12


# The validated specs, with the arguments each needs besides the field tried.
LOOP_ARGS = {"length_m": 1000.0}
PATTERN_ARGS = {"on_duration": 1e-5, "n_trips": 2}
TOPOLOGY_ARGS = {"variant": V24}
ANGLE_ARGS = dict.fromkeys(("hwp_signal", "qwp_signal", "hwp_idler", "qwp_idler"), 0.0)
RECORD_ARGS = {"setting_index": 0, "coincidences": 5, "accidentals": 1, "integration_time": 1.0}
RATE_ARGS = {"pair_rate": 1.0}
SCENARIO_ARGS = {"name": "x", "loop": FiberLoop(1000.0), "n_trips": 1,
                 "topology": BufferTopology(V24)}
PROBABILITY = "a probability in [0, 1]"

# Every float field of the validated specs; each must be finite.
FLOAT_FIELDS = [
    (FiberLoop, LOOP_ARGS, ("length_m", "attenuation_db_per_km", "group_index")),
    (SwitchSpec, {}, ("loss_cross_db", "loss_straight_db", "rise_fall_time", "max_rep_rate_hz")),
    (RfPattern, PATTERN_ARGS, ("on_duration",)),
    (BufferTopology, TOPOLOGY_ARGS, ("leak_threshold_hz", "selector_loss_db")),
    (NoiseConfig, {}, ("pmd_dephasing_per_km", "cross_bit_flip", "cross_phase_flip",
                       "cross_amplitude_damping", "accidental_rate")),
    (AnalyzerSetting, ANGLE_ARGS, tuple(ANGLE_ARGS)),
    (CountRecord, RECORD_ARGS, ("integration_time",)),
    (CountingConfig, RATE_ARGS, ("pair_rate", "signal_arm_loss_db", "idler_arm_loss_db",
                                 "accidental_rate")),
    (MleConfig, {}, ("convergence_tol",)),
    (Scenario, SCENARIO_ARGS, ("pair_rate", "signal_arm_loss_db", "integration_time")),
]

# Every bounded field of the validated specs, a value outside the bound, and
# the bound as the error words it.
OUT_OF_RANGE = [
    (FiberLoop, LOOP_ARGS, "length_m", 0.0, "positive"),
    (FiberLoop, LOOP_ARGS, "attenuation_db_per_km", -0.1, "nonnegative"),
    (FiberLoop, LOOP_ARGS, "group_index", 0.5, ">= 1"),
    (SwitchSpec, {}, "loss_cross_db", -1.0, "nonnegative"),
    (SwitchSpec, {}, "loss_straight_db", -0.5, "nonnegative"),
    (SwitchSpec, {}, "rise_fall_time", 0.0, "positive"),
    (SwitchSpec, {}, "max_rep_rate_hz", -1.0, "positive"),
    (RfPattern, PATTERN_ARGS, "on_duration", 0.0, "positive"),
    (BufferTopology, TOPOLOGY_ARGS, "leak_threshold_hz", 0.0, "positive"),
    (BufferTopology, TOPOLOGY_ARGS, "selector_loss_db", -0.01, "nonnegative"),
    (NoiseConfig, {}, "pmd_dephasing_per_km", -0.1, "nonnegative"),
    (NoiseConfig, {}, "cross_bit_flip", 1.5, PROBABILITY),
    (NoiseConfig, {}, "cross_phase_flip", -0.1, PROBABILITY),
    (NoiseConfig, {}, "cross_amplitude_damping", 2.0, PROBABILITY),
    (NoiseConfig, {}, "accidental_rate", -1.0, "nonnegative"),
    (CountRecord, RECORD_ARGS, "setting_index", -1, "nonnegative"),
    (CountRecord, RECORD_ARGS, "coincidences", -1, "nonnegative"),
    (CountRecord, RECORD_ARGS, "accidentals", -2, "nonnegative"),
    (CountRecord, RECORD_ARGS, "integration_time", 0.0, "positive"),
    (CountingConfig, RATE_ARGS, "pair_rate", -1.0, "nonnegative"),
    (CountingConfig, RATE_ARGS, "signal_arm_loss_db", -0.5, "nonnegative"),
    (CountingConfig, RATE_ARGS, "idler_arm_loss_db", -0.5, "nonnegative"),
    (CountingConfig, RATE_ARGS, "accidental_rate", -1.0, "nonnegative"),
    (MleConfig, {}, "max_iterations", 0, ">= 1"),
    (MleConfig, {}, "convergence_tol", 0.0, "positive"),
    (Scenario, SCENARIO_ARGS, "n_trips", 0, ">= 1"),
    (Scenario, SCENARIO_ARGS, "pair_rate", -1.0, "nonnegative"),
    (Scenario, SCENARIO_ARGS, "signal_arm_loss_db", -0.5, "nonnegative"),
    (Scenario, SCENARIO_ARGS, "integration_time", 0.0, "positive"),
]

FIELD_CASES = [
    (cls, base, field, value, "finite")
    for cls, base, names in FLOAT_FIELDS
    for field in names
    for value in (math.nan, math.inf, -math.inf)
] + OUT_OF_RANGE


class TestValidation:
    def test_loop_validation(self):
        with pytest.raises(ValueError):
            FiberLoop(0.0)
        with pytest.raises(ValueError):
            FiberLoop(1000.0, attenuation_db_per_km=-0.1)
        with pytest.raises(ValueError):
            FiberLoop(1000.0, group_index=0.5)

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            BufferTopology(TopologyVariant.MULTIPLIER_DIVIDER)
        with pytest.raises(ValueError):
            BufferTopology(V24, divider_paths=(FiberLoop(1000.0),))
        assert BufferTopology(V24).leak_threshold_hz == 50e3
        assert BufferTopology(V23).leak_threshold_hz == 78e3

    def test_switch_validation(self):
        with pytest.raises(ValueError):
            SwitchSpec(loss_cross_db=-1.0)
        with pytest.raises(ValueError):
            SwitchSpec(rise_fall_time=0.0)

    @pytest.mark.parametrize(
        "cls, base, field, value, bound",
        [pytest.param(*case, id=f"{case[0].__name__}.{case[2]}={case[3]}")
         for case in FIELD_CASES],
    )
    def test_non_finite_field_rejected(self, cls, base, field, value, bound):
        # NaN fails every ordering test, so "x < 0" checks alone let it through
        message = f"{cls.__name__}.{field} must be {bound}, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**base, field: value})

    def test_plan_is_built_once_per_class(self):
        plan = buffer._plan(FiberLoop)
        FiberLoop(1000.0)
        assert buffer._plan(FiberLoop) is plan
        names = [name for name, _, _ in plan]
        assert names == ["length_m", "attenuation_db_per_km", "group_index"]
        name, bound, ok = plan[0]
        assert bound == "positive" and ok(1.0) and not ok(0.0)
        assert buffer._plan(SwitchSpec)[-1][1:] == (None, None)  # v_pi_calibrated: no bound

    def test_nan_loop_and_pmd_no_longer_give_a_perfect_channel(self):
        with pytest.raises(ValueError, match="attenuation_db_per_km"):
            FiberLoop(5400.0, attenuation_db_per_km=math.nan)
        with pytest.raises(ValueError, match="pmd_dephasing_per_km"):
            NoiseConfig(pmd_dephasing_per_km=math.nan)


class TestCrossChannelReuse:
    def test_both_cross_passes_share_channel_objects(self, monkeypatch):
        noise = NoiseConfig(pmd_dephasing_per_km=0.1, cross_bit_flip=0.01,
                            cross_phase_flip=0.02, cross_amplitude_damping=0.03)
        cross = buffer._cross_channels(noise)  # both passes, composed once and cached
        assert cross is not None and buffer._cross_channels(NoiseConfig()) is None
        seen = []
        compose = qstate.compose_channels
        monkeypatch.setattr(
            qstate, "compose_channels", lambda *parts: seen.append(parts) or compose(*parts)
        )
        events = (
            TimelineEvent(0.0, EventKind.INJECT, 0.0),
            TimelineEvent(5e-6, EventKind.RETRIEVE, 3.0),
        )
        for _ in range(2):
            channel_for_timeline(PhotonTimeline(events, 5e-6, 1), FiberLoop(1000.0), noise)
        assert len(seen) == 2  # one compose_channels call per op: PMD, then both passes
        assert all(len(parts) == 2 and parts[1] is cross for parts in seen)


def reference_idler_output(timeline: PhotonTimeline, loop: FiberLoop, noise: NoiseConfig):
    """Independent reference: each part's Kraus set written out by hand and
    applied to the Bell pair's idler in turn, one (I kron K) sandwich per
    operator.  Zero-probability parts are kept; they act as the identity."""
    eye, sx, sz = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    survival = 10.0 ** (-timeline.final_loss_db / 10.0)
    pmd = noise.pmd_dephasing_per_km
    lam = 1.0 - math.exp(-pmd * pmd * timeline.round_trips * loop.length_km)
    p, q, g = noise.cross_bit_flip, noise.cross_phase_flip, noise.cross_amplitude_damping
    cross = [
        [math.sqrt(1 - p) * eye, math.sqrt(p) * sx],
        [math.sqrt(1 - q) * eye, math.sqrt(q) * sz],
        [np.diag([1.0, math.sqrt(1 - g)]), np.array([[0.0, math.sqrt(g)], [0.0, 0.0]])],
    ]
    parts = [[math.sqrt(survival) * eye],
             [np.diag([1.0, math.sqrt(1 - lam)]), np.diag([0.0, math.sqrt(lam)])],
             *cross, *cross]
    rho = qstate.bell_state().matrix
    for ops in parts:
        big = [np.kron(eye, k) for k in ops]
        rho = sum(b @ rho @ b.conj().T for b in big)
    total = float(np.trace(rho).real)
    return rho / total, total


def assert_matches_reference(timeline, loop, noise):
    """The channel is trace preserving and gives the reference state; the
    reference's loss part is the survival number of the loss budget."""
    state, trace = qstate.apply_idler_channel(
        qstate.bell_state(), channel_for_timeline(timeline, loop, noise)
    )
    ref_state, ref_survival = reference_idler_output(timeline, loop, noise)
    np.testing.assert_allclose(state.matrix, ref_state, rtol=0, atol=1e-14)
    assert trace == pytest.approx(1.0, rel=0, abs=1e-14)
    assert loss_to_survival(timeline.final_loss_db) == pytest.approx(
        ref_survival, rel=0, abs=1e-14
    )


class TestChannelMatchesKrausReference:
    """The superoperator path against a Kraus-by-Kraus reference, on the
    model-only fidelity map: both wirings, 1-6 km, N = 1..8, drives the switch
    allows, with paper-2023 phase noise alone and with extra bit flip and
    amplitude damping."""

    def test_every_fidelity_map_point(self):
        phase_only = PAPER_2023.to_noise()
        mixed = NoiseConfig(
            pmd_dephasing_per_km=phase_only.pmd_dephasing_per_km,
            cross_phase_flip=phase_only.cross_phase_flip,
            cross_bit_flip=0.005,
            cross_amplitude_damping=0.005,
        )
        checked = 0
        for variant in (V24, V23):
            switch = SwitchSpec(v_pi_calibrated=(variant is V23))
            for km in range(1, 7):
                loop = FiberLoop(1000.0 * km)
                for n in range(1, 9):
                    pattern = rf_pattern_for(n, loop)
                    if pattern.repetition_rate_hz > switch.max_rep_rate_hz:
                        continue
                    timeline = simulate_timeline(pattern, loop, BufferTopology(variant), switch)
                    if not timeline.retrieved:
                        continue
                    for noise in (phase_only, mixed):
                        assert_matches_reference(timeline, loop, noise)
                        checked += 1
        assert checked == 170  # the retrieved points of the 180-point map

    def test_more_noise_configs_than_the_cache_holds(self):
        loop = FiberLoop(3000.0)
        pattern = rf_pattern_for(2, loop)
        timeline = simulate_timeline(pattern, loop, BufferTopology(V24), SwitchSpec())
        configs = [
            NoiseConfig(
                pmd_dephasing_per_km=0.01 * j,
                cross_bit_flip=0.001 * j,
                cross_phase_flip=0.002 * (j % 7),
                cross_amplitude_damping=0.003 * (j % 5),
            )
            for j in range(40)
        ]
        assert len(set(configs)) == 40
        for noise in configs + configs[::-1]:  # evicted entries are built again
            assert_matches_reference(timeline, loop, noise)
        info = buffer._cross_channels.cache_info()
        assert info.currsize <= info.maxsize < 40
