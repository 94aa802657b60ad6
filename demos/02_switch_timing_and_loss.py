"""Switch timing, loss budgets, and the leak threshold.

Walk the photon through the loop for several configurations: round-trip
times, the RF patterns that realize N round trips, the event timelines, and
what happens when the drive rate exceeds what the switch wiring supports.
"""

from fiberloop import buffer as buf

V24 = buf.TopologyVariant.LOOP_PORTS_2_4
V23 = buf.TopologyVariant.LOOP_PORTS_2_3

print("Unit delays (one loop round trip):")
for length in (1300.0, 3000.0, 4000.0, 5400.0):
    t = buf.round_trip_time(buf.FiberLoop(length))
    print(f"  {length/1000:.2f} km -> {t * 1e6:8.3f} us")

print("\nLoss budget per configuration (2 cross + (N-1) straight + fiber):")
for n, length, atten in [
    (1, 5400.0, 0.20), (2, 5400.0, 0.20), (2, 4000.0, 0.15),
    (2, 3000.0, 0.20), (2, 1830.0, 0.20), (2, 1300.0, 0.20), (3, 3000.0, 0.20),
]:
    loop = buf.FiberLoop(length, attenuation_db_per_km=atten)
    loss = buf.insertion_loss_db(n, loop)
    t = buf.buffer_time(n, loop)
    survival = buf.loss_to_survival(loss)
    print(
        f"  N={n} L={length/1000:.2f} km @{atten} dB/km: "
        f"{t * 1e6:6.2f} us, {loss:.2f} dB, survival {survival:.3f}"
    )

print("\nTimeline for N=3 in the 3.0 km loop (22.7 kHz drive):")
loop = buf.FiberLoop(3000.0)
pattern = buf.rf_pattern_for(3, loop)
tl = buf.simulate_timeline(pattern, loop, buf.BufferTopology(V24))
for e in tl.events:
    print(f"  t={e.time * 1e6:7.2f} us  {e.kind.value:12s} loss={e.accumulated_loss_db:.2f} dB")

print("\nDriving the 2-4 wiring too fast (1.85 km loop, ~55 kHz):")
loop = buf.FiberLoop(1850.0)
pattern = buf.rf_pattern_for(2, loop)
tl = buf.simulate_timeline(pattern, loop, buf.BufferTopology(V24))
print(f"  rate {pattern.repetition_rate_hz / 1e3:.1f} kHz -> {tl.events[-1].kind.value}")

print("Same rate class on the rewired 2-3 ports (1.3 km loop, ~78 kHz):")
loop = buf.FiberLoop(1300.0)
pattern = buf.rf_pattern_for(2, loop)
tl = buf.simulate_timeline(
    pattern, loop, buf.BufferTopology(V23), buf.SwitchSpec(v_pi_calibrated=True)
)
print(f"  rate {pattern.repetition_rate_hz / 1e3:.1f} kHz -> {tl.events[-1].kind.value}")

print("\nTwo-tier multiplier/divider (4.0 km unit, 1.0 km quarter path):")
unit = buf.FiberLoop(4000.0, attenuation_db_per_km=0.15)
short = buf.FiberLoop(1000.0, attenuation_db_per_km=0.15)
topo = buf.BufferTopology(buf.TopologyVariant.MULTIPLIER_DIVIDER, divider_paths=(unit, short))
for path, tl in buf.divider_schedule(topo, buf.rf_pattern_for(2, unit)):
    # the first exit, the bypass, is the straight pass of a photon that
    # arrives while the switch is OFF; it enters no path
    where = f"{path.length_m/1000:.1f} km path" if tl.round_trips else "bypass"
    print(
        f"  {where:11s} -> {tl.events[-1].kind.value:10s} "
        f"after {tl.round_trips} trips, {tl.total_buffer_time * 1e6:6.2f} us, "
        f"{tl.final_loss_db:.2f} dB"
    )
