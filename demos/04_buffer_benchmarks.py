"""The full benchmark suites with the calibrated noise profile.

Runs every loop configuration of the reference table end to end (timeline,
decoherence, counting, reconstruction) and prints the comparison against the
reference figures of merit, then the multiplier/divider suite with its three
buffer times and the ghost recirculation.
"""

from fiberloop.harness import PAPER_2023, run_divider_suite, run_table1_suite

print(f"Noise profile: {PAPER_2023.name}")
print(f"  per-cross phase flip : {PAPER_2023.noise.cross_phase_flip:.6f}")
print(f"  PMD dephasing per km : {PAPER_2023.noise.pmd_dephasing_per_km:.6f} rad std dev")

print("\nBenchmark rows (measured | reference):")
results, comparison = run_table1_suite(seed=42, exact_counts=True)
for row in comparison:
    verdict = "PASS" if (row["time_pass"] and row["loss_pass"]) else "FAIL"
    print(
        f"  {row['scenario']:14s} "
        f"time {row['buffer_time_s'] * 1e6:6.2f} | {row['ref_buffer_time_s'] * 1e6:5.1f} us   "
        f"loss {row['insertion_loss_db']:.2f} | {row['ref_insertion_loss_db']:.2f} dB   "
        f"F {row['F']:.3f} | {row['ref_F']:.2f}   "
        f"F_chi {row['F_chi']:.3f} | {row['ref_F_chi']:.2f}   {verdict}"
    )
print("(times and losses are the gated quantities; the fidelity columns are")
print(" the single-profile consistency check discussed in the README)")

print("\nMultiplier/divider suite:")
for r in run_divider_suite(seed=42, exact_counts=True):
    if r.ghost:
        note = " <- negligible single counts" if r.negligible_counts else ""
        print(
            f"  {r.scenario_name:20s} ghost exit at {r.buffer_time * 1e6:6.2f} us, "
            f"survival {r.survival:.3f}{note}"
        )
    else:
        print(
            f"  {r.scenario_name:20s} buffer {r.buffer_time * 1e6:6.2f} us, "
            f"loss {r.insertion_loss_db:.2f} dB, F {r.state_fidelity:.3f}"
        )
