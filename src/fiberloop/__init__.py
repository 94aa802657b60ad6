"""Switched fiber-loop buffer simulator for polarization-entangled qubits.

Subsystems
----------
qstate      two-qubit density matrices, channels as superoperators, chi matrices, metrics
buffer      switch timing state machine, loss budget, decoherence channels
counting    polarization analyzers and Poisson coincidence statistics
tomography  maximum-likelihood state reconstruction and chi extraction
harness     scenario runner, benchmark suites, persistence
cli         command-line entry points (run / table1 / divider / sweep)
"""

from .qstate import (
    TwoQubitState,
    QubitChannel,
    ChiMatrix,
    bell_state,
    apply_idler_channel,
    channel_to_chi,
    state_fidelity,
    process_fidelity,
    concurrence,
)
from .buffer import (
    SwitchSpec,
    FiberLoop,
    RfPattern,
    BufferTopology,
    TopologyVariant,
    PhotonTimeline,
    NoiseConfig,
    buffer_time,
    round_trip_time,
    rf_pattern_for,
    simulate_timeline,
    insertion_loss_db,
    divider_schedule,
    loss_to_survival,
    channel_for_timeline,
)
from .counting import (
    AnalyzerSetting,
    CountRecord,
    CountingConfig,
    projector,
    standard_16_settings,
    expected_coincidence_rate,
    simulate_dataset,
)
from .tomography import (
    MleConfig,
    reconstruct_state,
    reconstruct_chi,
    report_metrics,
)
from .harness import (
    Scenario,
    RunResult,
    PAPER_2023,
    run_scenario,
    run_table1_suite,
    run_divider_suite,
    load_scenario,
)

__version__ = "0.1.0"
