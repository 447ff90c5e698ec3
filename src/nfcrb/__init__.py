"""Cramer-Rao bounds for near-field angle/range sensing with very large
uniform linear arrays: exact element-sum and closed-form bounds, asymptotic
and far-field reference curves, waveform-level simulation, and a grid
estimator for empirical verification."""

from .closedform import (
    AsymptoticRegime,
    bistatic_range_crb_minimizer,
    boresight_range_crb,
    crb_asymptotic,
    crb_closed,
    crb_farfield_upw,
    crb_taylor,
    intermediates_closed,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DomainError,
    NfcrbError,
    SingularGeometryError,
)
from .estimator import (
    EstimateResult,
    GridSpec,
    ObservationGridBuilder,
    RmseReport,
    monte_carlo_rmse,
)
from .experiment import (
    CrbMethod,
    ExperimentConfig,
    MonteCarloConfig,
    SweepSpec,
    csv_text,
    parse_config_file,
    parse_config_text,
    preset,
    presets,
    run_experiment,
    serialize_config,
)
from .fim import (
    CrbResult,
    FimMatrix,
    IntermediateParams,
    NoiseAndPowerConfig,
    crb_exact_sum,
    crb_from_fim,
    fim_numeric,
    intermediates_exact,
    mode_energy_scale,
    receive_sums,
)
from .geometry import (
    ArrayGeometry,
    CarrierConfig,
    Mode,
    SensingScenario,
    TargetLocation,
    Topology,
    amplitude_model_valid,
    epsilon_tx,
)
from .signalsim import (
    WaveformConfig,
    mimo_chain_demo,
    orthogonal_codes,
    phased_chain_demo,
    reflection_amplitude,
    synth_snapshot,
)
from .steering import (
    ObservationVector,
    PhaseFactor,
    build_observation,
    direction_sine_derivs,
    phase_derivs,
    steering_factors,
)

__version__ = "0.1.0"
