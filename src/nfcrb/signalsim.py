"""Waveform-level simulation.

Two layers: synth_snapshot draws directly from the post-matched-filter
observation model y = rho g + noise, and the *_chain_demo functions run a
small sampled transmit/propagate/filter chain that must collapse to that
same model. The chain is the ground truth for the shortcut.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .fim import NoiseAndPowerConfig, mode_energy_scale
from .geometry import ArrayGeometry, CarrierConfig, Mode, TargetLocation
from .steering import ObservationVector, steering_factors

DEMO_MAX_ELEMENTS = 16


@dataclass(frozen=True)
class WaveformConfig:
    """Sampled baseband waveform set for one coherent processing interval.

    The chain samples at the bandwidth rate, so the interval lasts
    num_samples_per_cpi / bandwidth and its time-bandwidth product is the
    sample count.
    """

    num_samples_per_cpi: int
    bandwidth: float

    def __post_init__(self):
        if self.num_samples_per_cpi < 1:
            raise ConfigError("num_samples_per_cpi must be a positive integer")
        if not 0.0 < self.bandwidth < math.inf:
            raise ConfigError("bandwidth must be positive and finite")

    @property
    def cpi_duration(self) -> float:
        return self.num_samples_per_cpi / self.bandwidth

    @property
    def time_bandwidth(self) -> float:
        return float(self.num_samples_per_cpi)

    @classmethod
    def orthogonal(cls, num_codes: int, bandwidth: float = 1.0) -> "WaveformConfig":
        """Smallest power-of-two code set holding num_codes orthogonal rows."""
        if num_codes < 1:
            raise ConfigError("num_codes must be a positive integer")
        n = 1
        while n < num_codes:
            n *= 2
        return cls(num_samples_per_cpi=n, bandwidth=bandwidth)


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reflection_amplitude(
    cfg: NoiseAndPowerConfig,
    tx_array_size: int,
    mode: Mode,
) -> complex:
    """rho = sqrt(T_p P / M) (orthogonal waveforms) or sqrt(T_p P M), the
    amplitude of the echo at the reflection coefficient kappa = 1."""
    return complex(math.sqrt(mode_energy_scale(cfg, tx_array_size, mode)))


def synth_snapshot(
    obs: ObservationVector,
    cfg: NoiseAndPowerConfig,
    seed,
    include_noise: bool = True,
) -> np.ndarray:
    """Draw the observation y = rho g + n, with i.i.d. complex Gaussian noise
    of variance N0 = 1.

    Deterministic in seed (counter-based generator); seed may be an int or a
    tuple of ints for substream derivation.
    """
    y = reflection_amplitude(cfg, obs.tx_array_size, obs.mode) * obs.g
    if include_noise:
        y = y + _complex_noise(_rng(seed), y.shape, 1.0)
    return y


def _hadamard(order: int) -> np.ndarray:
    if order < 1 or order & (order - 1):
        raise ConfigError("orthogonal code set needs a power-of-two length")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    while h.shape[0] < order:
        h = np.kron(block, h)
    return h


def orthogonal_codes(num_codes: int, num_samples: int) -> np.ndarray:
    """num_codes rows of +/-1 samples with exact discrete orthogonality."""
    if num_samples < num_codes:
        raise ConfigError(
            f"cannot cut {num_codes} orthogonal codes from {num_samples} samples"
        )
    return _hadamard(num_samples)[:num_codes, :]


def _shifted(codes: np.ndarray, shift: int) -> np.ndarray:
    # Zero-padded (non-cyclic) delay: samples shifted out of the CPI are lost.
    if shift == 0:
        return codes
    out = np.zeros_like(codes)
    if abs(shift) < codes.shape[-1]:
        if shift > 0:
            out[..., shift:] = codes[..., :-shift]
        else:
            out[..., :shift] = codes[..., -shift:]
    return out


def _matched_filter(
    samples: np.ndarray, refs: np.ndarray, waveforms: WaveformConfig
) -> np.ndarray:
    """(1/sqrt(T_p)) integral of y(t) conj(ref(t)) dt, sampled at rate B.

    samples: (N, S) received; refs: (K, S) reference waveforms. Returns (N, K).
    """
    dt = 1.0 / waveforms.bandwidth
    return (dt / math.sqrt(waveforms.cpi_duration)) * (samples @ refs.conj().T)


def _demo_scale_check(geom: ArrayGeometry):
    if geom.num_tx > DEMO_MAX_ELEMENTS or geom.num_rx > DEMO_MAX_ELEMENTS:
        raise DomainError(
            "chain demos are capped at "
            f"{DEMO_MAX_ELEMENTS} elements per side (O(M N S) sampling)"
        )


def _physical_factors(geom, tgt, carrier):
    # transmit and receive responses of the physical arrays, in the
    # orthogonal-waveform layout (monostatic: b is a)
    a, b = steering_factors(geom, carrier, Mode.MIMO, [tgt.angle_rad], [tgt.range_m])
    return a[:, 0], b[:, 0]


def mimo_chain_demo(
    geom: ArrayGeometry,
    tgt: TargetLocation,
    carrier: CarrierConfig,
    waveforms: WaveformConfig,
    cfg: NoiseAndPowerConfig,
    seed,
    include_noise: bool = True,
    delay_mismatch_samples: int = 0,
) -> np.ndarray:
    """Orthogonal-waveform chain: transmit, superpose at each receiver,
    filter; returns the observation y.

    With N0 = 1 and kappa = 1, the total transmit power at the waveforms'
    bandwidth B is P = gamma B. Each transmitter sends its own +/-1 code at
    power P/M. After matched
    filtering against code m at receiver n, the (n, m) output stacks into a
    vector aligned with g = b (x) a, so the noiseless chain reproduces
    synth_snapshot exactly. A common propagation delay is assumed and
    normalized to zero; delay_mismatch_samples shifts the filter reference
    off the true delay (zero-padded, so a shift of a full CPI leaves pure
    noise). Off-peak code correlations are otherwise not modeled as zero.
    """
    _demo_scale_check(geom)
    codes = orthogonal_codes(geom.num_tx, waveforms.num_samples_per_cpi)

    a, b = _physical_factors(geom, tgt, carrier)
    amp = math.sqrt(cfg.snr_linear * waveforms.bandwidth / geom.num_tx)

    # (N, S) superposition of all transmit codes seen through the two-way phases
    samples = amp * np.outer(b, a @ codes)
    if include_noise:
        # white noise sampled at rate B: per-sample complex variance N0 B
        samples = samples + _complex_noise(_rng(seed), samples.shape, waveforms.bandwidth)

    refs = _shifted(codes, delay_mismatch_samples)
    return _matched_filter(samples, refs, waveforms).reshape(-1)


def phased_chain_demo(
    geom: ArrayGeometry,
    tgt: TargetLocation,
    carrier: CarrierConfig,
    waveforms: WaveformConfig,
    cfg: NoiseAndPowerConfig,
    steer_at: TargetLocation,
    seed,
    include_noise: bool = True,
    delay_mismatch_samples: int = 0,
) -> np.ndarray:
    """Beamformed chain: one waveform at power P = gamma B (as in
    mimo_chain_demo) through weights conj(a(steer))/sqrt(M); returns the
    observation y.

    With the beam steered at the true location the filtered output is
    rho b (monostatic b := a); steering elsewhere scales the signal by
    |a(true)^T conj(a(steer))| / M relative to the matched case.
    """
    _demo_scale_check(geom)
    pulse = np.ones(waveforms.num_samples_per_cpi)

    a_true, b = _physical_factors(geom, tgt, carrier)
    # the beam weights need the transmit response alone
    a_steer = _physical_factors(geom, steer_at, carrier)[0]
    # ||a|| = sqrt(M) normalizes the beamformer to unit total power
    gain = a_true @ a_steer.conj() / math.sqrt(geom.num_tx)
    amp = math.sqrt(cfg.snr_linear * waveforms.bandwidth) * gain

    samples = amp * np.outer(b, pulse)
    if include_noise:
        samples = samples + _complex_noise(_rng(seed), samples.shape, waveforms.bandwidth)

    refs = _shifted(pulse[None, :], delay_mismatch_samples)
    return _matched_filter(samples, refs, waveforms).reshape(-1)
