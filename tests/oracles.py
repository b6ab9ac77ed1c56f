"""Dense oracles and test-only helpers.

wavelab computes Q, Q^{-1}, |Q^{-1}|^2, H and G only in operator form:
``WaveformConfig.precode``/``receive``, ``row_magnitudes``/``demod_power``
and ``channel.equalize`` (whose zero-forcing guard alone fills a dense H, from
its Doppler ramps), and decides QAM symbols as labels (``qam_decide``). The
dense N x N forms and the bitwise demapper below are what the tests check
those forms against; nothing in ``src/`` calls them. Nor does it call
``rect_window_entry``, the per-index form of the Dirichlet kernel that
``rect_window_spectrum`` computes as one array. ``zf_expected_errors`` is the
exact expected bit-error count of zero-forcing on a quasi-static channel, given
the engine's own channel draws, that ``run_ber``'s counts are checked against.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from wavelab.channel import CONDITION_LIMIT, ChannelSpec, check_delays, equalize
from wavelab.exceptions import ConfigError, DimensionError, EqualizationError
from wavelab.noise import sample_noise
from wavelab.qam import _axis_bits, energy_scale, qam_decide, qam_label, qam_map
from wavelab.sim import SimConfig, _sigma_w, frame_rng
from wavelab.waveform import OFDM, OTFS, WaveformConfig, chirp_diagonal

# ---------------------------------------------------------------------------
# waveform: dense precoders

# Dense N x N precoders beyond this size are refused; use the operator forms.
DENSE_SIZE_LIMIT = 4096


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entry (j, k) = exp(-2j*pi*j*k/n) / sqrt(n)."""
    if n < 1:
        raise DimensionError(f"transform size must be a positive integer, got {n}")
    idx = np.arange(n)
    return np.exp((-2j * np.pi / n) * np.outer(idx, idx)) / np.sqrt(n)


def slow_dft(n: int) -> np.ndarray:
    """Loop-built unitary DFT matrix, independent of numpy's vectorized paths."""
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = cmath.exp(-2j * cmath.pi * j * k / n) / cmath.sqrt(n)
    return out


def otfs_inverse_entry(u: int, v: int, k: int, l: int) -> complex:
    """Closed-form entry (u, v) of the OTFS demodulation matrix Q^{-1}.

    Rows are supported on the K columns v with (v - floor(u/K)) mod L == 0,
    where each nonzero entry has magnitude sqrt(L/N).
    """
    n = k * l
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"indices ({u}, {v}) out of range for N={n}")
    mu, r = divmod(u, k)
    if (v - mu) % l != 0:
        return 0j
    return l / np.sqrt(l * n) * np.exp(2j * np.pi * v * r / n)


def otfs_inverse_matrix(k: int, l: int) -> np.ndarray:
    """Vectorized closed form of the OTFS Q^{-1} (same entries as above)."""
    n = k * l
    u = np.arange(n)[:, None]
    v = np.arange(n)[None, :]
    mu = u // k
    r = u % k
    entries = l / np.sqrt(l * n) * np.exp((2j * np.pi / n) * v * r)
    return np.where((v - mu) % l == 0, entries, 0j)


@dataclass(frozen=True, eq=False)
class PrecoderMatrix:
    """Dense unitary precoder Q and its inverse for one waveform config.

    Q and Q_inv are built from independent factorizations (forward product
    vs. inverse product or closed form), so Q_inv ~= Q^H is a checkable
    property rather than a construction artifact.
    """

    Q: np.ndarray
    Q_inv: np.ndarray
    config: WaveformConfig


def build_precoder(cfg: WaveformConfig) -> PrecoderMatrix:
    """Materialize the dense N x N precoder pair for ``cfg``."""
    n = cfg.N
    if n > DENSE_SIZE_LIMIT:
        raise ConfigError(
            f"dense precoder limited to N <= {DENSE_SIZE_LIMIT}, got {n}; "
            "use the operator forms of WaveformConfig instead"
        )
    if cfg.kind == OFDM:
        q = np.eye(n, dtype=complex)
        q_inv = np.eye(n, dtype=complex)
    elif cfg.kind == OTFS:
        f_n = dft_matrix(n)
        f_l = dft_matrix(cfg.L)
        q = f_n @ np.kron(f_l.conj().T, np.eye(cfg.K))
        q_inv = otfs_inverse_matrix(cfg.K, cfg.L)
    else:
        f_n = dft_matrix(n)
        lam_q = chirp_diagonal(n, cfg.q)
        lam_a = chirp_diagonal(n, cfg.alpha)
        q = (f_n * lam_q[None, :]) @ (f_n.conj().T * lam_a[None, :])
        q_inv = (lam_a.conj()[:, None] * f_n) @ (lam_q.conj()[:, None] * f_n.conj().T)
    return PrecoderMatrix(q, q_inv, cfg)


# ---------------------------------------------------------------------------
# channel: the identity channel, the DFT similarity, dense H and dense G

IDENTITY_CHANNEL = ChannelSpec([0], [1.0 + 0.0j], [0.0])


def build_channel(delays, gains, dopplers, n: int) -> np.ndarray:
    """Realize one frame's dense N x N matrix H = sum_l h_l Delta(theta_l) Pi^l."""
    check_delays(delays, n)
    h = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for delay, gain, doppler in zip(delays, gains, dopplers):
        h[rows, (rows - delay) % n] += gain * np.exp(1j * (2 * np.pi * doppler / n) * rows)
    return h


def to_frequency(m) -> np.ndarray:
    """Similarity transform F M F^H by the unitary DFT."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return np.fft.ifft(np.fft.fft(m, axis=0, norm="ortho"), axis=1, norm="ortho")


def _as_channel_matrix(h) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square channel matrix, got shape {h.shape}")
    return h


def zf_equalizer(h) -> np.ndarray:
    """Zero-forcing G = (H^H H)^{-1} H^H, as an N x N array; raises
    EqualizationError, whose message names the condition number, when the
    channel is too ill-conditioned to invert reliably."""
    hm = _as_channel_matrix(h)
    condition = float(np.linalg.cond(hm))
    if not condition <= CONDITION_LIMIT:  # NaN and inf as well
        raise EqualizationError(
            f"channel condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return mmse_equalizer(hm, 0.0)


def mmse_equalizer(h, rho: float) -> np.ndarray:
    """Regularized G = (H^H H + rho I)^{-1} H^H, as an N x N array."""
    if rho < 0:
        raise ConfigError(f"noise-to-signal ratio must be >= 0, got {rho}")
    hm = _as_channel_matrix(h)
    return np.linalg.solve(hm.conj().T @ hm + rho * np.eye(len(hm)), hm.conj().T)


# ---------------------------------------------------------------------------
# noise and analysis: dense |Q^{-1}|^2 and sparsity


def demod_noise_variance(q_inv, gains, sigma_w: float = 1.0) -> np.ndarray:
    """Analytic per-subcarrier variance of the demodulated noise.

    Computes v_m = sigma_w^2 * sum_v |Q^{-1}_{m,v}|^2 * gamma_v^2, the
    diagonal of sigma_w^2 * Q^{-1} Gamma_f Q^{-H} for diagonal Gamma_f.
    """
    q_inv = np.asarray(q_inv, dtype=complex)
    gains = np.asarray(gains, float)
    if q_inv.ndim != 2 or q_inv.shape[0] != q_inv.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {q_inv.shape}")
    if gains.shape != (q_inv.shape[1],):
        raise DimensionError(
            f"gains shape {gains.shape} does not match matrix size {q_inv.shape[1]}"
        )
    return sigma_w**2 * ((np.abs(q_inv) ** 2) @ gains)


def equalized_gains(n: int, num_taps: int, gain_cap: float, seed: int) -> np.ndarray:
    """The "equalized" profile's gains as make_profile drew its taps before the
    default channel became a constant: two ``standard_normal`` calls on one
    generator, an in-place scale, then the cap and the trace normalization."""
    rng = np.random.default_rng(seed)
    taps = (rng.standard_normal(num_taps) + 1j * rng.standard_normal(num_taps))
    taps /= np.sqrt(2 * num_taps)
    gains = np.minimum(1.0 / np.abs(np.fft.fft(taps, n)) ** 2, gain_cap)
    return gains * (gains.size / gains.sum())


DEFAULT_SPARSITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SparsityReport:
    """Nonzero structure of a matrix at a relative magnitude threshold."""

    row_counts: np.ndarray
    density: float


def sparsity_profile(m, tol: float = DEFAULT_SPARSITY_TOL) -> SparsityReport:
    """Count entries with magnitude above tol * max|M|, per row and overall."""
    if tol <= 0:
        raise ConfigError(f"sparsity tolerance must be > 0, got {tol}")
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    mags = np.abs(m)
    peak = mags.max()
    if peak == 0.0:
        counts = np.zeros(m.shape[0], dtype=int)
    else:
        counts = (mags > tol * peak).sum(axis=1)
    density = float(counts.sum()) / m.size
    return SparsityReport(counts, density)


def rect_window_entry(n: int, b: int, u: int) -> complex:
    """Entry u of :func:`wavelab.analysis.rect_window_spectrum`, one index at a time
    in the same order of operations, with u = 0 filled by continuity."""
    bn = b * n
    if u == 0:
        return complex(n / np.sqrt(bn))
    phase = np.exp(-1j * np.pi * u * (1.0 / b - 1.0 / bn))
    return complex(phase / np.sqrt(bn) * np.sin(np.pi * u / b) / np.sin(np.pi * u / bn))


# ---------------------------------------------------------------------------
# qam and sim


def label_bits(labels, order: int) -> np.ndarray:
    """Unpack symbol labels (..., N) into their 0/1 bits (..., N log2(order)), MSB first."""
    m = 2 * _axis_bits(order)
    labels = np.asarray(labels)
    bits = (labels[..., None] >> np.arange(m - 1, -1, -1)) & 1
    return bits.astype(np.uint8).reshape(labels.shape[:-1] + (-1,))


def qam_alphabet(order: int) -> np.ndarray:
    """Constellation point for every bit pattern, indexed by the bit integer."""
    return qam_map(qam_label(label_bits(np.arange(order), order), order), order)


def qam_demap(symbols, order: int) -> np.ndarray:
    """Per-symbol minimum-distance hard decision back to bits (..., B), one
    axis at a time: the bitwise form of ``qam_decide``."""
    mh = _axis_bits(order)
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.ndim == 0:
        raise ConfigError("symbols must have at least one axis")
    top = (1 << mh) - 1
    scale = energy_scale(order)

    def axis_bits(values: np.ndarray) -> np.ndarray:
        idx = np.clip(np.rint((values / scale + top) / 2.0), 0, top).astype(np.int64)
        codes = idx ^ (idx >> 1)
        return ((codes[..., None] >> np.arange(mh - 1, -1, -1)) & 1).astype(np.uint8)

    i_bits = axis_bits(symbols.real)
    q_bits = axis_bits(symbols.imag)
    return np.concatenate([i_bits, q_bits], axis=-1).reshape(symbols.shape[:-1] + (-1,))


def run_frame(cfg: SimConfig, rng: np.random.Generator, target=None, snr_db=None):
    """Run a single frame of ``cfg`` on its own, with an explicit generator: the
    one-frame reference for a chunk of the engine.

    Draws the channel's ``draw([rng])``, numpy's own ``rng.integers(0, 2, B, uint8)``
    and ``sample_noise``, in that order, then takes one target through ``precode``,
    ``equalize``, ``receive`` and ``qam_decide``. Defaults to the first target and
    the first SNR point. Returns (tx_bits, rx_bits); raises EqualizationError
    when the equalizer refuses the frame's channel.
    """
    target = cfg.targets[0] if target is None else target
    sigma_w = _sigma_w(cfg.snr_db[0] if snr_db is None else snr_db)
    gains, dopplers = cfg.channel.draw([rng])
    bits = rng.integers(0, 2, cfg.bits_per_frame, np.uint8)
    w_f = sample_noise(cfg.profile, sigma_w, [rng])
    z = target.precode(qam_map(qam_label(bits, cfg.qam_order), cfg.qam_order)[None])
    refused, (r,) = equalize(cfg.channel.delays, gains, dopplers, [z], w_f, sigma_w**2,
                             cfg.equalizer)
    if refused[0]:
        raise EqualizationError("zero-forcing refused the frame's channel")
    return bits, label_bits(qam_decide(target.receive(r)[0], cfg.qam_order), cfg.qam_order)


def zf_expected_errors(cfg: SimConfig, point: int):
    """Each target's exact expected bit errors at SNR point ``point`` under zero-forcing
    on a quasi-static channel, given the engine's channel draws: ((targets,) floats, the
    count of frames the per-bin guard keeps).

    With every Doppler zero, ZF gives r_f = z + w_f / h_f, so symbol m of a target
    carries circular Gaussian noise of variance sigma_w^2 * v_m, where
    v = demod_power(profile.gains / |h_f|^2), block by block for a layout. Each axis is
    Gray PAM at level spacing 2d: a level decided at or past k levels away, with
    probability Q((2k - 1) d / s) at s = sqrt(sigma_w^2 v_m / 2), adds that step's
    Hamming distance. This is quasi-analytic BER estimation (Jeruchim, Balaban &
    Shanmugan, Simulation of Communication Systems, 2nd ed., 2000), conditioned on
    each channel draw; no bits or noise are drawn.
    """
    levels, d = 1 << _axis_bits(cfg.qam_order), energy_scale(cfg.qam_order)
    gray = [i ^ (i >> 1) for i in range(levels)]

    def flips(i, j):  # the bits between the Gray codes of levels i and j
        return bin(gray[i] ^ gray[j]).count("1")

    # steps[k]: the bits a threshold k levels out adds, flips(i, i + k) - flips(i, i + k - 1)
    # or the same downwards, averaged over the sent level i
    steps = [0.0] * levels
    for i, j in itertools.product(range(levels), repeat=2):
        if i != j:
            steps[abs(j - i)] += (flips(i, j) - flips(i, j - (1 if j > i else -1))) / levels
    gains, dopplers = cfg.channel.draw(
        [frame_rng(cfg.seed, point, f) for f in range(cfg.frames_per_point)])
    assert not np.any(dopplers), "the closed form holds on quasi-static channels only"
    h_f = np.zeros((len(gains), cfg.n), dtype=complex)
    for p, delay in enumerate(cfg.channel.delays):  # delays may repeat
        h_f[:, delay] += gains[:, p]
    mags = np.abs(np.fft.fft(h_f))
    mags = mags[mags.max(axis=1) <= CONDITION_LIMIT * mags.min(axis=1)]  # the ZF guard
    sigma2 = _sigma_w(cfg.snr_db[point]) ** 2
    expected = []
    for target in cfg.targets:
        v = target.demod_power(cfg.profile.gains / mags**2)
        thresholds = np.arange(1, 2 * levels - 1, 2) * d / np.sqrt(sigma2 * v[..., None])
        q = np.reshape(list(map(math.erfc, thresholds.ravel().tolist())), thresholds.shape)
        expected.append(float((q @ steps[1:]).sum()))  # 2 axes of erfc/2 each
    return np.array(expected), len(mags)
