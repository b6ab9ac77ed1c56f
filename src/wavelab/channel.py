"""Doubly dispersive channels and linear equalizers.

A channel is a sum of taps, each applying a cyclic delay and a per-sample
Doppler modulation: H = sum_l h_l * Delta(theta_l) * Pi^l, where Pi is the
forward cyclic shift and Delta(theta) = diag(exp(2j*pi*theta*n/N)).

A random ``ChannelGenerator`` and a fixed ``ChannelSpec`` (its taps'
delays, gains and Dopplers, as three arrays) share one surface:
``delays``, ``max_doppler``, ``describe()`` and ``draw(rngs) -> (gains,
dopplers)``, one realization per generator, each (frames, P) for P delays.
``equalize`` takes a chunk's taps and noise, and its precoded bins one
target at a time, and returns the refusal mask with an iterator over
each target's equalized bins. With every Doppler zero, H is circulant
and ``_equalize_per_bin`` works in the DFT basis, equalizing each target
in place as the iterator reaches it; otherwise ``_equalize_banded`` stacks
the targets as one (targets, frames, N) array, takes the stack through the
taps at once and solves the cyclic band H^H H + rho I per frame with every
target as a right-hand side, refusing a frame whose band is singular;
z's arrays are left as they were. Through the solves it holds the
chunk's band, the stack's H^H y and, under zero-forcing only, the taps'
Doppler ramps; every other chunk-sized array is freed at its last use.
Each path owns its zero-forcing guard. The banded one clears a frame
when a Cholesky factorization of its Gram, less 1e-8 of its norm, proves
cond(H) <= about 1e4; the others take an SVD of their dense H, filled
from the ramps. The dense oracles (``build_channel``, the ZF/MMSE G) live
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, shown

# Zero-forcing refuses channels whose condition number exceeds this.
CONDITION_LIMIT = 1e12
# Largest |Doppler| of a tap: above it, 2*pi*theta overflows (a generator's draw range,
# the dense oracle's phase 2*pi*theta*m/N); the ramp's (2*pi/N)*theta*m stays below it.
MAX_DOPPLER = float(np.finfo(float).max) / (2 * np.pi)
EQUALIZERS = ("mmse", "zf")


@dataclass(frozen=True)
class ChannelGenerator:
    """Statistical description of a random channel.

    Taps sit at delays 0 .. num_taps-1 (uniform delay profile) with i.i.d.
    circularly symmetric complex Gaussian gains of variance 1/num_taps, so
    the expected total power is 1. Doppler shifts are drawn uniformly in
    [-max_doppler, +max_doppler] per tap.
    """

    num_taps: int
    max_doppler: float = 0.0

    def __post_init__(self):
        if self.num_taps < 1:
            raise ConfigError(f"channel needs at least one tap, got {self.num_taps}")
        if not 0 <= self.max_doppler <= MAX_DOPPLER:  # NaN as well
            raise ConfigError(f"channel: 'max_doppler' = {self.max_doppler!r} is not in "
                              f"[0, {MAX_DOPPLER!r}], where 2*pi*max_doppler stays finite")
        object.__setattr__(self, "max_doppler", abs(self.max_doppler))  # -0.0 draws as 0

    @property
    def delays(self) -> np.ndarray:
        return np.arange(self.num_taps)

    def describe(self) -> dict:
        return {"generator": {"num_taps": self.num_taps, "max_doppler": self.max_doppler}}

    def draw(self, rngs):
        """One realization per generator: gains, then Doppler shifts, each (frames, P)."""
        nt, top = self.num_taps, self.max_doppler
        # per stream: two nt-draws of normals, then uniform(-top, top, nt), which numpy
        # computes as low + range * random(): so here, bit for bit (+0.0 at top 0), per chunk
        raw, unit = zip(*[(rng.standard_normal(2 * nt), rng.random(nt)) for rng in rngs])
        raw, dopplers = np.array(raw), -top + (top - -top) * np.array(unit)
        return (raw[:, :nt] + 1j * raw[:, nt:]) / np.sqrt(2 * nt), dopplers


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A concrete tap list as read-only 1-D arrays, one entry per tap: integer delays
    (which may repeat or skip), complex gains, Dopplers in cycles per block. Draws nothing."""

    delays: np.ndarray
    gains: np.ndarray
    dopplers: np.ndarray

    def __post_init__(self):
        # a delay past int64 stays a Python int, for check_delays to refuse by n
        delays, gains, dopplers = taps = (np.array(self.delays), np.array(self.gains, complex),
                                          np.array(self.dopplers, float))
        if delays.size == 0:
            raise ConfigError("channel spec needs at least one tap")
        if not delays.shape == gains.shape == dopplers.shape == (delays.size,):
            raise ConfigError(f"channel spec: delays, gains and dopplers must be 1-D and of one "
                              f"length, got shapes {[tap.shape for tap in taps]}")
        for delay, doppler in zip(delays.tolist(), dopplers.tolist()):  # tap by tap
            if delay < 0:
                raise ConfigError(f"tap delay must be >= 0, got {delay}")
            if not abs(doppler) <= MAX_DOPPLER:  # NaN as well
                raise ConfigError(f"channel tap: 'doppler' = {doppler!r} is over "
                                  f"{MAX_DOPPLER!r} in magnitude, where 2*pi*doppler overflows")
        for name, array in zip(("delays", "gains", "dopplers"), taps):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def max_doppler(self) -> float:
        return float(np.abs(self.dopplers).max())

    def describe(self) -> dict:
        return {"taps": [[d, g.real, g.imag, theta] for d, g, theta in
                         zip(self.delays.tolist(), self.gains.tolist(), self.dopplers.tolist())]}

    def draw(self, rngs):
        """The taps' gains and Doppler shifts, one row per generator."""
        rows = (len(rngs), 1)
        return np.tile(self.gains, rows), np.tile(self.dopplers, rows)


def check_delays(delays, n: int) -> None:
    """Refuse taps whose delay does not fit in a block of ``n`` samples."""
    largest = max(np.asarray(delays).tolist())  # a Python int, past int64 too
    if largest >= n:
        raise ConfigError(f"channel tap 'delay': tap delay {shown(largest)} does not fit in a "
                          f"block of {n} samples")


def equalize(delays, gains, dopplers, z, w_f, rho: float, equalizer: str):
    """Send a chunk's precoded bins through its channels (gains/dopplers
    (frames, P)), add its noise w_f (frames, N), and equalize each frame
    with G = (H^H H + rho I)^{-1} H^H: per bin when every Doppler is zero,
    else by one solve of (H^H H + rho I) x = H^H y per frame with the
    targets as right-hand sides. ``z`` gives the bins one target at a time:
    any iterable of (frames, N) arrays, such as a generator of precoded
    targets or a (targets, frames, N) stack; per bin they are overwritten,
    the banded path copies them into one stack. ``equalizer`` is one of
    EQUALIZERS: "mmse", or "zf", which is rho = 0 behind the condition guard.

    Returns ``refused``, a (frames,) bool mask of the frames whose condition
    number zero-forcing refuses, or whose banded solve meets a singular
    H^H H + rho I (which MMSE can too), and an iterator over each target's
    equalized (frames, N) bins, in z's order; a refused frame's bins carry
    no estimate. Per bin, each target is read from z and equalized as the
    iterator reaches it; the banded path reads every target before it
    returns.
    """
    if equalizer not in EQUALIZERS:
        raise ConfigError(f"equalizer must be one of {EQUALIZERS}")
    if not rho >= 0:  # NaN as well
        raise ConfigError(f"noise-to-signal ratio must be >= 0, got {rho}")
    check_delays(delays, w_f.shape[-1])
    zf = equalizer == "zf"
    path = _equalize_banded if np.any(dopplers) else _equalize_per_bin
    return path(delays, gains, dopplers, z, w_f, 0.0 if zf else rho, zf)


def _refuses(condition):  # zero-forcing's guard on condition numbers
    return ~(condition <= CONDITION_LIMIT)  # NaN and inf as well


def _equalize_per_bin(delays, gains, dopplers, z, w_f, rho: float, zf: bool):
    # H is circulant: r_f = (h_f . z + w_f) . G_f per bin, G_f and the guard once per
    # chunk, then each target in place as it is read
    h_f = np.zeros(w_f.shape, dtype=complex)  # H's first column, then its DFT
    for p, delay in enumerate(delays):  # a scatter-add: delays may repeat
        h_f[:, delay] += gains[:, p]
    h_f = np.fft.fft(h_f)
    mags, refused = np.abs(h_f), np.zeros(len(gains), dtype=bool)  # MMSE refuses no frame
    if zf:
        top, bottom = mags.max(axis=-1), np.maximum(mags.min(axis=-1), np.finfo(float).tiny)
        with np.errstate(over="ignore"):  # a ratio past the largest float reads inf
            refused = _refuses(np.where(top > 0, top / bottom, np.inf))  # no power: no inverse
    mags[refused] = np.inf  # a refused frame gets zero gains
    mags[mags == 0] = np.inf  # and so does a null bin: its limit for any rho > 0, not 0/0
    g_f = h_f.conj() / (mags**2 + rho)

    def equalized():
        for bins in z:
            bins *= h_f
            bins += w_f
            bins *= g_f
            yield bins

    return refused, equalized()


def _equalize_banded(delays, gains, dopplers, z, w_f, rho: float, zf: bool):
    # H = sum_p diag(u_p) Pi^{d_p} with u_p[m] = h_p exp(2j pi theta_p m / N), so
    # y = sum_p u_p . Pi^{d_p} x and H^H y = sum_p Pi^{-d_p} (u_p^* . y) need no H;
    # the targets are one stack x = F^H z, (targets, frames, N), which then holds H^H y
    # and the solves, and each other chunk-sized array is dropped at its last use
    n, rows = w_f.shape[-1], np.arange(w_f.shape[-1])
    u = 1j * (2 * np.pi / n) * dopplers[..., None] * rows
    np.exp(u, out=u)
    np.multiply(gains[..., None], u, out=u)
    x = np.fft.ifft(np.array(list(z)), norm="ortho")
    y = np.zeros_like(x)  # summed in place from 0, in tap order
    for p, d in enumerate(delays):
        y += u[:, p] * _roll(x, d)
    y += np.fft.ifft(w_f, norm="ortho")
    x[...] = 0
    for p, d in enumerate(delays):
        x += _roll(u[:, p].conj() * y, -d)
    del y
    # H^H H is a cyclic band: A[i, i + d_a - d_b] += u_a^*[i + d_a] u_b[i + d_a]
    diffs = (delays[:, None] - delays) % n
    deltas = np.array(sorted(set(diffs.flat)))  # np.unique would import numpy.ma
    band_of = deltas.searchsorted(diffs)
    band = np.zeros((len(gains), len(deltas), n), dtype=complex)
    for a, row in enumerate(band_of):
        conj_a = u[:, a].conj()
        for b, k in enumerate(row):
            band[:, k] += _roll(conj_a * u[:, b], -delays[a])
    band[:, 0] += rho  # deltas[0] == 0
    if not zf:
        del u  # only ZF's guard reads the ramps again
    cols, gram = (rows + deltas[:, None]) % n, np.zeros((n, n), dtype=complex)
    refused = np.zeros(len(gains), dtype=bool)
    for f in range(len(gains)):
        gram[rows, cols] = band[f]
        if zf:
            refused[f] = _guard_refuses(gram, band[f], u[f], delays)
        if not refused[f]:  # a refused frame's bins keep H^H y
            try:
                x[:, f] = np.linalg.solve(gram, x[:, f].T).T
            except np.linalg.LinAlgError:  # an exact zero pivot: the Gram is singular
                refused[f] = True
    del band
    return refused, iter(np.fft.fft(x, norm="ortho"))


def _roll(x, shift):
    """``np.roll(x, shift, axis=-1)`` in one call, a third of np.roll's time at N = 120."""
    cut = x.shape[-1] - shift % x.shape[-1]
    return np.concatenate((x[..., cut:], x[..., :cut]), axis=-1)


def _guard_refuses(gram, band, ramps, delays) -> bool:
    """ZF's guard on one frame, whose Gram A = H^H H has the (D, N) diagonals ``band``."""
    # A certificate first: ||A||_inf (the largest row sum of |A|) bounds sigma_max(H)^2,
    # and if A - tau I factors, tau = 1e-8 ||A||_inf, then sigma_min(H)^2 >= tau less the
    # Cholesky backward error, at most about n^2 eps ||A|| (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., section 10.1): 1.6e-12 ||A|| at n = 120, the
    # largest N of any shipped BER config. So cond(H) <= about 1e4, far inside the limit.
    tau = 1e-8 * np.abs(band).sum(axis=0).max()
    if tau < np.inf:  # NaN as well takes the SVD
        diagonal = np.diag_indices_from(gram)
        gram[diagonal] -= tau
        try:
            np.linalg.cholesky(gram)
            return False
        except np.linalg.LinAlgError:
            pass
        finally:
            gram[diagonal] = band[0]  # deltas[0] == 0: A's diagonal, exactly
    n, rows = len(gram), np.arange(len(gram))  # else cond(H) of its dense H, from the ramps
    h = np.zeros_like(gram)
    for ramp, d in zip(ramps, delays):
        h[rows, (rows - d) % n] += ramp
    return _refuses(np.linalg.cond(h))
