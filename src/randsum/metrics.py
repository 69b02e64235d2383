"""Distances between one-dimensional laws.

Provides the Kolmogorov (sup-CDF) distance with honest error bounds, the
mixture form of the distance for random-length partial sums, and the
Zolotarev ideal metric zeta_s for s in {1, 2, 3} with a test-function
lower bound sandwiching the iterated-integral upper evaluation.

Sum laws of independent entries are represented exactly when every entry
is normal or purely atomic: the atomic parts convolve into one finite
atom list and the normal parts merge into a single Gaussian component.
One law type, ``SumLaw``, holds every exact sum and mixture: a finite
normal mixture sum_i p_i N(v_i, s_i^2) whose locations with s_i^2 = 0 are
atoms.  A random-length sum's law is one such mixture over the per-length
sums.  Any other sum law, or a normal part whose variance is not finite,
raises ``ConvolutionError``: ``engine.empirical_delta`` samples such
random sums, with a Dvoretzky-Kiefer-Wolfowitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtr

from .arrays import TriangularArray, expand
from .conditions import (
    DEFAULT_ETA, IMPLICATION_SLACK, UNIT_ROUNDOFF, InequalityCheck, rounding_gamma
)
from .distributions import (
    Normal,
    RandomIndex,
    ScalarDistribution,
    _atom_moments,
    _normal_partial_moments,
    merge_atoms,
)

__all__ = [
    "DistanceEstimate",
    "MomentMismatchError",
    "ConvolutionError",
    "dkw_bound",
    "SumLaw",
    "sum_of_independent",
    "row_sum_law",
    "kolmogorov",
    "empirical_kolmogorov",
    "delta_mixture",
    "delta_randomsum",
    "zeta",
    "zeta_lower_bound",
    "semi_additivity_check",
]

# atom count cap for exact convolution (pre-merge, per pairwise step)
ATOM_BUDGET = 1 << 20
# atoms of the atomic per-k laws whose distances delta_mixture settles with
# one call of the target CDF
MIXTURE_BLOCK_POINTS = 1 << 15
# initial Kolmogorov search grid size for laws with no atoms list; two x8
# refinement passes follow
_KOLMOGOROV_GRID = 4097
_REFINE_TOP = 16
# absolute error of scipy.special.ndtr assumed by the exact-normal bound;
# tests/test_metrics.py checks it against 40-digit values (largest seen:
# 1.7 u)
NDTR_ABS_ERR = 4.0 * UNIT_ROUNDOFF
# phi(1) = max_z |z| phi(z) = max_z |phi'(z)|, rounded up
_PHI_AT_1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi) * (1.0 + rounding_gamma(4))
_LOG_2_SQRT_2PI = math.log(2.0 * math.sqrt(2.0 * math.pi))
# the exact-normal bound's terms for ndtr and the difference of two CDFs
_NORMAL_ROUNDING = 2.0 * (NDTR_ABS_ERR + rounding_gamma(4) * _PHI_AT_1) + UNIT_ROUNDOFF
# base cell count of the zeta integration grid; two doublings follow
_ZETA_CELLS = 4096
# test-function centers per width in zeta_lower_bound
_N_TESTFNS = 9
# truncation tail of the index in semi_additivity_check
_SEMI_ADDITIVITY_ETA = 1e-12
# absolute tolerance on moment agreement required by the iterated-integral
# representation of zeta_s for s >= 2
MOMENT_MATCH_TOL = 1e-8


class MomentMismatchError(ValueError):
    """Moments required equal by the zeta_s representation differ."""

    def __init__(self, order: int, difference: float):
        self.order = order
        self.difference = difference
        super().__init__(
            f"moment of order {order} differs by {difference:.3e}; "
            f"zeta_s needs agreement up to order s-1 within {MOMENT_MATCH_TOL:g}"
        )


class ConvolutionError(TypeError):
    """Entries cannot be combined into an exact sum law."""


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance value together with a bound on its evaluation error.

    ``method`` tags how the value was obtained:

    * ``exact-atomic``: Kolmogorov distance with at least one purely
      atomic law, evaluated at that law's atoms; exact, bound 0;
    * ``exact-normal``: Kolmogorov distance between two normal laws,
      evaluated where their densities cross; the bound covers rounding;
    * ``exact-grid``: Kolmogorov distance between two laws with no atoms
      list, searched on a refined grid whose bound covers the cells and
      tails it cannot see;
    * ``empirical-KS``: sample statistic with a DKW bound;
    * ``mixture``: index-weighted random-length distance;
    * ``iterated-integral`` and ``testfn-lower-bound``: zeta_s and its
      test-function lower bound.
    """

    value: float
    bound: float
    method: str
    params: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "bound": self.bound,
            "method": self.method,
            "params": dict(sorted(self.params.items())),
        }


def dkw_bound(samples: int, alpha: float = 0.01) -> float:
    """Two-sided DKW deviation bound sqrt(ln(2/alpha) / (2 M))."""
    if samples < 1:
        raise ValueError("sample count must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


# ---------------------------------------------------------------------------
# exact laws of sums and mixtures
# ---------------------------------------------------------------------------


def _check_total(probs: np.ndarray) -> None:
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError("atom probabilities must sum to one")


def _variance_runs(variances: np.ndarray) -> List[np.ndarray]:
    """The indices of each distinct variance, in increasing variance, and in
    order within each."""
    order = np.argsort(variances, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(variances[order])) + 1)


# the atom part of a law without atoms: locations, masses, masses through each
_NO_ATOMS = (np.empty(0), np.empty(0), np.zeros(1))


class SumLaw(ScalarDistribution):
    """The finite normal mixture sum_i p_i N(v_i, s_i^2), where a location
    with s_i^2 = 0 is an atom.

    ``SumLaw(atoms, probs, mean, var)`` is the law of a sum of independent
    atomic and normal entries, held as a fold state: the locations are the
    atomic part's atoms plus the normal part's mean, each with the normal
    part's variance.  ``normal_var`` may instead give each location its
    own variance, as the law of a mixture does (``_mixture``).  The atoms
    form the atom part; the normal part is evaluated one distinct variance
    at a time.
    """

    family = "sum"

    def __init__(self, atom_values: Sequence[float], atom_probs: Sequence[float],
                 normal_mean: float = 0.0, normal_var=0.0):
        v = np.asarray(atom_values, dtype=float)
        p = np.asarray(atom_probs, dtype=float)
        if v.size == 0:
            v = np.array([0.0])
            p = np.array([1.0])
        _check_total(p)
        if normal_mean != 0.0:
            v = v + normal_mean
        order = np.argsort(v, kind="stable")
        self._values = v[order]
        self._probs = p[order]
        if np.ndim(normal_var):
            var = np.asarray(normal_var, dtype=float)[order]
            parts = [(float(var[i[0]]), self._values[i], self._probs[i]) for i in _variance_runs(var)]
            normal_var = float(np.dot(var, self._probs))
        else:
            normal_var = float(normal_var)
            parts = [(normal_var, self._values, self._probs)]
        if parts[0][0] < 0.0:
            raise ValueError("normal variance must be nonnegative")
        if parts[0][0] == 0.0:
            _, values, probs = parts[0]
            self._atom_part = (values, probs, np.concatenate([[0.0], np.cumsum(probs)]))
        else:
            self._atom_part = _NO_ATOMS
        # (variance, sd, locations, masses), in increasing variance
        self._normal_parts = [(s2, math.sqrt(s2), locs, w) for s2, locs, w in parts if s2 > 0.0]
        self.mean = float(np.dot(self._values, self._probs))
        self.variance = float(np.dot(np.square(self._values - self.mean), self._probs)) + normal_var

    def descriptor(self) -> tuple:
        return ("sum", self._values.size, self.mean, self.variance)

    def __repr__(self) -> str:
        return f"SumLaw({self._values.size} locations, {len(self._normal_parts)} normal variances)"

    def _mixed(self, x, side: str, kernel):
        """The atom part's steps, limits from ``side``, plus the normal part's
        ``kernel((x - location) / sd, sd)`` weighted by the masses."""
        x = np.asarray(x, dtype=float)
        values, _, cum = self._atom_part
        out = cum[np.searchsorted(values, x, side=side)]
        for _, sd, locs, probs in self._normal_parts:
            out = out + kernel((x[..., None] - locs) / sd, sd) @ probs
        return out if out.ndim else float(out)

    def cdf(self, x):
        return self._mixed(x, "left", lambda z, sd: ndtr(z))

    def prob_le(self, x):
        return self._mixed(x, "right", lambda z, sd: ndtr(z))

    def pdf(self, x):
        if self._atom_part[0].size:
            return super().pdf(x)
        return self._mixed(
            x, "left", lambda z, sd: np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
        )

    def char_fn(self, t):
        t = np.asarray(t, dtype=float)
        values, probs, _ = self._atom_part
        out = np.exp(1j * np.multiply.outer(t, values)) @ probs
        for s2, _, locs, w in self._normal_parts:
            out = out + np.exp(-0.5 * s2 * t * t) * (np.exp(1j * np.multiply.outer(t, locs)) @ w)
        return out if out.ndim else complex(out)

    def atoms(self):
        if self._normal_parts:
            return None
        return self._values.copy(), self._probs.copy()

    def normal_params(self) -> Optional[Tuple[float, float]]:
        # one location: N(location, variance), whatever its mass rounded to
        if self._values.size == 1 and self._normal_parts:
            return float(self._values[0]), self._normal_parts[0][0]
        return None

    def support(self) -> Tuple[float, float]:
        if self._normal_parts:
            return (-math.inf, math.inf)
        return float(self._values[0]), float(self._values[-1])

    def _partial_moments(self, a, b, center, degree):
        values, probs, _ = self._atom_part
        keep = (values > a) & (values <= b)
        out = _atom_moments(values[keep] - center, probs[keep], degree)
        for _, sd, locs, w in self._normal_parts:
            moments = _normal_partial_moments(locs, sd, a, b, center, degree)
            out = [o + float(np.dot(m, w)) for o, m in zip(out, moments)]
        return out

    def _quad_cut(self) -> Tuple[float, float]:
        spread = 12.0 * max((part[1] for part in self._normal_parts), default=1e-300)
        return float(self._values[0]) - spread, float(self._values[-1]) + spread


# A running convolution state: the atoms of the atomic part, strictly
# increasing (``merge_atoms`` leaves runs more than the snap tolerance
# apart), their masses, and the normal part's mean and variance.
_FoldState = Tuple[np.ndarray, np.ndarray, float, float]
# Consecutive fold states with one normal mean: row i of the 2-D atoms and
# masses holds state i in its first sizes[i] columns, with masses 0 past
# them, and the normal variance is one float for every state or a vector
# of one per state; a block of the latter kind holds normal laws, each one
# atom at 0.  No block is written to once it is handed out.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray, float, Union[float, np.ndarray]]
# an entry with two atoms a < b, as (a, b, P(a), P(b))
_Step = Tuple[float, float, float, float]


def _merge_fold(
    values: np.ndarray, probs: np.ndarray, av: np.ndarray, ap: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every sum of a state atom and an entry atom, sorted, with the runs
    that lie within the snap tolerance merged and zero masses dropped."""
    new_values = np.add.outer(values, av).ravel()
    # different addition orders land the same lattice point within a few
    # ulps; genuinely distinct atoms in our constructions sit far apart
    # relative to this 1e-13 relative snap.  The run's first member stays
    # the atom: a probability-weighted mean would divide by masses that
    # underflow to subnormals, smearing atoms off their lattice
    tol = 1e-13 * max(1.0, float(np.max(np.abs(new_values))))
    new_values, new_probs = merge_atoms(
        new_values, np.multiply.outer(probs, ap).ravel(), tol
    )
    keep = new_probs > 0
    return new_values[keep], new_probs[keep]


def _two_atoms(dist: ScalarDistribution) -> Optional[_Step]:
    """``dist`` as a step of a two-atom stretch, or None."""
    at = None if isinstance(dist, Normal) else dist.atoms()
    if at is None or at[0].size != 2 or not at[0][0] < at[0][1]:
        return None
    return (*at[0].tolist(), *at[1].tolist())


def _off_band(states: np.ndarray, sizes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """For each row of ``states`` (strictly increasing atoms v in its first
    ``sizes`` columns, +inf past them) and the step in the same row of
    ``steps``, whether the band might group the sums otherwise than
    ``_merge_fold`` does.

    The sums are lo = v + a and hi = v + b, and sorted they would meet
    hi[j-1] next to lo[j].  The runs ``merge_atoms`` finds are exactly the
    groups lo[0], the pairs and hi[-1] when each pair lies within the snap
    tolerance tol and each group sits more than tol above the largest
    member of the group before it; tol comes from lo[0] and hi[-1], the
    extreme sums when the groups are in order.  This tests a little more,
    in fewer passes: every spacing v[j] - v[j-1] lies within 0.99 tol of
    b - a, and b - a exceeds 4 tol.  Every sum lies between lo[0] and
    hi[-1], so it rounds by at most 1.2e-3 tol; then each pair spreads by
    less than tol, and each group clears the one before by more than
    (b - a) - 2 tol > tol.  A row refused here that the band would have
    served costs one generic fold.  Past a row's atoms the spacings read
    nan and pass; a row whose extreme sums are not finite is refused.
    """
    rows = np.arange(sizes.size)
    gap = steps[:, 1] - steps[:, 0]
    lo, hi = states[:, 0] + steps[:, 0], states[rows, sizes - 1] + steps[:, 1]
    tol = 1e-13 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    with np.errstate(invalid="ignore"):
        spacing = states[:, 1:] - states[:, :-1]
        # hi[-1] meets the padding: the top group, with nothing to test
        spacing[rows, sizes - 1] = gap
        np.subtract(spacing, gap[:, None], out=spacing)
        off = np.abs(spacing, out=spacing) > 0.99 * tol[:, None]
    # a tolerance that is not finite fails the second test
    return off.any(axis=1) | ~(gap > 4.0 * tol)


def _drop_zeros(atoms: np.ndarray, masses: np.ndarray) -> int:
    """Move the atoms of positive mass to the front, pad the rest as a
    block row is padded, and return how many are left."""
    keep = masses > 0
    size = int(np.count_nonzero(keep))
    atoms[:size] = atoms[keep]
    masses[:size] = masses[keep]
    atoms[size:] = np.inf
    masses[size:] = 0.0
    return size


def _fold_stretch(
    values: np.ndarray,
    probs: np.ndarray,
    steps: Sequence[_Step],
    wanted: Sequence[bool],
    mean: float = 0.0,
    var: float = 0.0,
) -> Generator[_Block, None, Tuple[np.ndarray, np.ndarray]]:
    """Fold the two-atom ``steps`` one after another into the atomic part
    (values, probs); yield the states after the steps flagged ``wanted``,
    in blocks, and return the last state.

    Each block is a fresh pair of buffers, atoms and masses, of at most
    MIXTURE_BLOCK_POINTS numbers together.  Row 0 holds the state it
    starts from and row r the state after its r-th step, with +inf atoms
    and zero masses past each state.  A step writes the row below from
    the row above, each sum one array operation: with the padding as a
    sentinel, atom j is hi[j-1] when hi[j-1] <= lo[j] (the first in
    stable order, also on a signed-zero tie) and lo[j] otherwise, and its
    mass p[j] P(a) + p[j-1] P(b).  A zero mass at either end is dropped
    at once: the top one by ending the state one atom short, the bottom
    one by moving the state down one column.  After the block,
    ``_off_band`` and a count of zero masses find the first step at which
    the band could differ from ``_merge_fold``; that step is folded by
    ``_merge_fold`` and the next block starts from it.  So every state is
    ``_merge_fold``'s, bit for bit.
    """
    wanted = np.asarray(wanted, dtype=bool)
    add, multiply, less_equal, copyto = np.add, np.multiply, np.less_equal, np.copyto
    last = None
    done = 0
    while done < len(steps):
        m = values.size
        if 2 * m > ATOM_BUDGET:
            raise ConvolutionError(f"atomic convolution exceeds {ATOM_BUDGET} atoms")
        # a state grows by at most one atom a step, so rows + 1 states of
        # width m + rows + 1 hold them all and their sentinels, atoms and
        # masses together in MIXTURE_BLOCK_POINTS numbers; no step of the
        # block starts from more than ATOM_BUDGET / 2 atoms
        rows = int((math.sqrt(m * m + 2.0 * MIXTURE_BLOCK_POINTS) - m - 2) // 2)
        rows = max(1, min(rows, len(steps) - done, ATOM_BUDGET // 2 - m + 1))
        width = m + rows + 1
        atoms = np.full((rows + 1, width), np.inf)
        masses = np.zeros((rows + 1, width))
        atoms[0, :m] = values
        masses[0, :m] = probs
        hi = np.full(width + 1, np.inf)
        hi_mass = np.zeros(width + 1)
        first_low = np.empty(width, dtype=bool)
        sizes = [m]
        block = steps[done:done + rows]
        for r, step in enumerate(block, 1):
            if step is not last:
                # 0-d arrays: the cheapest operands for the ufuncs below
                last, (a, b, pa, pb) = step, map(np.array, step)
            k = m + 1
            row, out = atoms[r - 1, :k], atoms[r, :k]
            add(row, a, out)
            add(row, b, hi[1:k + 1])
            top = hi[:k]
            copyto(out, top, where=less_equal(top, out, first_low[:k]))
            row, out = masses[r - 1, :k], masses[r, :k]
            multiply(row, pa, out)
            multiply(row, pb, hi_mass[1:k + 1])
            add(out, hi_mass[:k], out)
            if out[0] and out[m]:
                m = k
            elif out[0] and out[m - 1]:
                # only the top mass underflowed: the state ends one atom short
                atoms[r, m] = np.inf
            elif out[1] and out[m]:
                # only the bottom mass underflowed: the state moves down one
                atoms[r, :m] = atoms[r, 1:k]
                out[:m] = out[1:]
                atoms[r, m] = np.inf
                out[m] = 0.0
            else:
                m = _drop_zeros(atoms[r, :k], out)
            sizes.append(m)
        sizes = np.array(sizes)
        off = _off_band(atoms[:-1], sizes[:-1], np.array(block))
        if np.count_nonzero(masses) < sizes.sum():
            # a zero mass inside a state, which the merge would have dropped
            off |= np.count_nonzero(masses[1:], axis=1) < sizes[1:]
        good = int(np.argmax(off)) if off.any() else rows
        keep = np.flatnonzero(wanted[done:done + good]) + 1
        if keep.size == good > 0:
            yield atoms[1:good + 1], masses[1:good + 1], sizes[1:good + 1], mean, var
        elif keep.size:
            yield atoms[keep], masses[keep], sizes[keep], mean, var
        # copies, so that no more than one block is held while the next is folded
        values, probs = atoms[good, :sizes[good]].copy(), masses[good, :sizes[good]].copy()
        del atoms, masses
        done += good
        if good < rows:
            step = steps[done]
            values, probs = _merge_fold(values, probs, np.array(step[:2]), np.array(step[2:]))
            done += 1
            if wanted[done - 1]:
                yield values[None], probs[None], np.array([values.size]), mean, var
    return values, probs


def _extend_sum(
    values: np.ndarray,
    probs: np.ndarray,
    n_mean: float,
    n_var: float,
    dist: ScalarDistribution,
) -> _FoldState:
    """Fold one more independent entry into a running convolution state."""
    if isinstance(dist, Normal):
        n_var = n_var + dist.variance
        if not math.isfinite(n_var):
            raise ConvolutionError("the sum's normal variance is not finite")
        return values, probs, n_mean + dist.mean, n_var
    at = dist.atoms()
    if at is None:
        raise ConvolutionError(
            f"entry {dist!r} is neither normal nor atomic; "
            "its sampled distance is empirical_delta"
        )
    av, ap = at
    if values.size * av.size > ATOM_BUDGET:
        raise ConvolutionError(f"atomic convolution exceeds {ATOM_BUDGET} atoms")
    return (*_merge_fold(values, probs, av, ap), n_mean, n_var)


def _fold_blocks(
    laws: Iterable[ScalarDistribution], lengths: Iterable[int]
) -> Iterator[_Block]:
    """Convolution states of the partial sums of ``laws`` at the strictly
    increasing ``lengths``, in blocks: one running convolution folds each
    law in once and reads none past the last length.

    Once the atomic part holds two atoms, each stretch of entries with two
    atoms goes through ``_fold_stretch``, its states in blocks.  Any other
    entry goes through ``_extend_sum``, and its state comes alone.
    """
    laws = iter(laws)
    values, probs, mean, var = np.array([0.0]), np.array([1.0]), 0.0, 0.0
    steps: List[_Step] = []
    wanted: List[bool] = []
    last = step = None
    done = 0
    for length in lengths:
        for dist in islice(laws, int(length) - done):
            if dist is not last:
                last, step = dist, _two_atoms(dist)
            if step is not None and (steps or values.size >= 2):
                steps.append(step)
                wanted.append(False)
                continue
            if steps:
                values, probs = yield from _fold_stretch(values, probs, steps, wanted, mean, var)
                steps, wanted = [], []
            values, probs, mean, var = _extend_sum(values, probs, mean, var, dist)
        done = int(length)
        if steps:
            wanted[-1] = True
        else:
            yield values[None], probs[None], np.array([values.size]), mean, var
    if steps:
        yield from _fold_stretch(values, probs, steps, wanted, mean, var)


def _states(blocks: Iterable[_Block]) -> Iterator[_FoldState]:
    """The fold states of ``blocks``, one at a time."""
    for atoms, masses, sizes, mean, var in blocks:
        variances = var if np.ndim(var) else repeat(var)
        for row, mass, size, v in zip(atoms, masses, sizes.tolist(), variances):
            yield row[:size], mass[:size], mean, v


def _partial_sums(
    laws: Iterable[ScalarDistribution], lengths: Iterable[int]
) -> Iterator[_FoldState]:
    """Convolution states of the partial sums of ``laws`` at the strictly
    increasing ``lengths`` (``_fold_blocks``), one at a time."""
    return _states(_fold_blocks(laws, lengths))


def _normal_totals(array: TriangularArray, n: int, lengths: Sequence[int]) -> Optional[np.ndarray]:
    """The variances of the sums of row n up to the strictly increasing
    ``lengths`` when the row is centered normals up to the last length,
    else None: the prefix variances added left to right, as the running
    convolution adds them.  Raises ``ConvolutionError`` once they are not
    finite."""
    variances = array.normal_variances(n, int(lengths[-1]))
    if variances is None:
        return None
    with np.errstate(over="ignore"):
        totals = np.cumsum(variances)
    if not math.isfinite(totals[-1]):
        raise ConvolutionError(
            f"row {n}'s prefix variance is not finite from position "
            f"{int(np.argmin(np.isfinite(totals))) + 1}"
        )
    return totals[np.asarray(lengths) - 1]


def _normal_block(variances: np.ndarray) -> _Block:
    """The block of the laws N(0, variances[i])."""
    size = variances.size
    return np.zeros((size, 1)), np.ones((size, 1)), np.ones(size, dtype=int), 0.0, variances


def _row_blocks(array: TriangularArray, n: int, lengths: Sequence[int]) -> Iterator[_Block]:
    """Convolution states of the sums of row n up to the strictly
    increasing ``lengths``, in blocks.

    A row of centered normals up to the last length gives one block of
    the laws N(0, prefix variance) for every length (``_normal_totals``);
    any other row is folded entry by entry (``_fold_blocks``).  Both raise
    ``ConvolutionError`` once the normal part's variance is not finite.
    """
    totals = _normal_totals(array, n, lengths)
    if totals is None:
        return _fold_blocks(expand(array.runs(n)), lengths)
    return iter((_normal_block(totals),))


def sum_of_independent(entries: Sequence[ScalarDistribution]) -> SumLaw:
    """Exact law of the sum of independent atomic/normal entries.

    Raises ConvolutionError when an entry is neither normal nor purely
    atomic, or when the atomic convolution would exceed the atom budget.
    """
    if len(entries) == 0:
        raise ValueError("need at least one entry")
    return SumLaw(*next(_partial_sums(entries, (len(entries),))))


def _mixture(states: Iterable[_FoldState], weights: np.ndarray) -> SumLaw:
    """The mixture of the fold states' laws with the given weights, scaled
    to sum to one, as one SumLaw.

    A state's locations are its atoms plus its normal part's mean, each
    with that part's variance and mass weight times the atom's.  Equal
    (location, variance) pairs merge once, their masses added in state
    order: ``merge_atoms`` over each variance's locations.  So an atomic
    mixture holds the atoms ``merge_atoms`` finds over the states' atoms.
    """
    weights = np.asarray(weights, dtype=float) / float(np.sum(weights))
    locs, masses, variances, sizes = zip(*(
        (values + mean, probs * w, var, values.size)
        for (values, probs, mean, var), w in zip(states, weights)
    ))
    locs, masses = np.concatenate(locs), np.concatenate(masses)
    variances = np.repeat(variances, sizes)
    runs = _variance_runs(variances)
    if len(runs) == 1:  # one variance: no copies, and the scalar form
        return SumLaw(*merge_atoms(locs, masses), 0.0, variances[0])
    merged = [merge_atoms(locs[i], masses[i]) for i in runs]
    return SumLaw(*map(np.concatenate, zip(*merged)), 0.0,
                  np.repeat([variances[i[0]] for i in runs], [m[0].size for m in merged]))


def row_sum_law(array: TriangularArray, n: int, k: Optional[int] = None) -> SumLaw:
    """Exact law of the partial sum of row ``n`` up to position ``k``.

    ``k`` defaults to the full row length.
    """
    if k is None:
        k = array.row_length(n)
    if k < 1:
        raise ValueError("k must be >= 1")
    return SumLaw(*next(_states(_row_blocks(array, n, (k,)))))


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------


def _gaps(f_law: ScalarDistribution, g_law: ScalarDistribution, xs: np.ndarray) -> np.ndarray:
    left = np.abs(
        np.asarray(f_law.cdf(xs), dtype=float) - np.asarray(g_law.cdf(xs), dtype=float)
    )
    right = np.abs(
        np.asarray(f_law.prob_le(xs), dtype=float) - np.asarray(g_law.prob_le(xs), dtype=float)
    )
    return np.maximum(left, right)


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of each element of ``values`` through libm, one at a time:
    numpy's SIMD loops need not round a transcendental as libm does."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _slope_terms(delta, x, mean, var, log_var, sd) -> np.ndarray:
    """delta^2 / 2 times the largest |density'| of N(mean, var) within delta
    of x, elementwise; ``log_var`` is log(var)."""
    # standardized distance of [x - delta, x + delta] from the mean, rounded down
    w = np.maximum(np.abs(x - mean) - delta, 0.0) * (1.0 - rounding_gamma(4)) / sd
    near = 0.5 * delta * delta * _PHI_AT_1 / var
    far = (w > 1.0) & (delta != 0.0)
    # w phi(w) / var in logs, so a far point's vanishing slope meets a large
    # delta without underflow; the factor 2 covers the exponent's rounding.
    # Only far points read it, and the others take the logs of 1
    exponent = (2.0 * _libm(math.log, np.where(far, delta, 1.0))
                + _libm(math.log, np.where(far, w, 1.0)) - 0.5 * w * w
                - log_var - _LOG_2_SQRT_2PI)
    slope = np.where(exponent > 700.0, math.inf,
                     2.0 * _libm(math.exp, np.minimum(exponent, 700.0)))
    return np.where(far, slope, np.where(delta == 0.0, 0.0, near))


def _normal_kolmogorov(
    m1, v1, m2: float, v2: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sup_x |F_i(x) - G(x)| for each F_i = N(m1[i], v1[i]) against one
    G = N(m2, v2), with ``m1`` and ``v1`` broadcast together: the values,
    their bounds and the numbers of crossings evaluated, as arrays.  A
    value is nan where no crossing is certified; ``kolmogorov`` searches
    the grid there.

    Each element runs the arithmetic of one solve: +, -, *, /, sqrt and
    copysign in numpy, which round as Python floats do; log1p, log and exp
    through libm, one element at a time (``_libm``); and one ``ndtr`` call
    over every crossing point.  So one call over N laws gives the numbers
    of N one-law calls, bit for bit.

    *Where the supremum is.*  D = F - G vanishes at both infinities, so
    sup |D| is reached where D' = f - g = 0: where the densities cross.
    Let a be the narrower law (va <= vb, F on a tie) and y = (x - ma) / sa.
    Taking logs of f = g, the crossings solve

        Q(y) = d y^2 + 2 b y + c = 0,    d = (vb - va) / va >= 0,
        b = (mb - ma) / sa,   rho = vb / va,   L = log1p(d) >= 0,
        c = -(b^2 + rho L),   disc / 4 = rho (b^2 + d L),

    and disc > 0 unless the laws coincide.  The roots are q / d and c / q
    with q = -b - sign(b) sqrt(disc / 4), free of cancellation; for d = 0
    only c / q = b / 2 exists.  Units of the narrower law, centred on its
    mean, keep b clear of the cancellation in vb ma - va mb, and d >= 0
    keeps the relative error of log1p(d) at most that of d.

    *Root error, certified after the fact.*  Q(y) = d (y - r1)(y - r2)
    with |r1 - r2| = 2 sqrt(disc / 4) / d, so some root lies within
    |Q(y)| / sqrt(disc / 4) of any y (for d = 0 too, where Q is linear
    with slope 2 |b|).  Each coefficient of Q is at most 8 roundings from
    its exact value (log1p counted as 2) and Horner's rule adds 4, so the
    exact |Q(y^)| is at most the computed one plus gamma_16 (d y^2 +
    2 |b y| - c); the computed sqrt(disc / 4) is within a factor
    1 - gamma_8 of the exact one.  Mapping x^ = ma + sa y^ adds gamma_3
    (|x^| + sa |y^|).  The two crossings found must lie farther apart than
    their two error radii delta, so they sit near different roots.  Where
    that fails, b and d underflow to leave no root, or any number is not
    finite, the value is nan.

    *Value error.*  D' = 0 at a root r, so |D(r) - D(x^)| <= delta^2 / 2
    times max |D''| on [x^ - delta, x^ + delta], and |D''| <= |f'| + |g'|
    with |f'(x)| = |z| phi(z) / v1, z = (x - m1) / s1, at most
    psi(w) / v1 for w the interval's standardized distance from m1 and
    psi(w) = phi(1) for w <= 1, w phi(w) beyond (where it decreases).  At
    the points themselves ndtr errs by at most NDTR_ABS_ERR; its argument
    carries relative error gamma_3 (a difference, a square root and a
    quotient), which moves Phi by at most gamma_3 |z| phi(z (1 - gamma_3))
    <= gamma_4 phi(1); the difference of the two CDFs rounds by at most
    u.  Hence

        |sup |D| - value| <= 2 (NDTR_ABS_ERR + gamma_4 phi(1)) + u
                             + max over points of the delta^2 terms,

    which is the bound reported.  Intermediate underflow is not covered.
    Equal laws give value and bound 0 with no crossing.
    """
    v1 = np.array(v1, dtype=float, ndmin=1)
    m1 = np.full(v1.shape, m1, dtype=float)
    same = (m1 == m2) & (v1 == v2)
    value, bound, grid = np.where(same, 0.0, np.nan), np.where(same, 0.0, np.nan), np.zeros(m1.size)
    with np.errstate(all="ignore"):
        swap = v1 > v2
        ma, va = np.where(swap, m2, m1), np.where(swap, v2, v1)
        mb, vb = np.where(swap, m1, m2), np.where(swap, v1, v2)
        sa = np.sqrt(va)
        d = (vb - va) / va
        b = (mb - ma) / sa
        rho = vb / va
        log_rho = _libm(math.log1p, d)
        c = -(b * b + rho * log_rho)
        root = np.sqrt(rho * (b * b + d * log_rho))
        q = -b - np.copysign(root, b)
        # row 0 the crossing c / q, row 1 the crossing q / d, which exists
        # where d > 0
        y = np.array((c / q, q / d))
        residual = (d * y + 2.0 * b) * y + c
        size = (d * np.abs(y) + 2.0 * np.abs(b)) * np.abs(y) - c
        dy = (np.abs(residual) + rounding_gamma(16) * size) / (root * (1.0 - rounding_gamma(8)))
        x = ma + sa * y
        delta = sa * dy * (1.0 + rounding_gamma(1)) + rounding_gamma(3) * (np.abs(x) + sa * np.abs(y))
        two = d != 0.0
        finite = np.isfinite(x) & np.isfinite(delta)
        apart = finite[1] & ~(np.abs(x[0] - x[1]) <= delta[0] + delta[1])
        solved = np.flatnonzero(~same & (root != 0.0) & finite[0] & (~two | apart))
        if not solved.size:
            return value, bound, grid
        two, x, delta = two[solved], x[:, solved], delta[:, solved]
        m1, v1 = m1[solved], v1[solved]
        s1, s2 = np.sqrt(v1), math.sqrt(v2)
        cdf = ndtr(np.concatenate(((x - m1) / s1, (x - m2) / s2)))
        gaps = np.abs(cdf[:2] - cdf[2:])
        slopes = (_slope_terms(delta, x, m1, v1, _libm(math.log, v1), s1)
                  + _slope_terms(delta, x, m2, v2, math.log(v2), s2))
    value[solved] = np.where(two, np.maximum(gaps[0], gaps[1]), gaps[0])
    bound[solved] = _NORMAL_ROUNDING + np.where(two, np.maximum(slopes[0], slopes[1]), slopes[0])
    grid[solved] = np.where(two, 2.0, 1.0)
    return value, bound, grid


def _atom_gaps(
    values: np.ndarray, below: np.ndarray, through: np.ndarray, g_law: ScalarDistribution
) -> np.ndarray:
    """``_gaps`` at the strictly increasing atoms ``values`` of an atomic
    law F whose masses below and through each atom are ``below`` and
    ``through``: there ``F.cdf`` and ``F.prob_le`` are those masses, so no
    search runs.  G's CDF is evaluated once when its ``prob_le`` is the
    inherited ``cdf``.  The gaps are written over ``below`` and
    ``through``."""
    g_below = np.asarray(g_law.cdf(values), dtype=float)
    if type(g_law).prob_le is ScalarDistribution.prob_le:
        g_through = g_below
    else:
        g_through = np.asarray(g_law.prob_le(values), dtype=float)
    gaps = np.subtract(below, g_below, out=below)
    upper = np.subtract(through, g_through, out=through)
    return np.maximum(np.abs(gaps, out=gaps), np.abs(upper, out=upper), out=gaps)


def kolmogorov(f_law: ScalarDistribution, g_law: ScalarDistribution) -> DistanceEstimate:
    """sup_x |F(x) - G(x)| with both one-sided limits at every candidate.

    When either law is purely atomic (``atoms()`` is not None; the first
    law's atoms when both are) the supremum is taken at its atoms alone and
    is exact, method ``exact-atomic`` with bound 0: that law's CDF is
    constant on each open gap between consecutive atoms and on each tail,
    the other CDF is monotone there, so the gap is largest at the one-sided
    limits.  Those limits are read off the law's own atoms, stably sorted:
    at each distinct atom the cumulative mass before its run of equal
    atoms and at the run's end, the numbers ``cdf`` and ``prob_le`` give
    there for every atomic law that steps at the atoms it reports.  The
    other law is evaluated once at the distinct atoms (``_atom_gaps``), so
    no search runs.  ``params["grid"]`` is the number of atoms.

    When both laws are normal (``normal_params()`` is not None for both)
    the supremum is taken where the two densities cross, method
    ``exact-normal``: the batched solver ``_normal_kolmogorov`` runs on one
    element, its bound covers the rounding, and ``params["grid"]`` is the
    number of crossings evaluated, at most 2.  Where it certifies no
    crossing, the grid below serves.

    Otherwise (method ``exact-grid``) the search grid has _KOLMOGOROV_GRID
    points spanning both laws' mean +- 10 standard deviations, refined
    twice around the largest observed gaps.  The reported bound covers
    what the grid can hide: within each cell the distance cannot exceed
    the observed endpoint values by more than the smaller of the two laws'
    probability masses across the cell, and the grid ends leave at most
    the remaining tail masses.
    """
    for law, other in ((f_law, g_law), (g_law, f_law)):
        at = law.atoms()
        if at is not None:
            order = np.argsort(at[0], kind="stable")
            values, cum = at[0][order], np.concatenate(([0.0], np.cumsum(at[1][order])))
            # each run of equal atoms starts at `starts` and ends before `ends`
            starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
            ends = np.append(starts[1:], values.size)
            value = float(np.max(_atom_gaps(values[starts], cum[starts], cum[ends], other)))
            return DistanceEstimate(value, 0.0, "exact-atomic", {"grid": float(values.size)})
    f_params, g_params = f_law.normal_params(), g_law.normal_params()
    if f_params is not None and g_params is not None:
        value, bound, grid = _normal_kolmogorov(*f_params, *g_params)
        if not math.isnan(value[0]):
            return DistanceEstimate(float(value[0]), float(bound[0]), "exact-normal",
                                    {"grid": float(grid[0])})

    spread_f = 10.0 * max(f_law.std, 1e-12)
    spread_g = 10.0 * max(g_law.std, 1e-12)
    lo = min(f_law.mean - spread_f, g_law.mean - spread_g)
    hi = max(f_law.mean + spread_f, g_law.mean + spread_g)
    xs = np.linspace(lo, hi, _KOLMOGOROV_GRID)

    g = _gaps(f_law, g_law, xs)
    for _ in range(2):
        top = np.argsort(g)[-_REFINE_TOP:]
        extra = []
        for i in top:
            a = xs[max(int(i) - 1, 0)]
            b = xs[min(int(i) + 1, xs.size - 1)]
            if b > a:
                extra.append(np.linspace(a, b, 17))
        if not extra:
            break
        xs = np.unique(np.concatenate([xs, *extra]))
        g = _gaps(f_law, g_law, xs)

    value = float(np.max(g))

    f_hi = np.asarray(f_law.cdf(xs[1:]), dtype=float)
    f_lo = np.asarray(f_law.prob_le(xs[:-1]), dtype=float)
    g_hi = np.asarray(g_law.cdf(xs[1:]), dtype=float)
    g_lo = np.asarray(g_law.prob_le(xs[:-1]), dtype=float)
    cell_excess = np.maximum(
        np.minimum(f_hi - f_lo, g_hi - g_lo), 0.0
    )
    tail_left = max(float(f_law.cdf(xs[0])), float(g_law.cdf(xs[0])))
    tail_right = max(
        1.0 - float(f_law.prob_le(xs[-1])), 1.0 - float(g_law.prob_le(xs[-1]))
    )
    bound = max(float(np.max(cell_excess)) if cell_excess.size else 0.0,
                tail_left, tail_right)
    return DistanceEstimate(value, bound, "exact-grid", {"grid": float(xs.size)})


def empirical_kolmogorov(
    samples: np.ndarray, law: ScalarDistribution, alpha: float = 0.01
) -> DistanceEstimate:
    """Kolmogorov-Smirnov statistic of a sample against a reference law.

    The bound is the DKW deviation of the empirical CDF from its own law
    at confidence 1 - alpha; it does not include any error in ``law``.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m < 1:
        raise ValueError("need at least one sample")
    ref = np.asarray(law.prob_le(xs), dtype=float)
    upper = np.arange(1, m + 1) / m - ref
    lower = ref - np.arange(0, m) / m
    value = float(max(np.max(upper), np.max(lower), 0.0))
    return DistanceEstimate(
        value,
        dkw_bound(m, alpha),
        "empirical-KS",
        {"samples": float(m), "alpha": float(alpha)},
    )


# ---------------------------------------------------------------------------
# mixture distances for random-length sums
# ---------------------------------------------------------------------------


def _per_k_blocks(
    array: TriangularArray,
    ks: np.ndarray,
    n: int,
    mode: str,
) -> Iterator[_Block]:
    """Convolution states of the partial sums, one per k and produced as
    read, in blocks: prefix mode takes positions 1..k of row n, in one pass
    over the row for all k, and rows mode takes all of row k.

    A row of centered normals is one variance vector, so its laws take a
    cumulative sum and no fold: in prefix mode one block holds them all,
    and in rows mode one block holds the complete-row laws of each run of
    consecutive such rows.  Other rows run one convolution, which raises
    ``ConvolutionError`` at an entry it cannot fold in.
    """
    if mode == "prefix":
        yield from _row_blocks(array, n, ks)
        return
    totals: List[np.ndarray] = []
    for k in ks.tolist():
        length = array.row_length(k)
        total = _normal_totals(array, k, (length,))
        if total is not None:
            totals.append(total)
            continue
        if totals:
            yield _normal_block(np.concatenate(totals))
            totals = []
        yield from _fold_blocks(expand(array.runs(k)), (length,))
    if totals:
        yield _normal_block(np.concatenate(totals))


def _per_k_sums(array: TriangularArray, ks: np.ndarray, n: int, mode: str) -> Iterator[_FoldState]:
    """The states of ``_per_k_blocks``, one at a time."""
    return _states(_per_k_blocks(array, ks, n, mode))


_Term = Tuple[float, float, float]


class _Waiting:
    """Atomic per-k laws waiting to be settled against a normal target.

    Their atoms and the masses through each atom lie flat in buffers kept
    from one settling to the next, beside each law's weight and size, so
    no block is held past its arrival."""

    def __init__(self, target: Normal):
        self.target = target
        self.atoms = self.through = np.empty(0)
        self.weights: List[float] = []
        self.sizes: List[int] = []
        self.points = 0

    def add(self, weights: np.ndarray, atoms: np.ndarray, through: np.ndarray,
            sizes: np.ndarray) -> None:
        """Append the rows of a block: weights, atoms and masses through each
        atom (rows as in a block), and sizes."""
        end = self.points + int(sizes.sum())
        if end > self.atoms.size:
            size = max(end, MIXTURE_BLOCK_POINTS + int(sizes.max()))
            self.atoms, self.through = (
                np.concatenate((part[:self.points], np.empty(size - self.points)))
                for part in (self.atoms, self.through)
            )
        inside = (np.arange(atoms.shape[1]) < sizes[:, None]).ravel()
        np.compress(inside, atoms.ravel(), out=self.atoms[self.points:end])
        np.compress(inside, through.ravel(), out=self.through[self.points:end])
        self.weights += weights.tolist()
        self.sizes += sizes.tolist()
        self.points = end

    def settle(self) -> List[_Term]:
        """The terms of the waiting laws, in order; empties the wait.  One
        call of the target CDF serves them all, the masses below each atom
        are those through the one before, and one maximum over each law's
        atoms gives its distance."""
        through = self.through[:self.points]
        starts = np.cumsum([0] + self.sizes[:-1])
        below = np.empty_like(through)
        below[1:] = through[:-1]
        below[starts] = 0.0
        gaps = _atom_gaps(self.atoms[:self.points], below, through, self.target)
        distances = np.maximum.reduceat(gaps, starts).tolist()
        terms = [(w, d, 0.0) for w, d in zip(self.weights, distances)]
        self.weights, self.sizes, self.points = [], [], 0
        return terms


def _per_k_distances(
    array: TriangularArray,
    ks: np.ndarray,
    pmf: np.ndarray,
    n: int,
    mode: str,
    target: ScalarDistribution,
) -> Iterator[_Term]:
    """(P(nu = k), Delta_k, its bound) for each k of positive weight, in k
    order.

    The fold states come in blocks (``_per_k_blocks``), and against a
    normal target no ``SumLaw`` is built for the two kinds below.

    A block of normal laws N(mean, v_k) is settled with one exact-normal
    solve over its distinct variances of positive weight
    (``_normal_kolmogorov``), each k reading its variance's distance; only
    a variance the solve leaves uncertified goes through ``kolmogorov``,
    whose grid then serves it.

    A purely atomic fold state holds strictly increasing atoms, so its
    distance is ``kolmogorov``'s exact-atomic value read off the state
    itself.  A block of them takes one cumulative sum of its masses along
    the rows, whose totals are checked to be one as ``SumLaw`` checks
    them, and its rows of positive weight wait (``_Waiting``).  They are
    settled once MIXTURE_BLOCK_POINTS atoms wait, and before any other k,
    so the terms keep their order and no more than a block of atoms and
    one state wait.  Other laws go through ``kolmogorov``.
    """
    waiting = _Waiting(target) if isinstance(target, Normal) else None
    start = 0
    for atoms, masses, sizes, mean, var in _per_k_blocks(array, ks, n, mode):
        weights = pmf[start:start + sizes.size]
        start += sizes.size
        if waiting is not None and np.ndim(var):
            keep = weights != 0.0
            if not keep.any():
                continue
            if waiting.points:
                yield from waiting.settle()
            distinct, inverse = np.unique(var[keep], return_inverse=True)
            values, bounds, _ = _normal_kolmogorov(mean, distinct, *target.normal_params())
            for i in np.flatnonzero(np.isnan(values)).tolist():
                est = kolmogorov(SumLaw([0.0], [1.0], mean, distinct[i]), target)
                values[i], bounds[i] = est.value, est.bound
            yield from zip(weights[keep].tolist(), values[inverse].tolist(), bounds[inverse].tolist())
            continue
        if waiting is None or mean != 0.0 or var != 0.0:
            for w, state in zip(weights, _states([(atoms, masses, sizes, mean, var)])):
                law = SumLaw(*state)
                if w == 0.0:
                    continue
                if waiting is not None and waiting.points:
                    yield from waiting.settle()
                est = kolmogorov(law, target)
                yield w, est.value, est.bound
            continue
        through = np.cumsum(masses, axis=1)
        if (np.abs(through[np.arange(sizes.size), sizes - 1] - 1.0) > 1e-9).any():
            raise ValueError("atom probabilities must sum to one")
        if not weights.all():
            keep = weights != 0.0
            weights, atoms, through, sizes = weights[keep], atoms[keep], through[keep], sizes[keep]
        while sizes.size:
            # the first row at which the waiting atoms fill a block
            reach = waiting.points + np.cumsum(sizes)
            cut = int(np.searchsorted(reach, MIXTURE_BLOCK_POINTS)) + 1
            waiting.add(weights[:cut], atoms[:cut], through[:cut], sizes[:cut])
            if cut > sizes.size:
                break
            yield from waiting.settle()
            weights, atoms, through, sizes = weights[cut:], atoms[cut:], through[cut:], sizes[cut:]
        # the block is all in the wait: let it go before the next is folded
        del atoms, masses, through
    if waiting is not None and waiting.points:
        yield from waiting.settle()


def delta_mixture(
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    eta: float = DEFAULT_ETA,
    *,
    mode: str = "prefix",
    reference: Optional[ScalarDistribution] = None,
) -> DistanceEstimate:
    """Index-weighted mixture of per-length Kolmogorov distances.

    Computes ``sum_{k <= K(eta)} P(nu = k) * Delta_k`` where ``Delta_k``
    is the distance between the length-k partial sum and the standard
    normal.  ``mode="prefix"`` takes partial sums within row ``n``;
    ``mode="rows"`` takes the complete row ``k`` sum for each ``k``
    (the normalized-sequence reading, where row k carries its own
    normalizer).  A row with no exact per-k law raises
    ``ConvolutionError``.  The bound is the index-weighted per-k bounds
    plus the neglected index tail plus the rounding of the K-term sum.
    """
    if mode not in ("prefix", "rows"):
        raise ValueError("mode must be 'prefix' or 'rows'")
    target = reference if reference is not None else Normal(0.0, 1.0)
    trunc_k = index.truncation(eta)
    ks = np.arange(1, trunc_k + 1)
    pmf = np.asarray(index.pmf(ks), dtype=float)
    value = 0.0
    bound = float(index.tail_mass(trunc_k))  # each neglected Delta_k <= 1
    for w, est_value, est_bound in _per_k_distances(array, ks, pmf, n, mode, target):
        value += w * est_value
        bound += w * est_bound
    # the K weighted terms round by at most gamma_K * sum_k p_k |Delta_k|
    # (Higham 2002, ch. 3); every term is nonnegative, so that sum is the value
    bound += rounding_gamma(int(trunc_k)) * value
    return DistanceEstimate(
        float(value),
        float(bound),
        "mixture",
        {"eta": float(eta), "truncation_k": float(trunc_k)},
    )


def delta_randomsum(
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    eta: float = DEFAULT_ETA,
    *,
    mode: str = "prefix",
    reference: Optional[ScalarDistribution] = None,
) -> DistanceEstimate:
    """Kolmogorov distance of the random-length sum itself.

    This is ``sup_x |P(S_nu < x) - Phi(x)|``: the supremum of the mixture
    CDF deviation, never larger than the mixture of suprema computed by
    ``delta_mixture``.  The mixture is of the exact per-k laws up to the
    truncation point, held as one ``SumLaw`` (``_mixture``), so a row with
    no exact per-k law raises ``ConvolutionError``;
    ``engine.empirical_delta`` samples such a sum.  When every per-k law
    is the same normal law, as complete rows of centered normals of unit
    variance give in rows mode, the mixture is that one law and
    ``kolmogorov`` takes its exact-normal path.
    """
    if mode not in ("prefix", "rows"):
        raise ValueError("mode must be 'prefix' or 'rows'")
    target = reference if reference is not None else Normal(0.0, 1.0)
    trunc_k = index.truncation(eta)
    ks = np.arange(1, trunc_k + 1)
    pmf = np.asarray(index.pmf(ks), dtype=float)
    # normalized here and again in _mixture: the reported values carry
    # both roundings, and the second moves some weights by an ulp
    weights = pmf / float(np.sum(pmf))
    est = kolmogorov(_mixture(_per_k_sums(array, ks, n, mode), weights), target)
    # the dropped index tail shifts the true mixture CDF by <= eta
    bound = est.bound + float(index.tail_mass(trunc_k))
    return DistanceEstimate(
        est.value, bound, "mixture", {"eta": float(eta), "sup_of_mixture": 1.0}
    )


# ---------------------------------------------------------------------------
# Zolotarev ideal metric
# ---------------------------------------------------------------------------


def _moment(law: ScalarDistribution, order: int) -> float:
    if order == 1:
        return law.mean
    if order == 2:
        return law.variance + law.mean * law.mean
    raise ValueError("only moments 1 and 2 are needed")


def _zeta_window(
    f_law: ScalarDistribution, g_law: ScalarDistribution, s: int
) -> Tuple[float, float, float]:
    """Integration window [lo, hi] plus the certified tail error.

    The neglected tails contribute at most
    sum_m E[((lo - X)_+)^m]/m! * (hi - lo)^(s - m) summed over both laws
    and both sides; the window is widened until that is negligible
    relative to sigma^s (keeping the construction scale-equivariant so
    homogeneity of zeta_s survives discretization).
    """
    center = 0.5 * (f_law.mean + g_law.mean)
    sigma = max(f_law.std, g_law.std, 1e-300)
    sigma = max(sigma, 0.5 * abs(f_law.mean - g_law.mean))
    target = 1e-13 * sigma ** s

    u = 12.0
    while True:
        lo = center - u * sigma
        hi = center + u * sigma
        span = hi - lo
        tail = 0.0
        for law in (f_law, g_law):
            # E[((lo - X)_+)^m] = (-1)^m E[(X - lo)^m 1{X <= lo}]
            left = law.partial_moments(-math.inf, lo, lo, s)
            right = law.partial_moments(hi, math.inf, hi, s)
            for m in range(1, s + 1):
                tail += ((-1) ** m * left[m] + right[m]) / math.factorial(m) * span ** (s - m)
        if tail <= target or u >= 200.0:
            if u >= 200.0 and tail > target:
                raise ArithmeticError(
                    f"zeta_{s} tails do not converge within 200 sigma"
                )
            return lo, hi, tail
        u = min(2.0 * u, 200.0)


def _abs_pw_linear_integral(nodes: np.ndarray, h_vals: np.ndarray) -> float:
    """Integral of |piecewise linear| with exact sign-crossing splits."""
    a = h_vals[:-1]
    b = h_vals[1:]
    w = np.diff(nodes)
    same = a * b >= 0.0
    tri = np.where(
        same,
        0.5 * (np.abs(a) + np.abs(b)),
        0.5 * (a * a + b * b) / np.maximum(np.abs(a) + np.abs(b), 1e-300),
    )
    return float(np.sum(tri * w))


def _zeta_on_grid(
    f_law: ScalarDistribution,
    g_law: ScalarDistribution,
    s: int,
    nodes: np.ndarray,
) -> float:
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    w = np.diff(nodes)
    h1 = np.asarray(f_law.cdf(mids), dtype=float) - np.asarray(g_law.cdf(mids), dtype=float)
    if s == 1:
        return float(np.sum(np.abs(h1) * w))
    h2 = np.concatenate([[0.0], np.cumsum(h1 * w)])
    if s == 2:
        return _abs_pw_linear_integral(nodes, h2)
    h3 = np.concatenate([[0.0], np.cumsum(0.5 * (h2[:-1] + h2[1:]) * w)])
    return _abs_pw_linear_integral(nodes, h3)


def _refine_nodes(nodes: np.ndarray) -> np.ndarray:
    return np.sort(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))


def zeta(f_law: ScalarDistribution, g_law: ScalarDistribution, s: int) -> DistanceEstimate:
    """Zolotarev ideal metric of order s in {1, 2, 3}.

    Computed through iterated CDF differences: with H1 = F - G and
    H_{m+1}(x) = integral of H_m up to x, the metric equals the total
    integral of |H_s| provided moments up to order s-1 agree (the
    factorial is absorbed into the iterated integrals).  For s = 1 no
    moment condition is needed.  Raises MomentMismatchError when the
    representation does not apply.
    """
    if s not in (1, 2, 3):
        raise ValueError("s must be 1, 2, or 3")
    for order in range(1, s):
        diff = abs(_moment(f_law, order) - _moment(g_law, order))
        if diff > MOMENT_MATCH_TOL:
            raise MomentMismatchError(order, diff)

    sigma = max(f_law.std, g_law.std)
    if sigma == 0.0:
        # two point masses
        gap = abs(f_law.mean - g_law.mean)
        value = gap if s == 1 else 0.0
        return DistanceEstimate(value, 0.0, "iterated-integral", {"s": float(s)})

    lo, hi, tail_err = _zeta_window(f_law, g_law, s)
    base = np.linspace(lo, hi, _ZETA_CELLS + 1)
    extra = []
    for law in (f_law, g_law):
        at = law.atoms()
        if at is not None:
            inside = at[0][(at[0] > lo) & (at[0] < hi)]
            extra.append(inside)
    if extra:
        base = np.unique(np.concatenate([base, *extra]))

    coarse = _zeta_on_grid(f_law, g_law, s, base)
    mid_nodes = _refine_nodes(base)
    middle = _zeta_on_grid(f_law, g_law, s, mid_nodes)
    fine_nodes = _refine_nodes(mid_nodes)
    fine = _zeta_on_grid(f_law, g_law, s, fine_nodes)

    # midpoint-rule error shrinks ~4x per doubling; extrapolate and keep
    # the last observed difference as the bound
    value = fine + (fine - middle) / 3.0
    disc_err = abs(fine - middle) + abs(middle - coarse) / 4.0
    return DistanceEstimate(
        max(value, 0.0),
        disc_err + tail_err,
        "iterated-integral",
        {"s": float(s), "cells": float(fine_nodes.size - 1)},
    )


# (lo, hi, center, coefficients): the polynomial
# sum_m coefficients[m] (x - center)^m on lo < x <= hi
PolyPiece = Tuple[float, float, float, Tuple[float, ...]]


def _testfn(s: int, center: float, width: float) -> List[PolyPiece]:
    """An admissible order-s test function as polynomial pieces; it is 0
    off them.

    s=1: clamped ramp, 1-Lipschitz.  s=2: antiderivative of a unit tent
    (derivative has slopes +-1).  s=3: second antiderivative of the tent.
    All built so the (s-1)-th derivative is 1-Lipschitz; each piece is
    expanded about its nearer kink, where it is smallest.
    """
    c, w = float(center), float(width)
    inf = math.inf
    if s == 1:
        return [(-inf, c - w, c, (-w,)), (c - w, c + w, c, (0.0, 1.0)), (c + w, inf, c, (w,))]
    if s == 2:
        # the tent t(u) = max(0, w - |u - c|) integrated from -inf
        return [
            (c - w, c, c - w, (0.0, 0.0, 0.5)),
            (c, c + w, c + w, (w * w, 0.0, -0.5)),
            (c + w, inf, c + w, (w * w,)),
        ]
    # integrated once more, piecewise cubic
    return [
        (c - w, c, c - w, (0.0, 0.0, 0.0, 1.0 / 6.0)),
        (c, c + w, c + w, (w ** 3, w * w, 0.0, -1.0 / 6.0)),
        (c + w, inf, c + w, (w ** 3, w * w)),
    ]


def _testfns(
    f_law: ScalarDistribution, g_law: ScalarDistribution, s: int
) -> Iterator[List[PolyPiece]]:
    """The test functions zeta_lower_bound tries: 9 centers by 4 widths."""
    center0 = 0.5 * (f_law.mean + g_law.mean)
    sigma = max(f_law.std, g_law.std, 1e-12)
    centers = np.linspace(center0 - 4.0 * sigma, center0 + 4.0 * sigma, _N_TESTFNS)
    for width_mult in (0.5, 1.0, 2.0, 4.0):
        for c in centers:
            yield _testfn(s, c, width_mult * sigma)


def _expect_pieces(law: ScalarDistribution, pieces: List[PolyPiece]) -> float:
    """E f(X) for the piecewise polynomial f, from the law's partial moments."""
    total = 0.0
    for lo, hi, center, coeffs in pieces:
        moments = law.partial_moments(lo, hi, center, len(coeffs) - 1)
        total += sum(a * m for a, m in zip(coeffs, moments))
    return total


def zeta_lower_bound(
    f_law: ScalarDistribution,
    g_law: ScalarDistribution,
    s: int,
) -> DistanceEstimate:
    """Best |E f(X) - E f(Y)| over a family of admissible test functions.

    Every candidate has a 1-Lipschitz (s-1)-th derivative, so the result
    is a certified lower bound for zeta_s.  Each expectation is a sum of
    the laws' partial moments over the candidate's polynomial pieces and
    never touches the iterated-integral machinery, making the sandwich an
    independent check.
    """
    if s not in (1, 2, 3):
        raise ValueError("s must be 1, 2, or 3")
    best = 0.0
    for pieces in _testfns(f_law, g_law, s):
        gap = abs(_expect_pieces(f_law, pieces) - _expect_pieces(g_law, pieces))
        best = max(best, gap)
    return DistanceEstimate(
        best, 1e-10, "testfn-lower-bound", {"s": float(s), "n": float(_N_TESTFNS)}
    )


# ---------------------------------------------------------------------------
# semi-additivity of zeta over independent sums
# ---------------------------------------------------------------------------


def semi_additivity_check(
    x_entries: Sequence[ScalarDistribution],
    y_entries: Sequence[ScalarDistribution],
    s_values: Sequence[int] = (1, 2, 3),
    *,
    index: Optional[RandomIndex] = None,
) -> List[InequalityCheck]:
    """Verify zeta_s(sum X_j, sum Y_j) <= sum_j zeta_s(X_j, Y_j).

    With an ``index`` the random-length variants are checked too:
    the mixture bound sum_k P(nu=k) sum_{j<=k} zeta_s(X_j, Y_j), and for
    identically distributed entries its collapsed form E[nu] * zeta_s.
    Entry lists must be exactly convolvable (atomic or normal).
    """
    if len(x_entries) != len(y_entries) or not x_entries:
        raise ValueError("entry lists must be nonempty and of equal length")
    k_max = len(x_entries)
    per_entry = {}
    checks: List[InequalityCheck] = []
    x_sum = sum_of_independent(x_entries)
    y_sum = sum_of_independent(y_entries)
    for s in s_values:
        per_entry[s] = [
            zeta(x, y, s).value for x, y in zip(x_entries, y_entries)
        ]
        lhs = zeta(x_sum, y_sum, s).value
        rhs = float(np.sum(per_entry[s]))
        checks.append(
            InequalityCheck(
                f"zeta{s}_sum<=entrywise_sum",
                "entry-list",
                None,
                k_max,
                None,
                None,
                lhs,
                rhs,
                IMPLICATION_SLACK,
            )
        )
    if index is None:
        return checks

    trunc_k = index.truncation(_SEMI_ADDITIVITY_ETA)
    if trunc_k > k_max:
        raise ValueError(
            f"index needs prefixes up to {trunc_k} but only {k_max} entries given"
        )
    ks = np.arange(1, trunc_k + 1)
    pmf = np.asarray(index.pmf(ks), dtype=float)
    x_iid = all(d.descriptor() == x_entries[0].descriptor() for d in x_entries)
    y_iid = all(d.descriptor() == y_entries[0].descriptor() for d in y_entries)
    x_mix = _mixture(_partial_sums(x_entries, ks), pmf)
    y_mix = _mixture(_partial_sums(y_entries, ks), pmf)
    for s in s_values:
        lhs = zeta(x_mix, y_mix, s).value
        prefix_sums = np.cumsum(per_entry[s][:trunc_k])
        rhs = float(np.dot(pmf, prefix_sums))
        checks.append(
            InequalityCheck(
                f"zeta{s}_randomsum<=mixture_bound",
                "entry-list",
                index.descriptor(),
                trunc_k,
                None,
                None,
                lhs,
                rhs,
                IMPLICATION_SLACK + _SEMI_ADDITIVITY_ETA,
            )
        )
        if x_iid and y_iid:
            mean_nu = float(np.dot(pmf, ks))
            rhs_iid = mean_nu * per_entry[s][0]
            checks.append(
                InequalityCheck(
                    f"zeta{s}_randomsum<=index_mean*zeta",
                    "entry-list",
                    index.descriptor(),
                    trunc_k,
                    None,
                    None,
                    lhs,
                    rhs_iid,
                    IMPLICATION_SLACK + _SEMI_ADDITIVITY_ETA,
                )
            )
    return checks
