"""Nonsingular state evolution, interference by cancellation, and the two-slit setup.

Evolution is any invertible GF(2) matrix. It preserves brackets relative
to the evolved basis, and because addition is mod 2, evolving a
superposition can cancel components that evolving its parts separately
would not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimMismatch, Singular, ZeroState
from .gf2 import GF2Matrix, is_nonsingular, mat_apply, mat_mul, nth_set_bit
from .space import BasisFrame, SubsetKet, born, to_basis


@dataclass(frozen=True)
class Dynamics:
    """One time step of evolution: a square nonsingular GF(2) matrix."""

    matrix: GF2Matrix

    def __post_init__(self):
        if not self.matrix.is_square:
            raise DimMismatch("dynamics matrix must be square")
        if not is_nonsingular(self.matrix):
            raise Singular("dynamics must be nonsingular")

    @property
    def dim(self) -> int:
        return self.matrix.rows


@dataclass(frozen=True)
class SlitConfig:
    """A diaphragm state, its position basis, and the flight dynamics to the wall."""

    dynamics: Dynamics
    position_frame: BasisFrame
    slit_state: SubsetKet

    def __post_init__(self):
        if self.dynamics.dim != self.position_frame.dim:
            raise DimMismatch("dynamics and position frame dimensions differ")
        if self.slit_state.bits.length != self.dynamics.dim:
            raise DimMismatch("slit state dimension differs from dynamics")
        if self.slit_state.is_zero:
            raise ZeroState("slit state must be nonzero")


def evolve(d: Dynamics, s: SubsetKet) -> SubsetKet:
    """Apply the dynamics matrix; linear, so superpositions evolve by XOR of parts."""
    if d.dim != s.bits.length:
        raise DimMismatch("dynamics dimension differs from the state")
    return SubsetKet(s.universe, mat_apply(d.matrix, s.bits))


def evolved_frame(d: Dynamics, frame: BasisFrame) -> BasisFrame:
    """The frame whose basis kets are the images of the input frame's basis kets."""
    if d.dim != frame.dim:
        raise DimMismatch("dynamics dimension differs from the frame")
    return BasisFrame(
        frame.name + "'",
        tuple(x + "'" for x in frame.labels),
        mat_mul(d.matrix, frame.matrix),
    )


def interference_coefficients(
    s: SubsetKet, via: BasisFrame, target: BasisFrame
) -> dict[str, int]:
    """Coefficients of `s` (given in `via` coordinates) in the target frame.

    Each via-basis component is expanded in the target frame separately and
    the expansions are summed mod 2, which is where cancellation shows up.
    Agrees with converting the ket directly via to_basis.
    """
    if via.dim != target.dim or s.bits.length != via.dim:
        raise DimMismatch("frame dimensions do not agree")
    acc = 0
    for j in s.bits.indices():
        component = mat_apply(target._inverse, via.matrix.column(j))
        acc ^= component.bits
    return {label: (acc >> k) & 1 for k, label in enumerate(target.labels)}


def double_slit(cfg: SlitConfig, measure_at_slits: bool) -> dict[str, Fraction]:
    """Wall distribution for a particle leaving the diaphragm in the slit state.

    With measurement at the slits the state collapses to one position
    eigenstate before flying, so the wall distribution is the exact mixture
    over slit outcomes; without measurement the whole superposition evolves
    once and interference can cancel wall positions.
    """
    frame = cfg.position_frame
    if measure_at_slits:
        slit_probs = born(cfg.slit_state, frame)
        total = {label: Fraction(0) for label in frame.labels}
        for slit_label, p in slit_probs.items():
            if p == 0:
                continue
            flown = evolve(cfg.dynamics, frame.basis_ket(slit_label, cfg.slit_state.universe))
            for wall_label, q in born(flown, frame).items():
                total[wall_label] += p * q
        return total
    return born(evolve(cfg.dynamics, cfg.slit_state), frame)


def double_slit_sample(cfg: SlitConfig, measure_at_slits: bool, rng: random.Random) -> str:
    """One simulated run: returns the wall label where the particle lands."""
    frame = cfg.position_frame
    state = cfg.slit_state
    if measure_at_slits:
        state = frame.basis_ket(_draw(state, frame, rng), state.universe)
    return _draw(evolve(cfg.dynamics, state), frame, rng)


def _draw(s: SubsetKet, frame: BasisFrame, rng: random.Random) -> str:
    """A Born-rule draw: the frame label of a uniform pick from the support of `s` in `frame`."""
    bits = to_basis(s, frame).bits
    return frame.labels[nth_set_bit(bits.bits, rng.randrange(bits.weight()))]
