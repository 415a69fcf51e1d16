"""Nonsingular state evolution, interference by cancellation, and the two-slit setup.

Evolution is any invertible GF(2) matrix. It preserves brackets relative
to the evolved basis, and because addition is mod 2, evolving a
superposition can cancel components that evolving its parts separately
would not.
"""

from __future__ import annotations

import random
from dataclasses import field
from fractions import Fraction

from ._record import record
from .errors import DimMismatch, ZeroState
from .gf2 import BitVec, GF2Matrix, _expect, _random_set_bit, _row_sum, mat_apply, mat_mul
from .space import BasisFrame, SubsetKet, Universe, _preimages, born, to_basis


@record
class Dynamics:
    """One time step of evolution: a square nonsingular GF(2) matrix.

    Row j of `_preimages` is the ket that evolves to the singleton {u_j}.
    """

    matrix: GF2Matrix
    _preimages: GF2Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_preimages", _preimages(self.matrix, "dynamics"))

    @property
    def dim(self) -> int:
        return self.matrix.rows


@record
class SlitConfig:
    """A diaphragm state, its position basis, and the flight dynamics to the wall."""

    dynamics: Dynamics
    position_frame: BasisFrame
    slit_state: SubsetKet

    def __post_init__(self):
        _expect(Dynamics, self.dynamics)
        _expect(BasisFrame, self.position_frame)
        _expect(SubsetKet, self.slit_state)
        if self.dynamics.dim != self.position_frame.dim:
            raise DimMismatch("dynamics and position frame dimensions differ")
        if self.slit_state.bits.length != self.dynamics.dim:
            raise DimMismatch("slit state dimension differs from dynamics")
        if self.slit_state.is_zero:
            raise ZeroState("slit state must be nonzero")


def evolve(d: Dynamics, s: SubsetKet) -> SubsetKet:
    """Apply the dynamics matrix; linear, so superpositions evolve by XOR of parts."""
    _expect(Dynamics, d)
    _expect(SubsetKet, s)
    if d.dim != s.bits.length:
        raise DimMismatch("dynamics dimension differs from the state")
    return SubsetKet(s.universe, mat_apply(d.matrix, s.bits))


def evolved_frame(d: Dynamics, frame: BasisFrame) -> BasisFrame:
    """The frame whose basis kets are the images of the input frame's basis kets.

    Its matrix is D*F. The singleton {u_j} is the image of its preimage,
    so its expansion in the evolved frame is the preimage's expansion in
    `frame`: row j of D^-T F^-T, one product of what both inputs keep,
    with no elimination.
    """
    _expect(Dynamics, d)
    _expect(BasisFrame, frame)
    if d.dim != frame.dim:
        raise DimMismatch("dynamics dimension differs from the frame")
    labels = tuple(x + "'" for x in frame.labels)
    return BasisFrame._derived(
        frame.name + "'",
        labels,
        mat_mul(d.matrix, frame.matrix),
        Universe(labels),
        mat_mul(d._preimages, frame._expansions),
    )


def interference_coefficients(
    s: SubsetKet, via: BasisFrame, target: BasisFrame
) -> dict[str, int]:
    """Coefficients of `s` (given in `via` coordinates) in the target frame.

    Expanding each via-basis component in the target frame and summing
    the expansions mod 2 is linear, so it is one change of coordinates:
    `s` to canonical coordinates, then the XOR of the target expansions
    of the singletons it holds, where the cancellation happens. Agrees
    with converting the ket directly via to_basis.
    """
    _expect(SubsetKet, s)
    _expect(BasisFrame, via, target)
    if via.dim != target.dim or s.bits.length != via.dim:
        raise DimMismatch("frame dimensions do not agree")
    coords = _row_sum(target._expansions.row_bits, mat_apply(via.matrix, s.bits).bits)
    return dict(zip(target.labels, BitVec._derived(target.dim, coords).coords()))


def double_slit(cfg: SlitConfig, measure_at_slits: bool) -> dict[str, Fraction]:
    """Wall distribution for a particle leaving the diaphragm in the slit state.

    With measurement at the slits the state collapses to one position
    eigenstate before flying, so the wall distribution is the exact mixture
    over slit outcomes; without measurement the whole superposition evolves
    once and interference can cancel wall positions.
    """
    _expect(SlitConfig, cfg)
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
    _expect(SlitConfig, cfg)
    frame = cfg.position_frame
    state = cfg.slit_state
    if measure_at_slits:
        state = frame.basis_ket(_draw(state, frame, rng), state.universe)
    return _draw(evolve(cfg.dynamics, state), frame, rng)


def _draw(s: SubsetKet, frame: BasisFrame, rng: random.Random) -> str:
    """A Born-rule draw: the frame label of a uniform pick from the support of `s` in `frame`."""
    return frame.labels[_random_set_bit(to_basis(s, frame).bits.bits, rng)]
