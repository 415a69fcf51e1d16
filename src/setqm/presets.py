"""Ready-made universes, frames, states, and dynamics used by the demos and CLI."""

from __future__ import annotations

from .dynamics import Dynamics, SlitConfig
from .entangle import ProductState, ProductUniverse, bell_basis_frames
from .gf2 import GF2Matrix
from .space import BasisFrame, Universe


def universe_abc() -> Universe:
    return Universe(("a", "b", "c"))


def universe_ab() -> Universe:
    return Universe(("a", "b"))


def frames_abc() -> tuple[BasisFrame, BasisFrame, BasisFrame]:
    """The canonical three-element basis and the two alternative bases it overlaps.

    The primed basis kets are {a,b}, {b,c}, {a,b,c}; the double-primed ones
    are {a}, {a,b}, {a,c}.
    """
    u = universe_abc().canonical_frame()
    u1 = BasisFrame(
        "U'",
        ("a'", "b'", "c'"),
        GF2Matrix.from_rows([[1, 0, 1], [1, 1, 1], [0, 1, 1]]),
    )
    u2 = BasisFrame(
        "U''",
        ("a''", "b''", "c''"),
        GF2Matrix.from_rows([[1, 1, 1], [0, 1, 0], [0, 0, 1]]),
    )
    return u, u1, u2


def frames_ab() -> tuple[BasisFrame, BasisFrame, BasisFrame]:
    """The three bases of the two-element universe."""
    return bell_basis_frames(universe_ab())


def double_slit_setup() -> SlitConfig:
    """Three vertical positions, slits at a and c, one-period flight to the wall."""
    universe = universe_abc()
    dynamics = Dynamics(GF2Matrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    return SlitConfig(dynamics, universe.canonical_frame(), universe.subset(["a", "c"]))


def pair_space() -> ProductUniverse:
    u = universe_ab()
    return ProductUniverse(u, u)


def bell_state() -> ProductState:
    """The graph of the identity bijection: {(a,a),(b,b)}."""
    return pair_space().state([("a", "a"), ("b", "b")])


def other_bell_state() -> ProductState:
    """The graph of the swap bijection: {(a,b),(b,a)}."""
    return pair_space().state([("a", "b"), ("b", "a")])
