"""Exact nonarchimedean orbital-integral calculus for PGL2 at small odd primes.

The package computes Schwartz-Bruhat functions and their Fourier transforms on
Q_p and its unramified quadratic extension, the singular-germ models of the
torus-quotient and Kuznetsov orbital-integral spaces, the integral transform
|.|G = |.| F iota F between them, and verifies the matching isomorphism and the
Hecke fundamental lemma numerically by two independent computational paths.
"""

from .localfield import LocalFieldCtx, QuadExt
from .bruhat import BruhatFn, MellinCharacter, fourier, fourier_E, gamma_factor, tate_zeta
from .groups import GroupElt, HeckeElt, KSection
from .spaces import SWElem, SXElem, SZElem, g_transform_SX, g_transform_Z_to_W
from .orbital import (
    basic_fW0,
    basic_fW0_elem,
    basic_fZ0,
    hecke_apply_W,
    hecke_apply_W_elem,
    hecke_apply_Z,
    kloosterman,
    o_baby_nonsplit,
    o_baby_split,
    o_kuz_closed,
    o_kuz_direct,
    o_torus_group,
    sz_from_charts,
    verify_fl,
    verify_matching,
)

__all__ = [
    "LocalFieldCtx", "QuadExt",
    "BruhatFn", "MellinCharacter", "fourier", "fourier_E", "gamma_factor", "tate_zeta",
    "GroupElt", "HeckeElt", "KSection",
    "SXElem", "SZElem", "SWElem", "g_transform_SX", "g_transform_Z_to_W",
    "basic_fZ0", "basic_fW0", "basic_fW0_elem",
    "hecke_apply_Z", "hecke_apply_W", "hecke_apply_W_elem",
    "kloosterman", "o_baby_split", "o_baby_nonsplit",
    "o_kuz_closed", "o_kuz_direct", "o_torus_group",
    "sz_from_charts", "verify_fl", "verify_matching",
]

__version__ = "0.1.0"
