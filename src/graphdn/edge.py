"""Exact single-edge solutions of -u'' + kappa2 u = 0 and their flux blocks.

On an interval of length ``l`` with potential ``kappa2 = k^2 >= 0`` the
solutions form a two dimensional space.  The map from endpoint values
``(uA, uB)`` to outward endpoint derivatives (pointing away from the edge
interior) is the symmetric positive semidefinite block

    H = k * [[coth(k l), -csch(k l)], [-csch(k l), coth(k l)]]

with the k -> 0 limit ``(1/l) [[1, -1], [-1, 1]]``.  All hyperbolics are
evaluated through ``exp``/``expm1`` of nonpositive arguments, so deep-tree
products ``k*l`` of any size neither overflow nor cancel.  Branch thresholds
live in the two module constants below; the branches agree to better than
1e-12 at both crossovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "EdgeDNBlock",
    "EdgeSolution",
    "edge_dn_block",
    "edge_dn_blocks",
    "edge_energies",
    "edge_potential_weights",
    "solve_edge",
    "edge_energy",
]

SERIES_PRODUCT = 1e-6  # below this k*l: Taylor branch around the k=0 block
ASYMPTOTIC_PRODUCT = 350.0  # above this k*l: coth -> 1, csch -> 2 exp(-k l)


@dataclass(frozen=True)
class EdgeDNBlock:
    """Symmetric 2x2 block mapping endpoint values to outward derivatives."""

    h_aa: float
    h_ab: float
    h_ba: float
    h_bb: float

    def as_rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.h_aa, self.h_ab), (self.h_ba, self.h_bb))


def _edge_arrays(lengths, kappa2) -> tuple[np.ndarray, np.ndarray]:
    lengths, kappa2 = np.broadcast_arrays(
        np.asarray(lengths, dtype=float), np.asarray(kappa2, dtype=float)
    )
    bad = ~((lengths > 0.0) & np.isfinite(lengths))
    if bad.any():
        raise DomainError(f"edge length must be positive, got {lengths[bad].flat[0]}")
    bad = ~((kappa2 >= 0.0) & np.isfinite(kappa2))
    if bad.any():
        raise DomainError(f"potential must be nonnegative, got {kappa2[bad].flat[0]}")
    return lengths, kappa2


def edge_dn_blocks(lengths, kappa2) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form flux blocks of many edges: ``(diag, off)`` arrays.

    ``lengths`` and ``kappa2`` broadcast against each other.  Three branches
    on ``z = sqrt(kappa2) * length``: a Taylor expansion for tiny ``z``
    (continuous with the zero-potential block), the hyperbolic formula in
    the middle, and the flat asymptote for huge ``z``.
    """
    lengths, kappa2 = _edge_arrays(lengths, kappa2)
    kappa = np.sqrt(kappa2)
    z = kappa * lengths
    diag = np.empty(z.shape)
    off = np.empty(z.shape)
    series = z < SERIES_PRODUCT
    flat = z > ASYMPTOTIC_PRODUCT
    middle = ~(series | flat)
    if series.any():
        z2, length = z[series] * z[series], lengths[series]
        diag[series] = (1.0 + z2 / 3.0 - z2 * z2 / 45.0) / length
        off[series] = -(1.0 - z2 / 6.0 + 7.0 * z2 * z2 / 360.0) / length
    if flat.any():
        diag[flat] = kappa[flat]
        off[flat] = -2.0 * kappa[flat] * np.exp(-z[flat])
    if middle.any():
        k, zm = kappa[middle], z[middle]
        # coth z = (2 + E) / (-E), csch z = 2 exp(-z) / (-E), E = expm1(-2z) < 0.
        em = np.expm1(-2.0 * zm)
        diag[middle] = k * (-(2.0 + em) / em)
        off[middle] = -k * (-2.0 * np.exp(-zm) / em)
    return diag, off


def edge_potential_weights(lengths, kappa2) -> np.ndarray:
    """Potential integrals of many edges per unit endpoint sum.

    An edge solution has ``int kappa2 u = w (uA + uB)`` with
    ``w = diag + off = kappa tanh(z / 2)``, the sum of its outward endpoint
    derivatives per unit value.  ``w`` is evaluated directly, not as that
    sum, which cancels for small ``z``: below ``SERIES_PRODUCT`` as
    ``kappa2 l (1 - z**2 / 12) / 2``, exactly 0 without a potential.
    """
    lengths, kappa2 = _edge_arrays(lengths, kappa2)
    kappa = np.sqrt(kappa2)
    z = kappa * lengths
    series = kappa2 * lengths * (1.0 - z * z / 12.0) / 2.0
    return np.where(z < SERIES_PRODUCT, series, kappa * np.tanh(z / 2.0))


def edge_energies(lengths, kappa2, value_a, value_b) -> np.ndarray:
    """Energies ``int (u')^2 + kappa2 u^2`` of many edge solutions.

    Each edge solution is pinned by its endpoint values ``(value_a,
    value_b)``; all four arguments broadcast.  Uses the cancellation-free
    regrouping

        1/2 * [ (uA - uB)^2 k coth(k l / 2) + (uA + uB)^2 k tanh(k l / 2) ]

    whose two terms are individually nonnegative.  ``k tanh`` is
    :func:`edge_potential_weights`; ``k coth(z / 2)`` is
    ``k (2 + E) / (-E)`` with ``E = expm1(-z)``, and below
    ``SERIES_PRODUCT`` its Taylor form ``(2 + z**2 / 6) / l``.  Neither is
    read off the flux block, so the energy checks that block independently.
    """
    lengths, kappa2 = _edge_arrays(lengths, kappa2)
    kappa = np.sqrt(kappa2)
    z = kappa * lengths
    across = np.empty(z.shape)
    series = z < SERIES_PRODUCT
    hyper = ~series
    across[series] = (2.0 + z[series] * z[series] / 6.0) / lengths[series]
    em = np.expm1(-z[hyper])
    across[hyper] = kappa[hyper] * (-(2.0 + em) / em)
    along = edge_potential_weights(lengths, kappa2)
    value_a = np.asarray(value_a, dtype=float)
    value_b = np.asarray(value_b, dtype=float)
    return 0.5 * (
        (value_a - value_b) ** 2 * across + (value_a + value_b) ** 2 * along
    )


def edge_dn_block(length: float, kappa2: float) -> EdgeDNBlock:
    """Closed-form flux block of one edge; see :func:`edge_dn_blocks`."""
    diag, off = edge_dn_blocks(length, kappa2)
    diag, off = float(diag), float(off)
    return EdgeDNBlock(h_aa=diag, h_ab=off, h_ba=off, h_bb=diag)


@dataclass(frozen=True)
class EdgeSolution:
    """One edge solution, pinned by its endpoint values.

    ``(c0, c1)`` are the coefficients in the basis
    ``{cosh(k x), sinh(k x)/k}`` (``{1, x}`` at ``k = 0``), i.e. the value
    and derivative at endpoint a.  Evaluation uses the endpoint
    interpolation form, which is stable for any ``k * length``.
    """

    length: float
    kappa2: float
    value_a: float
    value_b: float
    c0: float
    c1: float

    def _check_x(self, x: float) -> None:
        if not (0.0 <= x <= self.length):
            raise DomainError(f"coordinate {x} outside [0, {self.length}]")

    def __call__(self, x: float) -> float:
        self._check_x(x)
        kappa = math.sqrt(self.kappa2)
        if kappa == 0.0:
            return self.value_a + (self.value_b - self.value_a) * x / self.length
        denom = math.expm1(-2.0 * kappa * self.length)
        w_a = math.exp(-kappa * x) * math.expm1(-2.0 * kappa * (self.length - x))
        w_b = math.exp(-kappa * (self.length - x)) * math.expm1(-2.0 * kappa * x)
        return (self.value_a * w_a + self.value_b * w_b) / denom

    def derivative(self, x: float) -> float:
        """Derivative in the a-to-b coordinate."""
        self._check_x(x)
        kappa = math.sqrt(self.kappa2)
        if kappa == 0.0:
            return (self.value_b - self.value_a) / self.length
        denom = -math.expm1(-2.0 * kappa * self.length)
        v_a = (
            kappa
            * math.exp(-kappa * x)
            * (1.0 + math.exp(-2.0 * kappa * (self.length - x)))
            / denom
        )
        v_b = (
            kappa
            * math.exp(-kappa * (self.length - x))
            * (1.0 + math.exp(-2.0 * kappa * x))
            / denom
        )
        return -self.value_a * v_a + self.value_b * v_b

    def interior_extremum(self) -> tuple[float, float] | None:
        """Location and value of the single interior critical point, if any.

        Zero-potential solutions are linear and have none; hyperbolic
        solutions have at most one, at ``tanh(k x) = -c1/(k c0)``.
        """
        kappa = math.sqrt(self.kappa2)
        if kappa == 0.0 or self.c0 == 0.0:
            return None
        t = -self.c1 / (kappa * self.c0)
        if not (0.0 < t < math.tanh(kappa * self.length)):
            return None
        x_star = math.atanh(t) / kappa
        w = kappa * x_star
        value = 2.0 * self.c0 * math.exp(-w) / (1.0 + math.exp(-2.0 * w))
        return x_star, value


def solve_edge(
    length: float, kappa2: float, value_a: float, value_b: float
) -> EdgeSolution:
    """The unique edge solution with the given endpoint values."""
    block = edge_dn_block(length, kappa2)
    # c1 = u'(0) is minus the outward derivative at a.
    c1 = -(block.h_aa * value_a + block.h_ab * value_b)
    return EdgeSolution(
        length=length,
        kappa2=kappa2,
        value_a=value_a,
        value_b=value_b,
        c0=value_a,
        c1=c1,
    )


def edge_energy(s: EdgeSolution) -> float:
    """Closed-form value of ``int (u')^2 + kappa2 u^2`` over the edge.

    One edge of :func:`edge_energies`.
    """
    return float(edge_energies(s.length, s.kappa2, s.value_a, s.value_b))
