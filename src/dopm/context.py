"""Global parameters shared by every module.

A :class:`Context` fixes the prime p, the level m, the number of
coordinates r, and theta_trunc, the one Frobenius window (see
`frobenius.phi_basis`).  The t-degree of an invariants solve is an
argument of the solve (`simpson.solve_invariants`), not of the ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import is_int

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_LEVEL = 3
MAX_COORDS = 3


@dataclass(frozen=True)
class Context:
    p: int
    m: int
    r: int = 1
    theta_trunc: int = 3

    def __post_init__(self):
        for name in ("p", "m", "r", "theta_trunc"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name}={value!r} is not an integer")
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {self.p} (supported: {SUPPORTED_PRIMES})")
        if not 0 <= self.m <= MAX_LEVEL:
            raise ValueError(f"level m={self.m} out of range 0..{MAX_LEVEL}")
        if not 1 <= self.r <= MAX_COORDS:
            raise ValueError(f"r={self.r} out of range 1..{MAX_COORDS}")
        if self.theta_trunc < 1:
            raise ValueError("theta_trunc must be positive")

    @property
    def pm(self) -> int:
        """p^m, the level grain: every divided exponent is measured against it."""
        return self.p**self.m

    @property
    def pm1(self) -> int:
        """p^(m+1), the order of the curvature generators."""
        return self.p ** (self.m + 1)

    @property
    def mod2(self) -> int:
        return self.p * self.p

    def at_level(self, m: int) -> "Context":
        """Same parameters at a different level (level/descent maps)."""
        return Context(self.p, m, self.r, theta_trunc=self.theta_trunc)
