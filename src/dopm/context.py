"""Global parameters shared by every module.

A :class:`Context` is the ring D^(m) on affine r-space over F_p: the
prime p, the level m and the number of coordinates r.  Each other
setting is an argument of the call that reads it: the t-degree of a
solve and the theta-degree cut of `frobenius.phi_tilde` (default 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .poly import is_int

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_LEVEL = 3
MAX_COORDS = 3


@dataclass(frozen=True)
class Context:
    p: int
    m: int
    r: int = 1
    theta_trunc: ClassVar[int] = 3

    def __post_init__(self):
        for name in ("p", "m", "r"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name}={value!r} is not an integer")
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {self.p} (supported: {SUPPORTED_PRIMES})")
        if not 0 <= self.m <= MAX_LEVEL:
            raise ValueError(f"level m={self.m} out of range 0..{MAX_LEVEL}")
        if not 1 <= self.r <= MAX_COORDS:
            raise ValueError(f"r={self.r} out of range 1..{MAX_COORDS}")

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
