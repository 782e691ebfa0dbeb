"""Global parameters shared by every module.

A :class:`Context` fixes the prime p, the level m, the number of
coordinates r, and the truncation bounds used by the few genuinely
infinite computations (everything else is exact).
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
    # max total tau-degree retained; defaults to p^(m+1) * theta_trunc so that
    # every gamma/Phi value used below theta_trunc is exactly representable
    tau_trunc: int | None = None
    theta_trunc: int = 3
    deg_bound: int = 0  # 0 = "pick per call"; max total t-degree in linear solves

    def __post_init__(self):
        for name in ("p", "m", "r", "tau_trunc", "theta_trunc", "deg_bound"):
            value = getattr(self, name)
            if not (is_int(value) or name == "tau_trunc" and value is None):
                raise ValueError(f"{name}={value!r} is not an integer")
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {self.p} (supported: {SUPPORTED_PRIMES})")
        if not 0 <= self.m <= MAX_LEVEL:
            raise ValueError(f"level m={self.m} out of range 0..{MAX_LEVEL}")
        if not 1 <= self.r <= MAX_COORDS:
            raise ValueError(f"r={self.r} out of range 1..{MAX_COORDS}")
        if self.theta_trunc < 1:
            raise ValueError("theta_trunc must be positive")
        if self.tau_trunc is None:
            object.__setattr__(self, "tau_trunc", self.pm1 * self.theta_trunc)
        if self.tau_trunc < self.pm1 * self.theta_trunc:
            raise ValueError("tau_trunc must be >= p^(m+1) * theta_trunc")
        if self.deg_bound < 0:
            raise ValueError("deg_bound must be >= 0")

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
        """Same parameters at a different level (used by level/descent maps),
        with the default tau_trunc of that level."""
        return Context(self.p, m, self.r, theta_trunc=self.theta_trunc,
                       deg_bound=self.deg_bound)

    def solve_bound(self) -> int:
        return self.deg_bound if self.deg_bound else 3 * self.pm1
