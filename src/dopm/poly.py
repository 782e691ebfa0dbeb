"""Sparse multivariate polynomials with exact or modular coefficients.

`mod=None` means exact arithmetic over Z (or Fraction, duck-typed);
otherwise coefficients live in Z/mod.  `var` is a variable-family tag
("t", "t'", "xi'", ...): mixing families is a bug, not a coercion, and
arithmetic asserts it.
"""

from __future__ import annotations

from operator import add


class MalformedInput(ValueError):
    """Input data of the wrong shape or arity (the CLI exits 2)."""


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def poly_from_json(entries, nvars: int, mod, var: str = "t",
                   what: str = "polynomial") -> "Poly":
    """A polynomial from its JSON form: a list of [exponent, coefficient]
    pairs, each exponent nvars non-negative integers and each coefficient
    an integer.  Raises MalformedInput for anything else."""
    if not isinstance(entries, list) or any(
            not isinstance(t, list) or len(t) != 2
            or not isinstance(t[0], list) or len(t[0]) != nvars
            or not all(is_int(x) and x >= 0 for x in t[0])
            or not is_int(t[1]) for t in entries):
        raise MalformedInput(
            f"{what} {entries!r} is not a list of "
            f"[exponent of length {nvars}, integer] pairs")
    return Poly({tuple(e): c for e, c in entries}, nvars, mod, var)


def poly_to_json(f: "Poly") -> list:
    """The JSON form `poly_from_json` reads, in sorted order."""
    return sorted([list(e), c] for e, c in f.coeffs.items())


# -- coefficient dicts ------------------------------------------------------
#
# The hot loops work on bare {exponent tuple: coefficient} dicts: they
# multiply-accumulate without reducing and drop zeros once, at the end.

def mac(acc: dict, f: dict, g: dict, c=1) -> None:
    """acc += c * f * g on coefficient dicts, unreduced."""
    for e1, c1 in f.items():
        c1 *= c
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2


def reduced(acc: dict, mod) -> dict:
    """acc with every value reduced mod `mod` (None: left as is) and the
    zeros dropped: the coefficients `Poly._trusted` expects."""
    if mod is None:
        return {e: c for e, c in acc.items() if c}
    out = {}
    for e, c in acc.items():
        c %= mod
        if c:
            out[e] = c
    return out


class Poly:
    __slots__ = ("coeffs", "nvars", "mod", "var")

    def __init__(self, coeffs, nvars: int, mod=None, var: str = "t"):
        self.nvars = nvars
        self.mod = mod
        self.var = var
        clean = {}
        for e, c in coeffs.items():
            if mod is not None:
                c %= mod
            if c:
                clean[tuple(e)] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict, nvars: int, mod, var: str = "t"):
        """Wrap `coeffs` as it is: its keys must be exponent tuples and
        its values already reduced and nonzero (see `reduced`)."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.nvars = nvars
        self.mod = mod
        self.var = var
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars, mod=None, var="t"):
        return cls({}, nvars, mod, var)

    @classmethod
    def const(cls, c, nvars, mod=None, var="t"):
        return cls({(0,) * nvars: c}, nvars, mod, var)

    @classmethod
    def one(cls, nvars, mod=None, var="t"):
        return cls.const(1, nvars, mod, var)

    @classmethod
    def monomial(cls, exps, c, nvars, mod=None, var="t"):
        return cls({tuple(exps): c}, nvars, mod, var)

    @classmethod
    def variable(cls, i, nvars, mod=None, var="t"):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({e: 1}, nvars, mod, var)

    # -- basics -------------------------------------------------------------

    def _check(self, other: "Poly"):
        assert self.nvars == other.nvars and self.mod == other.mod \
            and self.var == other.var, \
            f"incompatible polynomials: {self.var}/{self.nvars}/{self.mod} vs " \
            f"{other.var}/{other.nvars}/{other.mod}"

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars, self.mod, self.var, self.coeffs) == \
            (other.nvars, other.mod, other.var, other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e), reverse=True):
            c = self.coeffs[e]
            mono = "*".join(f"{self.var}{i+1}" + (f"^{x}" if x > 1 else "")
                            for i, x in enumerate(e) if x)
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        mod = self.mod
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if mod is not None:
                c %= mod
            if c:
                out[e] = c
            else:
                out.pop(e, None)
        return Poly._trusted(out, self.nvars, mod, self.var)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product with a Poly of the same family, or with an int
        scalar; any other operand is not ours to multiply by."""
        if isinstance(other, Poly):
            self._check(other)
            out = {}
            mac(out, self.coeffs, other.coeffs)
            return Poly._trusted(reduced(out, self.mod), self.nvars,
                                 self.mod, self.var)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c):
        return Poly._trusted(
            reduced({e: c * v for e, v in self.coeffs.items()}, self.mod),
            self.nvars, self.mod, self.var)

    # -- structure ----------------------------------------------------------

    def max_exps(self):
        out = [0] * self.nvars
        for e in self.coeffs:
            for i, x in enumerate(e):
                if x > out[i]:
                    out[i] = x
        return tuple(out)

    def derivative(self, i: int) -> "Poly":
        """Plain d/dx_i (not a divided derivative)."""
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = out.get(e2, 0) + c * e[i]
        return Poly(out, self.nvars, self.mod, self.var)

    def scale_exponents(self, s: int, var=None) -> "Poly":
        """Substitute x_i -> x_i^s (exponent dilation); optional retag."""
        return Poly({tuple(x * s for x in e): c for e, c in self.coeffs.items()},
                    self.nvars, self.mod, var if var is not None else self.var)

    def divide_exponents(self, s: int, var=None) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            if any(x % s for x in e):
                raise ValueError(f"exponent {e} not divisible by {s}")
            out[tuple(x // s for x in e)] = c
        return Poly(out, self.nvars, self.mod, var if var is not None else self.var)

    def reduce(self, mod: int) -> "Poly":
        assert self.mod is None or self.mod % mod == 0
        return Poly(self.coeffs, self.nvars, mod, self.var)
