"""Exact arithmetic in F_p and its quadratic extension F_{p^2}.

Elements are stored in an encoded integer form ``a0 + a1*p`` with
``0 <= a0, a1 < p`` (so a plain F_p residue encodes as itself).  The context
object owns all arithmetic on encoded values; :class:`FieldElement` is a thin
operator-overloading wrapper used at API boundaries.  Polynomial code works
on encoded integers directly for speed.  A point of F_{p^2}^n, as
:func:`sample_point` draws it, is an (n, 2) int64 array of (a0, a1) pairs;
:func:`elements` reads such arrays back as field elements.
"""

from __future__ import annotations

import functools
import random

import numpy as np

__all__ = [
    "FieldCtx",
    "FieldElement",
    "make_field",
    "sample_point",
    "elements",
    "SamplingError",
]

# Desk-scale cap: with p <= 101 all intermediate integer products fit
# comfortably in 64 bits.
MAX_PRIME = 101


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldCtx:
    """Field context for F_p (ext_degree=1) or F_{p^2} = F_p[g]/(g^2 - nonresidue)."""

    __slots__ = ("p", "ext_degree", "nonresidue", "order", "_inv_table")

    def __init__(self, p: int, ext_degree: int = 1):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p < 3:
            raise ValueError("p must be an odd prime >= 3")
        if p > MAX_PRIME:
            raise ValueError(f"p={p} exceeds the desk-scale cap {MAX_PRIME}")
        if ext_degree not in (1, 2):
            raise ValueError("ext_degree must be 1 or 2")
        self.p = p
        self.ext_degree = ext_degree
        self.order = p**ext_degree
        if ext_degree == 2:
            self.nonresidue = self._smallest_nonresidue(p)
        else:
            self.nonresidue = None
        # inverse table of F_p^x, used by encoded inversion and numpy kernels
        self._inv_table = [0] * p
        for x in range(1, p):
            self._inv_table[x] = pow(x, p - 2, p)

    @staticmethod
    def _smallest_nonresidue(p: int) -> int:
        for g in range(2, p):
            if pow(g, (p - 1) // 2, p) == p - 1:  # Euler criterion
                return g
        raise ValueError(f"no quadratic nonresidue mod {p}")  # unreachable for p>2

    # -- encoded arithmetic ------------------------------------------------

    def split(self, x: int) -> tuple[int, int]:
        """Encoded value -> (a0, a1)."""
        return x % self.p, x // self.p

    def encode(self, a0: int, a1: int = 0) -> int:
        if a1 % self.p and self.ext_degree == 1:
            raise ValueError("g-component in a prime-field context")
        return a0 % self.p + (a1 % self.p) * self.p

    def add(self, x: int, y: int) -> int:
        p = self.p
        if self.ext_degree == 1:
            return (x + y) % p
        return (x + y) % p + ((x // p + y // p) % p) * p

    def sub(self, x: int, y: int) -> int:
        p = self.p
        if self.ext_degree == 1:
            return (x - y) % p
        return (x - y) % p + ((x // p - y // p) % p) * p

    def neg(self, x: int) -> int:
        p = self.p
        if self.ext_degree == 1:
            return (-x) % p
        return (-x) % p + ((-(x // p)) % p) * p

    def mul(self, x: int, y: int) -> int:
        p = self.p
        if self.ext_degree == 1:
            return (x * y) % p
        a0, a1 = x % p, x // p
        b0, b1 = y % p, y // p
        return (a0 * b0 + self.nonresidue * a1 * b1) % p + ((a0 * b1 + a1 * b0) % p) * p

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.p
        if self.ext_degree == 1:
            return self._inv_table[x % p]
        a0, a1 = x % p, x // p
        # (a0 + a1 g)^-1 = (a0 - a1 g) / (a0^2 - delta a1^2)
        norm = (a0 * a0 - self.nonresidue * a1 * a1) % p
        ninv = self._inv_table[norm]
        return (a0 * ninv) % p + ((-a1 * ninv) % p) * p

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        if self.ext_degree == 1:
            return pow(x, e, self.p) if e else 1
        acc, base = 1, x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def in_prime_field(self, x: int) -> bool:
        return x // self.p == 0

    # -- element factories -------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, a0: int, a1: int = 0) -> "FieldElement":
        return FieldElement(self, self.encode(a0, a1))

    def gen(self) -> "FieldElement":
        """The extension generator g (requires ext_degree = 2)."""
        if self.ext_degree != 2:
            raise ValueError("no extension generator in a prime field")
        return FieldElement(self, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.ext_degree == other.ext_degree
        )

    def __hash__(self):
        return hash((self.p, self.ext_degree))

    def __repr__(self):
        if self.ext_degree == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, ext_degree=2, g^2={self.nonresidue})"


class FieldElement:
    """Element a0 + a1*g of a field context, in canonical form."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def a0(self) -> int:
        return self.val % self.ctx.p

    @property
    def a1(self) -> int:
        return self.val // self.ctx.p

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx.p != self.ctx.p:
                raise ValueError("field context mismatch")
            return other.val
        if isinstance(other, int):
            return other % self.ctx.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(self.val, self.ctx.inv(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return FieldElement(self.ctx, self.ctx.mul(v, self.ctx.inv(self.val)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow(self.val, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv(self.val))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx.p == other.ctx.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.ctx.p
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.val))

    def __bool__(self):
        return self.val != 0

    @property
    def in_prime_field(self) -> bool:
        return self.a1 == 0

    def __repr__(self):
        return str(self)

    def __str__(self):
        a0, a1 = self.a0, self.a1
        if a1 == 0:
            return str(a0)
        if a0 == 0:
            return f"{a1}*g" if a1 != 1 else "g"
        gpart = f"{a1}*g" if a1 != 1 else "g"
        return f"{a0}+{gpart}"


@functools.lru_cache(maxsize=None)
def make_field(p: int, ext_degree: int = 1) -> FieldCtx:
    """The field context for (p, ext_degree), one shared object per field;
    the nonresidue for ext_degree=2 is the smallest quadratic nonresidue
    mod p, so results are reproducible."""
    return FieldCtx(p, ext_degree)


@functools.lru_cache(maxsize=1 << 14)
def sample_point(ctx: FieldCtx, n: int, rng_seed: int, max_tries: int = 10000) -> np.ndarray:
    """Sample z in F_{p^2}^n with z_i - z_j outside F_p for all i < j, as a
    read-only (n, 2) int64 array of (a0, a1) pairs.

    Such points avoid every hyperplane z_i - z_j - m = 0 with m in F_p,
    which is exactly where the qKZ operators have poles or degenerate.
    Deterministic for a fixed seed; each point is drawn once per process
    and shared by every caller (a :class:`SamplingError` is not stored).
    The cache key holds ``ctx`` itself: pass the shared context of
    :func:`make_field`, and the arguments positionally, so that equal draws
    share one entry.
    """
    if ctx.ext_degree != 2:
        raise ValueError("nonsingular points require an extension-field context")
    if n < 1:
        raise ValueError("n must be positive")
    p = ctx.p
    rng = random.Random(rng_seed)
    for _ in range(max_tries):
        vals = [rng.randrange(p * p) for _ in range(n)]
        # z_i - z_j in F_p iff the g-components coincide
        if len({v // p for v in vals}) == n:
            z = np.array([ctx.split(v) for v in vals], dtype=np.int64)
            z.flags.writeable = False
            return z
    raise SamplingError(f"could not find a nonsingular point for p={p}, n={n}")


def elements(Z: np.ndarray, ctx: FieldCtx):
    """An array of (a0, a1) pairs (..., 2) as the field elements
    ``FieldElement(ctx, a0 + a1*p)``, unreduced: one element for a single
    pair, else nested lists in the array's shape."""
    vals = np.asarray(Z, dtype=np.int64)
    return _wrap((vals[..., 0] + vals[..., 1] * ctx.p).tolist(), ctx)


def _wrap(vals, ctx: FieldCtx):
    if isinstance(vals, int):
        return FieldElement(ctx, vals)
    return [_wrap(v, ctx) for v in vals]
