"""Sieved arithmetic functions and Chebyshev-type prime counting in progressions.

Everything downstream consumes the read-only tables sieved here, each up to
the bound its readers index: von Mangoldt Lambda alone (von_mangoldt), read
up to a length N or x, and the ArithTables of Mobius mu and Euler totient
phi, read at moduli such as q, y and lcm(y, q).  Sums written "n < N" are
implemented strictly (1 <= n < N) throughout the package.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Hard ceiling on table entries unless PRIMEAVG_MEMORY_CAP overrides it.
DEFAULT_MEMORY_CAP = 200_000_000
# The paper's exponent J: the arc near 0 reaches (log N)^J / N, the Siegel-Walfisz range y <= (log x)^J.
ARC_J = 2

_TABLE_CACHE: dict[int, "ArithTables"] = {}
_LAMBDA_CACHE: dict[int, np.ndarray] = {}


def memory_cap() -> int:
    raw = os.environ.get("PRIMEAVG_MEMORY_CAP", str(DEFAULT_MEMORY_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PRIMEAVG_MEMORY_CAP must be an integer, got {raw!r}") from None


def default_residue(y: int) -> int:
    """The residue b taken when none is given: 0 for y = 1, else 1."""
    return 0 if y == 1 else 1


@dataclass(frozen=True)
class Progression:
    """Residue class b mod y with gcd(b, y) = 1."""

    y: int
    b: int

    def __post_init__(self):
        if self.y < 1:
            raise ValueError(f"spacing y must be positive, got {self.y}")
        if not 0 <= self.b < self.y:
            raise ValueError(f"residue b={self.b} out of range [0, {self.y})")
        if math.gcd(self.b, self.y) != 1:
            raise ValueError(f"gcd(b, y) must be 1, got b={self.b}, y={self.y}")

    @property
    def start(self) -> int:
        """The least member n >= 1 of the progression: b, or y at b = 0."""
        return self.b or self.y

    def indices(self, stop: int) -> np.ndarray:
        """The members 1 <= n < stop of the progression, in increasing order."""
        return np.arange(self.start, stop, self.y, dtype=np.int64)


@dataclass(frozen=True)
class ArithTables:
    """Arrays indexed 0..bound (inclusive)."""

    bound: int
    mobius: np.ndarray        # int8, values in {-1, 0, 1}
    totient: np.ndarray       # int64


def build_tables(bound: int) -> ArithTables:
    """Sieve mu and phi up to bound (inclusive), cached as _cached describes."""
    return _cached(_TABLE_CACHE, bound, _sieve, lambda t, b: ArithTables(b, t.mobius[: b + 1], t.totient[: b + 1]))


def von_mangoldt(bound: int) -> np.ndarray:
    """Lambda(n) in natural-log units for 0 <= n <= bound, read-only float64, cached as _cached describes."""
    return _cached(_LAMBDA_CACHE, bound, _lambda_sieve, lambda lam, b: lam[: b + 1])


def phi(y: int) -> int:
    """Euler's phi(y), from the cached mu/phi sieve."""
    return int(build_tables(y).totient[y])


def _cached(cache: dict, bound: int, sieve, prefix):
    """sieve(bound), deterministic and exact, cached by bound, which is floored at 2.

    The cache holds one copy: a bound below the largest sieved so far gets
    prefix(largest, bound), read-only slices of that table, and sieving a
    larger bound re-points every smaller entry at slices of the new one.  A
    slice equals a fresh sieve, since the sieve is exact.
    """
    bound = max(bound, 2)
    if bound + 1 > memory_cap():
        raise ValueError(f"bound {bound} exceeds memory cap")
    cached = cache.get(bound)
    if cached is not None:
        return cached
    top = max(cache, default=0)
    if top > bound:
        cache[bound] = prefix(cache[top], bound)
        return cache[bound]
    table = sieve(bound)
    for smaller in cache:
        cache[smaller] = prefix(table, smaller)
    cache[bound] = table
    return table


def _primes(n: int) -> tuple[np.ndarray, int]:
    """The primes up to n by Eratosthenes over p <= sqrt(n), and how many of them are <= sqrt(n)."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    root = math.isqrt(n)
    for p in range(2, root + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    return primes, int(np.searchsorted(primes, root, side="right"))


def _lambda_sieve(n: int) -> np.ndarray:
    """Lambda up to n: log p on every power of a prime p <= sqrt(n), and on each larger prime."""
    primes, split = _primes(n)
    lam = np.zeros(n + 1, dtype=np.float64)
    for p in primes[:split].tolist():
        logp = math.log(p)
        pk = p
        while pk <= n:
            lam[pk] = logp
            pk *= p
    large = primes[split:]
    lam[large] = np.fromiter(map(math.log, large), np.float64, len(large))  # bit for bit as math.log(p) above
    lam.setflags(write=False)
    return lam


def _sieve(n: int) -> ArithTables:
    """mu and phi up to n, sieving in Python only over the primes p <= sqrt(n).

    Each small prime updates mu and phi on its multiples.  A k <= n has at
    most one prime factor P above sqrt(n), so the large primes are applied
    in one vector step per cofactor m = k / P < sqrt(n), with temporaries no
    longer than the list of primes.  phi stays exact in int64 whatever the
    order of the primes.
    """
    primes, split = _primes(n)
    mobius = np.ones(n + 1, dtype=np.int8)
    mobius[0] = 0
    totient = np.arange(n + 1, dtype=np.int64)
    for p in primes[:split].tolist():
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
        totient[p::p] -= totient[p::p] // p
    # k = m P with P a prime above sqrt(n) and m < P: one pass per cofactor m
    large = primes[split:]
    for m in range(1, n // int(large[0]) + 1):
        P = large[: np.searchsorted(large, n // m, side="right")]
        k = m * P
        mobius[k] *= -1
        totient[k] -= totient[k] // P

    for arr in (mobius, totient):
        arr.setflags(write=False)
    return ArithTables(bound=n, mobius=mobius, totient=totient)


def reduced_residues(q: int) -> np.ndarray:
    """The set A_q = {a in [0, q) : gcd(a, q) = 1}; A_1 = {0}."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return np.array([0], dtype=np.int64)
    a = np.arange(q, dtype=np.int64)
    return a[np.gcd(a, q) == 1]


def psi_progression(x: int, prog: Progression) -> float:
    """Sum of Lambda(n) over n < x with n = b mod y (strict upper limit)."""
    return float(von_mangoldt(x)[prog.start : x : prog.y].sum())


def sw_error_report(x_grid: list[int], prog: Progression) -> list[dict]:
    """Relative error of Psi(x, y, b) against the main term x/phi(y).

    Rows carry (x, psi, main_term, rel_error) with
    rel_error = |Psi - x/phi(y)| * phi(y) / x.  Trend data only; no bound is
    asserted (the underlying estimate is ineffective).
    """
    if not x_grid:
        raise ValueError("empty x grid")
    if min(x_grid) < 1:
        raise ValueError(f"x must be >= 1, got {min(x_grid)}")
    von_mangoldt(max(x_grid))  # one sieve; every psi reads a view of it
    phi_y = phi(prog.y)
    rows = []
    for x in x_grid:
        bound = math.log(max(x, 3)) ** ARC_J
        if prog.y > bound:
            warnings.warn(f"y={prog.y} exceeds (log x)^J = {bound:.3g} at x={x}", stacklevel=2)
        psi = psi_progression(x, prog)
        main = x / phi_y
        rows.append(
            {
                "x": x,
                "psi": psi,
                "main_term": main,
                "rel_error": abs(psi - main) * phi_y / x,
            }
        )
    return rows
