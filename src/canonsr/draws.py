"""The random draws of a run, as numpy's Generator makes them, without its call cost.

`Draws(seed)` gives the same values as `numpy.random.default_rng(seed)` for
the calls canonsr makes, in a few Python operations instead of a full
Generator call.  It reads the PCG64 raw stream and repeats numpy's C code:

- bounded integers use Lemire's method on 32-bit words ("Fast random integer
  generation in an interval", ACM TOMACS 2019).  A raw word gives its low
  half first and keeps the high half for the next 32-bit draw, as PCG64's
  `next_uint32` does.  Tree growth and tournaments call this draw as
  `below(n)`, without `integers`' checks (through `below_of`);
- `choice(n, size=k, replace=False)` is Floyd's algorithm, then a shuffle
  with the same bounded integers (`floyd_sample`);
- doubles are `(raw >> 11) * 2**-53`, one whole word each.

Fronts therefore depend only on the PCG64 raw stream, which numpy keeps
stable across versions.  A call outside this subset raises instead of
drawing something else.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

_LOW32 = 0xFFFFFFFF
_WORD = 1 << 32
_DOUBLE = 1.0 / 9007199254740992.0     # 2**-53
_FLOYD_MAX = 10000                      # larger samples take another numpy path


class Draws:
    """`numpy.random.default_rng(seed)`, draw for draw, for canonsr's calls."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self._raw = self._gen.bit_generator.random_raw
        self._spare = None          # high half of the last raw word, if unused

    def below(self, n: int) -> int:
        """`integers(n)` for an int 1 <= n < 2**32, unchecked: numpy's
        buffered_bounded_lemire_uint32 with rng = n - 1.  Call it only with
        the length of a nonempty sequence; any other n draws garbage."""
        if n == 1:
            return 0                # numpy draws nothing for a range of one
        while True:
            if self._spare is None:
                raw = self._raw()
                self._spare = raw >> 32
                m = (raw & _LOW32) * n
            else:
                m = self._spare * n
                self._spare = None
            # reject below 2**32 % n; the cheap test m_low >= n skips the modulo
            if (m & _LOW32) >= n or (m & _LOW32) >= _WORD % n:
                return m >> 32

    def integers(self, low: int, high: Optional[int] = None, size: Optional[int] = None):
        """`Generator.integers(low, high, size)` for ranges of 1 to 2**32 - 1.

        `low` and `high` must be plain ints: type() is cheaper than
        isinstance on this hot path, and a bool is refused."""
        if high is None:
            low, high = 0, low
        if not (type(low) is int and type(high) is int and 1 <= high - low < _WORD):
            raise ValueError(f"integers({low!r}, {high!r}) is not emulated: "
                             f"needs ints with 1 <= high - low < 2**32")
        if size is None:
            return low + self.below(high - low)
        if not (isinstance(size, int) and size >= 0):
            raise ValueError(f"integers size {size!r} is not emulated: needs an int >= 0")
        n = high - low
        return np.array([low + self.below(n) for _ in range(size)], dtype=np.int64)

    def choice(self, a: int, size: int, replace: bool = True) -> List[int]:
        """`Generator.choice(a, size=k, replace=False).tolist()` for an int `a`, k <= 10000."""
        if not (replace is False and isinstance(a, int) and isinstance(size, int)
                and 1 <= a < _WORD and 0 <= size <= min(a, _FLOYD_MAX)):
            raise ValueError(f"choice({a!r}, size={size!r}, replace={replace!r}) is not "
                             f"emulated: needs replace=False, an int 1 <= a < 2**32 "
                             f"and 0 <= size <= min(a, {_FLOYD_MAX})")
        return floyd_sample(self.below, a, size)

    def random(self) -> float:
        """`Generator.random()`: a double in [0, 1) from one raw word."""
        return (self._raw() >> 11) * _DOUBLE

    def uniform(self, low: float, high: float) -> float:
        """`Generator.uniform(low, high)` for scalar bounds."""
        low, high = float(low), float(high)
        span = high - low
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"uniform({low!r}, {high!r}) is not emulated: "
                             f"needs a finite high - low >= 0")
        return low + span * ((self._raw() >> 11) * _DOUBLE)

    def standard_cauchy(self) -> float:
        """`Generator.standard_cauchy()`, from the wrapped Generator.

        numpy's ziggurat reads whole 64-bit words only, so it leaves the
        spare half-word of the 32-bit draws where it was.
        """
        return self._gen.standard_cauchy()


def below_of(rng) -> Callable[[int], int]:
    """`Draws.below`, or the same draws from a numpy Generator's `integers(n)`."""
    if isinstance(rng, Draws):
        return rng.below
    return lambda n: int(rng.integers(n))


def floyd_sample(below: Callable[[int], int], a: int, k: int) -> List[int]:
    """`Generator.choice(a, size=k, replace=False).tolist()` for 0 <= k <= a,
    drawn through `below`: Floyd's algorithm, then a shuffle of the picks."""
    picked, seen = [], set()
    for j in range(a - k, a):
        val = below(j + 1)
        val = j if val in seen else val
        seen.add(val)
        picked.append(val)
    for i in range(k - 1, 0, -1):
        j = below(i + 1)
        picked[i], picked[j] = picked[j], picked[i]
    return picked
