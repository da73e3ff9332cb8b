"""The random draws of a run, from the raw words of one PCG64 stream.

`Draws(seed)` seeds PCG64 as `numpy.random.default_rng(seed)` does and
makes each draw in a few Python operations on raw words fetched a block at
a time:

- `below(n)`, a uniform int in [0, n), is Lemire's bounded integer on 32-bit
  words ("Fast random integer generation in an interval", ACM TOMACS 2019).
  A raw word gives its low half first and keeps the high half for the next
  32-bit draw, as PCG64's `next_uint32` does;
- `random()`, a double in [0, 1), is `(raw >> 11) * 2**-53`, one whole word;
- `standard_cauchy()` is numpy's own, from the same stream, after the words
  fetched but not yet read are handed back: PCG64 jumps back over them in
  O(log) steps (O'Neill, "PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation", 2014);
- `floyd_sample(below, a, k)`, k distinct ints in [0, a) in random order, is
  Floyd's algorithm (Bentley & Floyd, "Programming pearls: a sample of
  brilliance", CACM 1987) followed by a shuffle, both through `below`.

The search draws through these alone.  Each returns what the numpy
Generator call it stands for returns from the same state, so fronts depend
only on the PCG64 raw stream, which numpy keeps stable across versions.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

_LOW32 = 0xFFFFFFFF
_WORD = 1 << 32
_DOUBLE = 1.0 / 9007199254740992.0     # 2**-53
_PERIOD = 1 << 128                      # advance(_PERIOD - k) steps back k words
# raw words per fetch.  On a 2-CPU box, one random_raw() call per word costs
# about 230 ns and a word of a 64-word block about 35 ns.  A hand-back before
# standard_cauchy (about one per 500 draws in a pm81 run) wastes half a block
# on average plus one advance() of about 1.3 us.  Of 32, 64, 128 and 256, 64
# ran the pm81 draw mix of benchmarks/test_layers.py fastest.
_BLOCK = 64


class Draws:
    """The random source of a run: `below`, `random` and `standard_cauchy`."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self._bits = self._gen.bit_generator
        self._words: List[int] = []  # fetched, unread; the next one is last
        self._spare = None          # high half of the last raw word, if unused

    def _fetch(self) -> int:
        """The next raw word, after fetching a block."""
        self._words = words = self._bits.random_raw(_BLOCK)[::-1].tolist()
        return words.pop()

    def _hand_back(self) -> None:
        """Step the bit generator back over the unread words."""
        if self._words:
            self._bits.advance(_PERIOD - len(self._words))
            self._words = []

    def below(self, n: int) -> int:
        """A uniform int in [0, n) for an int 1 <= n < 2**32, unchecked:
        numpy's buffered_bounded_lemire_uint32 with rng = n - 1, the value
        `Generator.integers(n)` draws.  Call it only with the length of a
        nonempty sequence; any other n draws garbage."""
        if n == 1:
            return 0                # numpy draws nothing for a range of one
        while True:
            if self._spare is None:
                words = self._words
                raw = words.pop() if words else self._fetch()
                self._spare = raw >> 32
                m = (raw & _LOW32) * n
            else:
                m = self._spare * n
                self._spare = None
            # reject below 2**32 % n; the cheap test m_low >= n skips the modulo
            if (m & _LOW32) >= n or (m & _LOW32) >= _WORD % n:
                return m >> 32

    def random(self) -> float:
        """A double in [0, 1) from one raw word, as `Generator.random()`."""
        words = self._words
        return ((words.pop() if words else self._fetch()) >> 11) * _DOUBLE

    def standard_cauchy(self) -> float:
        """`Generator.standard_cauchy()` on the same stream.

        numpy's ziggurat reads whole 64-bit words only, so it leaves the
        spare half-word of `below` where it was.
        """
        self._hand_back()
        return self._gen.standard_cauchy()

    def state(self) -> Tuple[dict, Optional[int]]:
        """The PCG64 state (`bit_generator.state["state"]`) as if every word
        read so far had been drawn singly, and the spare half-word or None:
        what `Generator.bit_generator.state` and its buffered uint32 hold
        after the same draws."""
        self._hand_back()
        return self._bits.state["state"], self._spare


def floyd_sample(below: Callable[[int], int], a: int, k: int) -> List[int]:
    """k distinct ints in [0, a), 0 <= k <= a, in random order, drawn through
    `below`: Floyd's algorithm, then a shuffle of the picks.

    Through `Draws.below` this is `Generator.choice(a, size=k,
    replace=False).tolist()` wherever numpy itself uses Floyd's algorithm:
    a <= 10000 or k <= a // 50.  Outside that domain numpy shuffles a tail of
    range(a) instead and draws other values.
    """
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
