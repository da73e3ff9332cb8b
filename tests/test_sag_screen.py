"""The screen in forward_regression_press still rules candidates out.

tests/test_sag_oracle.py pins that screened forward regression selects what
refitting every candidate selects; a screen that refitted everything would
pass it too.  This test pins the screen's power: over the oracle test's
candidate sets, forward regression calls press() no more often than it did
when these counts were recorded.
"""

import numpy as np
import pytest

from canonsr import fit
from test_sag_oracle import KINDS, _candidates

# kind: (most press() calls over 25 sets, calls when every remaining
# candidate is refitted at every step); both count the offset-only fits
PRESS_CALLS = {
    "random": (51, 257),
    "near_collinear": (64, 205),
    "duplicated": (82, 318),
    "collinear": (45, 280),
    "scaled": (59, 363),
    "high_leverage": (109, 192),
    "informative": (95, 432),
}


@pytest.mark.parametrize("kind", KINDS)
def test_screen_keeps_press_calls_at_most_the_recorded_counts(kind, monkeypatch):
    calls = 0
    press = fit.press

    def counted(Phi, y):
        nonlocal calls
        calls += 1
        return press(Phi, y)

    monkeypatch.setattr(fit, "press", counted)
    rng = np.random.default_rng(KINDS.index(kind))    # as in the oracle test
    for _ in range(25):
        cols, y = _candidates(kind, rng)
        fit.forward_regression_press(cols, y)
    most, refit_all = PRESS_CALLS[kind]
    assert calls <= most < refit_all
