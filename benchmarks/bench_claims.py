"""Every row of the paper scoreboard (:mod:`repro.bench.claims`) at the base
point its bound is calibrated at: scale 0.4, 16 joiners, seed 1.  Each sweep
derives its own point from it (Fig. 7b at scale 0.3, Fig. 7d at seed 2, the
lossy wire on 8 joiners, ...).

One :class:`~repro.bench.claims.Scoreboard` serves the module, so a sweep that
several rows read runs once.  ``python -m repro.bench all`` prints the same
rows as a table, with the paper's values and verdicts.
"""

import pytest

from repro.bench.claims import CLAIMS, Scoreboard

BOARD = Scoreboard()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: f"{claim.figure}: {claim.claim}")
def test_claim(claim):
    value = BOARD.measure(claim)
    assert claim.meets(value, claim.bound), (
        f"{claim.figure}: {claim.claim} measured {value:.4g}, bound {claim.sign} {claim.bound:.4g}"
    )
