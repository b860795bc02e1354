"""Results that tests in more than one place check, computed once per session."""

import copy

import numpy as np
import pytest

from tmfc import PumpSpec, RegimeParams, low_ce_gf, ridge_slope
from tmfc.harness import reproduce, run_sweep
from tmfc.harness.cases import fig6_spec
from tmfc.schmidt import _parabola_vertex


def _ridge_slope_devs():
    """Relative deviation from :func:`ridge_slope` of the weak kernel's ridge
    slope, fitted through its parabola-refined |G| peaks at nine output
    times, for three slowness sets."""
    pump = PumpSpec(tau_p=0.2)
    devs = []
    for betas, (t_lo, t_hi) in [((1.0, -1.0, 0.0), (0.0, 1.0)),
                                ((4.0, 0.0, 2.0), (2.0, 4.0)),
                                ((2.0, 1.0, 3.0), (2.0, 3.0))]:
        params = RegimeParams(*betas).with_gamma_bar(0.01)
        span = t_hi - t_lo
        rows = np.linspace(t_lo + 0.2 * span, t_hi - 0.2 * span, 9)
        peaks = []
        for t in rows:
            tp = np.linspace(t - params.beta_r, t - params.beta_s, 4001)
            mag = np.abs(low_ce_gf(params, pump, np.full_like(tp, t), tp))
            k = int(np.argmax(mag))
            peaks.append(tp[k] + _parabola_vertex(mag, k)[0] * (tp[1] - tp[0]))
        slope = np.polyfit(rows, peaks, 1)[0]
        devs.append(abs(slope / ridge_slope(params) - 1.0))
    return devs


@pytest.fixture(scope="session")
def shared():
    """``shared(name)``: the result ``name``, computed on its first use in
    the session, as a deep copy, so no test can change what another reads."""
    compute = {"fig6-fine": lambda: run_sweep(fig6_spec(step=0.05)),
               "chirp-invariance": lambda: reproduce("chirp-invariance"),
               "ecop-limit": lambda: reproduce("ecop-limit"),
               "ridge-slope": _ridge_slope_devs}
    results = {}

    def get(name):
        if name not in results:
            results[name] = compute[name]()
        return copy.deepcopy(results[name])

    return get
