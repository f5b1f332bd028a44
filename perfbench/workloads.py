"""The benchmark's workloads: seeded sequences of spinstar CLI calls.

A workload turns (seed, pass index) into the argv lists of one pass and
names the check each call's outputs must pass.  The program sees only
the generated argv.  ``tiny`` shrinks every call for the self-tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

import checks

KAPPA_ANGULAR = 2 * math.pi * 26e3   # CLI default kappa_hz
T2_MS = 1.0                           # CLI default t2_ms


@dataclass(frozen=True)
class Call:
    argv: tuple
    scans: int      # max_entanglement_scan results the call produces
    check: object   # check(outdir) -> list of failure messages


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def scan_long(seed: int, pass_index: int, tiny: bool = False) -> list[Call]:
    """Every (M, T2) of the long-chain grid; the seed only shuffles the order."""
    grid = [(m, t2) for m in ((3, 5) if tiny else (11, 15, 21, 31))
            for t2 in ((1.0,) if tiny else (0.5, 1.0, 2.0))]
    _rng("scan-long", seed, pass_index).shuffle(grid)
    extra = ("--samples", "201") if tiny else ()
    return [Call(("scan", "--m", str(m), "--t2-ms", f"{t2:g}", *extra), 1,
                 partial(checks.check_scan, m=m, t2_ms=t2))
            for m, t2 in grid]


def robustness(seed: int, pass_index: int, tiny: bool = False) -> list[Call]:
    """Disorder Monte Carlo at M = 3, 5 plus the M = 5 loss study."""
    ms, runs, loss_m, loss_configs = ((3,), 2, 3, 4) if tiny else ((3, 5), 10, 5, 11)
    extra = ("--samples", "201") if tiny else ()
    disorder_seed = _rng("robustness", seed, pass_index).randrange(2**31)
    ms_arg = ",".join(map(str, ms))
    return [
        Call(("disorder", "--ms", ms_arg, "--runs", str(runs),
              "--seed", str(disorder_seed), *extra), len(ms) * runs,
             partial(checks.check_disorder, ms=ms, runs=runs)),
        Call(("loss", "--ms", str(loss_m), *extra), loss_configs,
             partial(checks.check_loss, t2_ms=T2_MS, kappa_angular=KAPPA_ANGULAR)),
    ]


def sensing(seed: int, pass_index: int, tiny: bool = False) -> list[Call]:
    """Gradient sensing on three arm lengths with a seeded field gradient."""
    rng = _rng("sensing", seed, pass_index)
    # gy/gx stays within [2/3, 3/2], so both pairs oscillate over at least
    # two thirds of a period on the x-axis readout window
    gx, gy = (round(rng.uniform(10.0, 15.0), 4) for _ in range(2))
    ms = (3,) if tiny else (3, 7, 11)
    extra = ("--samples", "201") if tiny else ()
    return [Call(("gradient", "--ms", ",".join(map(str, ms)), "--gx", f"{gx:g}",
                  "--gy", f"{gy:g}", *extra), len(ms),
                 partial(checks.check_gradient, ms=ms, gx=gx, gy=gy, n_times=64))]


WORKLOADS = {"scan-long": scan_long, "robustness": robustness, "sensing": sensing}
