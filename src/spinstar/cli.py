"""Command-line front end: seeded campaign drivers with CSV/JSON emission.

Each subcommand validates its configuration (file plus overriding flags),
checks arm-count geometry before simulating, runs the campaign, and
writes its output files plus a manifest into the output directory.

Exit codes: 0 success, 2 invalid configuration, 3 physics rejection
(inadmissible geometry or loss pattern), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .chain import ChainSpec, GeometryError, validate_star_geometry
from .entangle import eof, max_entanglement_scan, register_pair_state, sector_pair_eof
from .experiments import (
    EstimationError,
    GradientSpec,
    GAMMA_NV,
    disorder_monte_carlo,
    distributed_pair,
    estimate_gradient_xy,
    fit_exponential,
    gradient_coherence,
    loss_study,
    stable_seed,
    sweep_length,
)
from .lindblad import IntegrationError, NoiseSpec, evolve_chain, observable_expectation
from .star import StarSpec, dicke_state, star_spectrum_analytic, w_state_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4

ENV_OUTDIR = "SPINSTAR_OUTDIR"

# Campaign defaults (field-proven operating point of the architecture).
DEFAULTS = {
    "n": 3,
    "m": 3,
    "ms": (3, 5, 7, 9, 11),
    "r_nm": 10.0,
    "delta_ratio": 0.9,
    "kappa_hz": 26e3,
    "t2_ms": 1.0,
    "t2s_ms": (0.5, 1.0, 2.0),
    "runs": 100,
    "variance": 0.25,
    "seed": 0,
    "samples": 2001,
    "t_end_kt": 0.0,        # 0 selects the automatic window
    "register_state": "plus",
    "coupling": 1.0,
    "outcome": -1,          # -1 runs both central outcomes
    "n_lost": 0,            # 0 runs both 1-loss and 2-loss
    "gx": 10.0,
    "gy": 10.0,
    "d_nm": 50.0,
    "n_times": 64,
    "method": "sector",
}

COMMAND_KEYS = {
    "spectrum": ("n", "coupling"),
    "wstate": ("n", "coupling", "outcome"),
    "evolve": ("m", "n", "r_nm", "delta_ratio", "kappa_hz", "t2_ms", "t_end_kt",
               "samples", "register_state", "method", "seed"),
    "scan": ("m", "n", "r_nm", "delta_ratio", "kappa_hz", "t2_ms", "t_end_kt",
             "samples", "register_state", "seed"),
    "sweep": ("ms", "n", "r_nm", "delta_ratio", "kappa_hz", "t2_ms", "samples",
              "register_state", "seed"),
    "fit": ("ms", "n", "t2s_ms", "r_nm", "delta_ratio", "kappa_hz", "samples",
            "register_state", "seed"),
    "disorder": ("ms", "n", "runs", "variance", "r_nm", "delta_ratio",
                 "kappa_hz", "t2_ms", "samples", "register_state", "seed"),
    "loss": ("ms", "n", "n_lost", "r_nm", "delta_ratio", "kappa_hz", "t2_ms",
             "samples", "register_state", "seed"),
    "gradient": ("ms", "n", "gx", "gy", "d_nm", "n_times", "r_nm", "delta_ratio",
                 "kappa_hz", "t2_ms", "samples", "register_state", "seed"),
}

_INT_KEYS = {"n", "m", "runs", "seed", "samples", "outcome", "n_lost",
             "n_times"}
_TUPLE_KEYS = {"ms", "t2s_ms"}
_STR_KEYS = {"register_state", "method"}


@dataclass(frozen=True)
class RunConfig:
    """A resolved command plus its full parameter map."""

    command: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMAND_KEYS:
            raise ValueError(f"unknown command {self.command!r}")
        allowed = set(COMMAND_KEYS[self.command])
        unknown = set(self.params) - allowed
        if unknown:
            raise ValueError(f"unknown keys for {self.command}: {sorted(unknown)}")
        resolved = {k: DEFAULTS[k] for k in allowed}
        resolved.update({k: _coerce(k, v) for k, v in self.params.items()})
        object.__setattr__(self, "params", resolved)


def _coerce(key: str, value):
    if key in _TUPLE_KEYS:
        if isinstance(value, str):
            value = value.split(",")
        return tuple(float(v) if key == "t2s_ms" else int(v) for v in value)
    if key in _INT_KEYS:
        return int(value)
    if key in _STR_KEYS:
        return str(value)
    return float(value)


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    params = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            params[key] = value
    return params


def config_hash(cfg: RunConfig) -> str:
    """Hash of everything that determines the outputs."""
    canon = json.dumps({"command": cfg.command, "params": cfg.params},
                       sort_keys=True, default=list)
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _cell(x) -> str:
    """`_fmt(x)` as a CSV field, quoted only where it holds a comma, a
    quote or a line break (csv.writer's minimal quoting)."""
    text = _fmt(x)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_format(col: np.ndarray) -> str:
    if col.dtype == np.float64:
        return "%.12g"
    if col.dtype.kind in "iu":
        return "%d"
    raise TypeError(f"CSV column of dtype {col.dtype}; float64 or integer expected")


def write_csv(path, header, blocks) -> None:
    """UTF-8 CSV with a header row, written block by block.

    Each block is ``(lead, columns)``: `lead` holds the cells that open
    every row of the block, `columns` one or more equal-length 1-d float64
    or integer arrays, one per remaining cell.  The text is what
    csv.writer writes for the cells of :func:`_fmt` (minimal quoting, CRLF
    line ends): floats carry 12 significant digits, integers print as
    ``str``.  A block's rows share one %-format, with the lead cells
    formatted once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_cell, header)) + "\r\n")
        for lead, columns in blocks:
            columns = [np.asarray(c) for c in columns]
            if not columns:
                raise ValueError("a CSV block needs at least one column")
            cells = [_cell(x).replace("%", "%%") for x in lead]
            fmt = ",".join(cells + [_column_format(c) for c in columns]) + "\r\n"
            fh.write("".join(map(fmt.__mod__,
                                 zip(*(c.tolist() for c in columns), strict=True))))


def write_manifest(outdir, cfg: RunConfig, outputs, wall_time: float,
                   notes=()) -> str:
    path = os.path.join(outdir, "manifest.json")
    payload = {
        "command": cfg.command,
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in sorted(cfg.params.items())},
        "config_sha256": config_hash(cfg),
        "seed": cfg.params.get("seed", 0),
        "tool_version": __version__,
        "wall_time_s": wall_time,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "notes": list(notes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _chain_spec(p: dict, m=None, lost=frozenset(), disorder=None) -> ChainSpec:
    return ChainSpec(
        m_chain=int(m if m is not None else p["m"]),
        spacing_nm=p["r_nm"],
        delta_ratio=p["delta_ratio"],
        kappa_hz=p["kappa_hz"],
        lost_sites=lost,
        disorder=disorder,
    )


def _base_spec(p: dict) -> ChainSpec:
    """Spacing and couplings of a campaign; the campaign sets each length."""
    return _chain_spec(p, m=1)


def _noise(p: dict) -> NoiseSpec:
    return NoiseSpec(t2_s=p["t2_ms"] * 1e-3)


def _check_geometry(p: dict, ms) -> None:
    for m in ms:
        if not validate_star_geometry(p["n"], int(m)):
            raise GeometryError(f"N={p['n']}, M={m} violates the arm-count bound")


def _scan_kwargs(p: dict) -> dict:
    kw = {"n_samples": p["samples"], "register_state": p["register_state"]}
    if p.get("t_end_kt"):
        kappa = 2 * math.pi * p["kappa_hz"]
        kw["t_end"] = p["t_end_kt"] / kappa
    return kw


# -- command handlers --------------------------------------------------------

def _cmd_spectrum(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    levels = star_spectrum_analytic(StarSpec(p["n"], p["coupling"]))
    counted: dict = {}
    for j, m, e in levels:
        key = (j, m, round(e, 12))
        counted[key] = counted.get(key, 0) + 1
    path = os.path.join(outdir, "spectrum.csv")
    write_csv(path, ["j", "m", "energy", "multiplicity"],
              [((), ([j], [m], [e], [c])) for (j, m, e), c in sorted(counted.items())])
    return [path]


def _cmd_wstate(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    spec = StarSpec(p["n"], p["coupling"])
    outcomes = (0, 1) if p["outcome"] == -1 else (p["outcome"],)
    report = {}
    for outcome in outcomes:
        prob, state = w_state_protocol(spec, outcome)
        k = (spec.n_outer + 1) // 2 if outcome == 0 else (spec.n_outer - 1) // 2
        target = dicke_state(spec.n_outer, k)
        report[str(outcome)] = {
            "probability": prob,
            "excitations": k,
            "fidelity": float(abs(np.vdot(target, state)) ** 2),
        }
    path = os.path.join(outdir, "wstate.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def _cmd_evolve(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, [p["m"]])
    spec = _chain_spec(p)
    kw = _scan_kwargs(p)
    traj = evolve_chain(spec, _noise(p), t_end=kw.get("t_end"),
                        n_samples=p["samples"], method=p["method"],
                        register_state=p["register_state"])
    pairs = register_pair_state(traj)
    if traj.kind == "sector":
        e_f = sector_pair_eof(np.array(pairs))
    else:   # the general concurrence stays the full-space oracle
        e_f = np.array([eof(pr) for pr in pairs])
    columns = [traj.times_kt, traj.times_s,
               observable_expectation(traj, ("pop", 0)),
               observable_expectation(traj, ("pop", traj.n_sites - 1)),
               observable_expectation(traj, ("n_exc",)), e_f]
    path = os.path.join(outdir, "evolve.csv")
    write_csv(path, ["time_kt", "time_s", "pop_register0", "pop_register_end",
                     "n_exc", "e_f"], [((), columns)])
    return [path]


def _cmd_scan(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, [p["m"]])
    result = max_entanglement_scan(_chain_spec(p), _noise(p), **_scan_kwargs(p))
    curve_path = os.path.join(outdir, "fig3.csv")
    kt = result.curve_kt
    write_csv(curve_path, ["tau_kt", "tau_s", "e_f"],
              [((), (kt, kt / result.kappa_angular, result.curve_ef))])
    summary_path = os.path.join(outdir, "scan.json")
    payload = result.summary()
    payload.update({"m": p["m"], "t2_ms": p["t2_ms"], "seed": p["seed"],
                    "config": {k: list(v) if isinstance(v, tuple) else v
                               for k, v in sorted(p.items())}})
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [curve_path, summary_path]


def _cmd_sweep(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, p["ms"])
    points = sweep_length(p["ms"], _noise(p), n_outer=p["n"], base_spec=_base_spec(p),
                          **_scan_kwargs(p))
    points = sorted(points, key=lambda pt: pt.m_chain)
    a_path = os.path.join(outdir, "fig4a.csv")
    write_csv(a_path, ["m", "tau_kt", "e_f"],
              [((pt.m_chain,), (pt.result.curve_kt, pt.result.curve_ef))
               for pt in points])
    b_path = os.path.join(outdir, "fig4b.csv")
    write_csv(b_path, ["m", "tau_star_kt", "tau_star_s", "e_m"],
              [((pt.m_chain,), ([pt.result.tau_star_kt], [pt.result.tau_star_s],
                                [pt.e_m])) for pt in points])
    return [a_path, b_path]


def _cmd_fit(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, p["ms"])
    grid = []
    for t2_ms in p["t2s_ms"]:
        noise = NoiseSpec(t2_s=t2_ms * 1e-3)
        for pt in sweep_length(p["ms"], noise, n_outer=p["n"], base_spec=_base_spec(p),
                               **_scan_kwargs(p)):
            grid.append((pt.m_chain, t2_ms, pt.e_m))
    grid.sort()
    grid_path = os.path.join(outdir, "emgrid.csv")
    write_csv(grid_path, ["m", "t2_ms", "e_m"],
              [((m,), ([t2_ms], [em])) for m, t2_ms, em in grid])
    fit = fit_exponential([(m, t2_ms * 1e-3, em) for m, t2_ms, em in grid])
    fit_path = os.path.join(outdir, "fit.json")
    with open(fit_path, "w", encoding="utf-8") as fh:
        json.dump({"prefactor": fit.prefactor, "a": fit.a, "b": fit.b,
                   "residual_rms_log": fit.residual}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [grid_path, fit_path]


def _cmd_disorder(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, p["ms"])
    table = disorder_monte_carlo(p["ms"], _noise(p), runs=p["runs"],
                                 variance=p["variance"], seed=p["seed"],
                                 base_spec=_base_spec(p), **_scan_kwargs(p))
    table = sorted(table, key=lambda row: row.m_chain)
    path = os.path.join(outdir, "fig6.csv")
    write_csv(path, ["m", "mean_em", "std_em"],
              [((row.m_chain,), ([row.mean_em], [row.std_em])) for row in table])
    runs_path = os.path.join(outdir, "disorder_runs.csv")
    write_csv(runs_path, ["m", "run", "e_m"],
              [((row.m_chain,), (np.arange(len(row.values)), np.array(row.values)))
               for row in table])
    return [path, runs_path]


def _cmd_loss(cfg: RunConfig, outdir: str) -> tuple[list, list]:
    p = cfg.params
    _check_geometry(p, p["ms"])
    n_losts = (1, 2) if p["n_lost"] == 0 else (p["n_lost"],)
    b_rows, cd_rows, notes = [], [], []
    for m in sorted(p["ms"]):
        for n_lost in n_losts:
            if m < n_lost or (n_lost == 2 and m < 3):
                notes.append(f"m={m} n_lost={n_lost}: no admissible configurations")
                continue
            report = loss_study(int(m), _noise(p), n_lost,
                                base_spec=_base_spec(p), **_scan_kwargs(p))
            if report.expectation is None:
                notes.append(f"m={m} n_lost={n_lost}: no admissible configurations")
                continue
            b_rows.append(((m, n_lost), ([report.expectation],)))
            cd_rows += [((m, n_lost, "+".join(map(str, cfg_sites))),
                         (res.curve_kt, res.curve_ef))
                        for cfg_sites, res in zip(report.configs, report.results)]
    b_path = os.path.join(outdir, "fig7b.csv")
    write_csv(b_path, ["m", "n_lost", "mean_em"], b_rows)
    cd_path = os.path.join(outdir, "fig7cd.csv")
    write_csv(cd_path, ["m", "n_lost", "lost_sites", "tau_kt", "e_f"], cd_rows)
    return [b_path, cd_path], notes


def _cmd_gradient(cfg: RunConfig, outdir: str) -> list:
    p = cfg.params
    _check_geometry(p, p["ms"])
    kappa = 2 * math.pi * p["kappa_hz"]
    g_mag = math.hypot(p["gx"], p["gy"])
    # one oscillation period of the x-axis pair, sampled densely
    period = 2 * math.pi / (GAMMA_NV * p["gx"] * p["d_nm"] * 1e-9)
    times = tuple(np.linspace(0.0, period, p["n_times"]))
    grad = GradientSpec(gx=p["gx"], gy=p["gy"], d_nm=p["d_nm"], times_s=times)
    rows, estimates = [], {}
    for m in sorted(p["ms"]):
        pair = distributed_pair(_chain_spec(p, m=m), _noise(p), **_scan_kwargs(p))
        series = gradient_coherence(pair, grad, (0.0, 0.0), (p["d_nm"], 0.0))
        gdt = GAMMA_NV * p["gx"] * p["d_nm"] * 1e-9 * np.asarray(times)
        rows.append(((m,), (gdt, series)))
        try:
            gx_hat, gy_hat = estimate_gradient_xy(pair, grad)
            estimates[str(m)] = {"gx": gx_hat, "gy": gy_hat,
                                 "amplitude": float(2 * abs(pair[1, 2]))}
        except EstimationError as exc:
            estimates[str(m)] = {"error": str(exc)}
    path = os.path.join(outdir, "fig8b.csv")
    write_csv(path, ["m", "gamma_g_d_t", "coherence"], rows)
    est_path = os.path.join(outdir, "gradient.json")
    with open(est_path, "w", encoding="utf-8") as fh:
        json.dump({"true": {"gx": p["gx"], "gy": p["gy"], "magnitude": g_mag},
                   "estimates": estimates}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, est_path]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "wstate": _cmd_wstate,
    "evolve": _cmd_evolve,
    "scan": _cmd_scan,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
    "disorder": _cmd_disorder,
    "loss": _cmd_loss,
    "gradient": _cmd_gradient,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spinstar",
        description="Entanglement distribution over dipolar spin-chain arms: "
                    "deterministic, seeded campaign drivers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "n": "outer-spin count N (default: %(d)s)",
        "m": "chain length M (default: %(d)s)",
        "ms": "comma-separated chain lengths (default: %(d)s)",
        "r_nm": "lattice spacing r in nm (default: %(d)s)",
        "delta_ratio": "register coupling ratio delta/kappa (default: %(d)s)",
        "kappa_hz": "chain coupling kappa in Hz (default: %(d)s)",
        "t2_ms": "dephasing time T2 in ms (default: %(d)s)",
        "t2s_ms": "comma-separated T2 grid in ms (default: %(d)s)",
        "runs": "Monte Carlo runs per point (default: %(d)s)",
        "variance": "spacing variance sigma^2 in nm^2 (default: %(d)s)",
        "seed": "master seed (default: %(d)s)",
        "samples": "time samples per scan (default: %(d)s)",
        "t_end_kt": "scan window in kappa*t; 0 = automatic (default: %(d)s)",
        "register_state": "register-0 preparation, plus|one (default: %(d)s)",
        "coupling": "star coupling lambda in rad/s (default: %(d)s)",
        "outcome": "central-spin outcome, -1 = both (default: %(d)s)",
        "n_lost": "loss count 1|2, 0 = both (default: %(d)s)",
        "gx": "field gradient along x in T/m (default: %(d)s)",
        "gy": "field gradient along y in T/m (default: %(d)s)",
        "d_nm": "register pair separation in nm (default: %(d)s)",
        "n_times": "sensing readout samples (default: %(d)s)",
        "method": "integration path, sector|full (default: %(d)s)",
    }
    for command, keys in COMMAND_KEYS.items():
        cp = sub.add_parser(command, help=f"run the {command} campaign")
        cp.add_argument("--config", default=None,
                        help="flat key=value config file; flags override it")
        cp.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${ENV_OUTDIR} or cwd)")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            text = helps[key].replace("%(d)s", _fmt(DEFAULTS[key]) if not
                                      isinstance(DEFAULTS[key], tuple) else
                                      ",".join(map(str, DEFAULTS[key])))
            if key == "ms":
                # --m doubles as the list flag on campaign commands
                cp.add_argument("--ms", "--m", dest="ms", default=None, help=text)
            else:
                cp.add_argument(flag, default=None, help=text)
    return parser


def _resolve_config(args) -> RunConfig:
    params = {}
    if args.config:
        params.update(parse_config_file(args.config))
    for key in COMMAND_KEYS[args.command]:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return RunConfig(command=args.command, params=params)


def run(cfg: RunConfig, outdir: str) -> tuple[list, list]:
    """Execute a resolved configuration; returns (output paths, notes)."""
    os.makedirs(outdir, exist_ok=True)
    handler = _HANDLERS[cfg.command]
    result = handler(cfg, outdir)
    if isinstance(result, tuple):
        return result
    return result, []


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"spinstar-error code={EXIT_CONFIG} kind=config msg={exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    outdir = args.outdir or os.environ.get(ENV_OUTDIR) or os.getcwd()
    started = time.monotonic()
    try:
        outputs, notes = run(cfg, outdir)
    except GeometryError as exc:
        print(f"spinstar-error code={EXIT_PHYSICS} kind=geometry msg={exc}",
              file=sys.stderr)
        return EXIT_PHYSICS
    except (IntegrationError, EstimationError, FloatingPointError) as exc:
        print(f"spinstar-error code={EXIT_NUMERIC} kind=numeric msg={exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"spinstar-error code={EXIT_CONFIG} kind=config msg={exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    wall = time.monotonic() - started
    manifest = write_manifest(outdir, cfg, outputs, wall, notes)
    for path in [*outputs, manifest]:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
