"""Command-line front end: seeded campaign drivers with CSV/JSON emission.

Each subcommand validates its configuration (file plus overriding flags),
checks arm-count geometry before simulating and runs the campaign.  Only
once the whole campaign has run are its output files and a manifest
written into the output directory, so a command that fails writes none.

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
from .entangle import max_entanglement_scan, sector_series
from .experiments import (
    EstimationError,
    GradientSpec,
    GAMMA_NV,
    disorder_monte_carlo,
    estimate_gradient_xy,
    fit_exponential,
    gradient_coherence,
    loss_study,
)
from .lindblad import IntegrationError, NoiseSpec
from .star import StarSpec, dicke_state, star_spectrum_analytic, w_state_protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERIC = 4

ENV_OUTDIR = "SPINSTAR_OUTDIR"

# Each key's (default, type, help); a tuple type is a comma-separated list of
# its one element type.  The defaults are the field-proven operating point of
# the architecture.
KEYS = {
    "n": (3, int, "outer-spin count N"),
    "m": (3, int, "chain length M"),
    "ms": ((3, 5, 7, 9, 11), (int,), "comma-separated chain lengths"),
    "r_nm": (10.0, float, "lattice spacing r in nm"),
    "delta_ratio": (0.9, float, "register coupling ratio delta/kappa"),
    "kappa_hz": (26e3, float, "chain coupling kappa in Hz"),
    "t2_ms": (1.0, float, "dephasing time T2 in ms"),
    "t2s_ms": ((0.5, 1.0, 2.0), (float,), "comma-separated T2 grid in ms"),
    "runs": (100, int, "Monte Carlo runs per point"),
    "variance": (0.25, float, "spacing variance sigma^2 in nm^2"),
    "seed": (0, int, "master seed"),
    "samples": (2001, int, "time samples per scan"),
    "t_end_kt": (0.0, float, "scan window in kappa*t; 0 = automatic"),
    "register_state": ("plus", str, "register-0 preparation, plus|one"),
    "coupling": (1.0, float, "star coupling lambda in rad/s"),
    "outcome": (-1, int, "central-spin outcome, -1 = both"),
    "n_lost": (0, int, "loss count 1|2, 0 = both"),
    "gx": (10.0, float, "field gradient along x in T/m"),
    "gy": (10.0, float, "field gradient along y in T/m"),
    "n_times": (64, int, "sensing readout samples"),
}

# Each command takes only the keys that can change its outputs.  Distances
# enter the couplings kappa (r/d)^3 only as ratios, so the spacing r reaches
# a result only against the disorder variance, in nm^2: `r_nm` belongs to
# `disorder`, as does `seed`, since no other campaign draws random numbers.
COMMAND_KEYS = {
    "spectrum": ("n", "coupling"),
    "wstate": ("n", "outcome"),
    "evolve": ("m", "n", "delta_ratio", "kappa_hz", "t2_ms", "t_end_kt", "samples",
               "register_state"),
    "scan": ("m", "n", "delta_ratio", "kappa_hz", "t2_ms", "t_end_kt", "samples",
             "register_state"),
    "sweep": ("ms", "n", "delta_ratio", "kappa_hz", "t2_ms", "samples", "register_state"),
    "fit": ("ms", "n", "t2s_ms", "delta_ratio", "kappa_hz", "samples", "register_state"),
    "disorder": ("ms", "n", "runs", "variance", "r_nm", "delta_ratio",
                 "kappa_hz", "t2_ms", "samples", "register_state", "seed"),
    "loss": ("ms", "n", "n_lost", "delta_ratio", "kappa_hz", "t2_ms", "samples",
             "register_state"),
    "gradient": ("ms", "n", "gx", "gy", "n_times", "delta_ratio", "kappa_hz", "t2_ms",
                 "samples", "register_state"),
}


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
        resolved = {k: KEYS[k][0] for k in allowed}
        resolved.update({k: _coerce(k, v) for k, v in self.params.items()})
        object.__setattr__(self, "params", resolved)


def _coerce(key: str, value):
    kind = KEYS[key][1]
    if isinstance(kind, tuple):
        if isinstance(value, str):
            value = value.split(",")
        return tuple(map(kind[0], value))
    return kind(value)


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


def _write(path: str, content) -> None:
    """One output file: a ``(header, blocks)`` table for a ``.csv`` path
    (see :func:`write_csv`), else a JSON document.  A file that cannot be
    written is a configuration error (exit 2), named as a failed write."""
    try:
        if path.endswith(".csv"):
            write_csv(path, *content)
            return
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write output {path}: {exc}") from exc


def _arms(p: dict) -> list[ChainSpec]:
    """The command's arms (`m`, or each of `ms`) in ascending M.  Each length
    is checked against the arm-count bound, in the order given, before any is built."""
    ms = p["ms"] if "ms" in p else (p["m"],)
    for m in ms:
        if not validate_star_geometry(p["n"], m):
            raise GeometryError(f"N={p['n']}, M={m} violates the arm-count bound")
    return [ChainSpec(m_chain=m, spacing_nm=p.get("r_nm", KEYS["r_nm"][0]),
                      delta_ratio=p["delta_ratio"], kappa_hz=p["kappa_hz"])
            for m in sorted(ms)]


def _noise(p: dict) -> NoiseSpec:
    return NoiseSpec(t2_s=p["t2_ms"] * 1e-3)


def _scan_kwargs(p: dict) -> dict:
    kw = {"n_samples": p["samples"], "register_state": p["register_state"]}
    if p.get("t_end_kt"):
        kappa = 2 * math.pi * p["kappa_hz"]
        kw["t_end"] = p["t_end_kt"] / kappa
    return kw


# -- command handlers --------------------------------------------------------
#
# Each handler takes the resolved parameters and returns (files, notes):
# `files` maps each output file name to its content, for :func:`_write`, and
# `notes` lists the lines for the manifest.  A handler writes nothing, so a
# command that fails leaves no file behind.

def _cmd_spectrum(p: dict) -> tuple:
    counted: dict = {}
    for j, m, e, mult in star_spectrum_analytic(StarSpec(p["n"], p["coupling"])):
        key = (j, m, round(e, 12))
        counted[key] = counted.get(key, 0) + mult
    if max(counted.values()) > np.iinfo(np.uint64).max:
        raise ValueError(f"N={p['n']}: level multiplicities exceed the 64-bit "
                         "integer column of spectrum.csv")
    return {"spectrum.csv": (
        ["j", "m", "energy", "multiplicity"],
        [((), ([j], [m], [e], [c])) for (j, m, e), c in sorted(counted.items())])}, []


def _cmd_wstate(p: dict) -> tuple:
    spec = StarSpec(p["n"])
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
    return {"wstate.json": report}, []


def _cmd_evolve(p: dict) -> tuple:
    [spec] = _arms(p)
    times, pop0, pop_last, n_exc, e_f = sector_series(spec, _noise(p), **_scan_kwargs(p))
    return {"evolve.csv": (
        ["time_kt", "time_s", "pop_register0", "pop_register_end", "n_exc", "e_f"],
        [((), (spec.kappa_angular * times, times, pop0, pop_last, n_exc, e_f))])}, []


def _cmd_scan(p: dict) -> tuple:
    [spec] = _arms(p)
    result = max_entanglement_scan(spec, _noise(p), **_scan_kwargs(p))
    kt = result.curve_kt
    summary = result.summary()
    summary.update({"m": p["m"], "t2_ms": p["t2_ms"], "config": p})
    return {"fig3.csv": (["tau_kt", "tau_s", "e_f"],
                         [((), (kt, kt / result.kappa_angular, result.curve_ef))]),
            "scan.json": summary}, []


def _cmd_sweep(p: dict) -> tuple:
    arms = _arms(p)
    noise, kw = _noise(p), _scan_kwargs(p)
    scans = [(arm.m_chain, max_entanglement_scan(arm, noise, **kw)) for arm in arms]
    return {"fig4a.csv": (["m", "tau_kt", "e_f"],
                          [((m,), (res.curve_kt, res.curve_ef)) for m, res in scans]),
            "fig4b.csv": (["m", "tau_star_kt", "tau_star_s", "e_m"],
                          [((m,), ([res.tau_star_kt], [res.tau_star_s], [res.e_m]))
                           for m, res in scans])}, []


def _cmd_fit(p: dict) -> tuple:
    if len(set(p["ms"])) < 3 or len(set(p["t2s_ms"])) < 3:
        raise ValueError(f"fit needs at least 3 distinct lengths and 3 distinct t2 "
                         f"values, got ms={p['ms']}, t2s_ms={p['t2s_ms']}")
    arms = _arms(p)
    noises = [(t2_ms, NoiseSpec(t2_s=t2_ms * 1e-3)) for t2_ms in sorted(p["t2s_ms"])]
    grid = [(arm.m_chain, t2_ms, max_entanglement_scan(arm, noise, **_scan_kwargs(p)).e_m)
            for arm in arms for t2_ms, noise in noises]
    fit = fit_exponential([(m, t2_ms * 1e-3, em) for m, t2_ms, em in grid])
    return {"emgrid.csv": (["m", "t2_ms", "e_m"],
                           [((m,), ([t2_ms], [em])) for m, t2_ms, em in grid]),
            "fit.json": {"prefactor": fit.prefactor, "a": fit.a, "b": fit.b,
                         "residual_rms_log": fit.residual}}, []


def _cmd_disorder(p: dict) -> tuple:
    arms = _arms(p)
    table = disorder_monte_carlo([arm.m_chain for arm in arms], _noise(p), runs=p["runs"],
                                 variance=p["variance"], seed=p["seed"],
                                 base_spec=arms[0], **_scan_kwargs(p))
    return {"fig6.csv": (["m", "mean_em", "std_em"],
                         [((row.m_chain,), ([row.mean_em], [row.std_em]))
                          for row in table]),
            "disorder_runs.csv": (["m", "run", "e_m"],
                                  [((row.m_chain,), (np.arange(len(row.values)),
                                                     np.array(row.values)))
                                   for row in table])}, []


def _cmd_loss(p: dict) -> tuple:
    if p["n_lost"] not in (0, 1, 2):
        raise ValueError(f"n_lost must be 0, 1 or 2, got {p['n_lost']}")
    arms = _arms(p)
    n_losts = (1, 2) if p["n_lost"] == 0 else (p["n_lost"],)
    b_rows, cd_rows, notes = [], [], []
    for arm in arms:
        m = arm.m_chain
        for n_lost in n_losts:
            report = loss_study(m, _noise(p), n_lost, base_spec=arm, **_scan_kwargs(p))
            if report.expectation is None:
                notes.append(f"m={m} n_lost={n_lost}: no admissible configurations")
                continue
            b_rows.append(((m, n_lost), ([report.expectation],)))
            cd_rows += [((m, n_lost, "+".join(map(str, cfg_sites))),
                         (res.curve_kt, res.curve_ef))
                        for cfg_sites, res in zip(report.configs, report.results)]
    return {"fig7b.csv": (["m", "n_lost", "mean_em"], b_rows),
            "fig7cd.csv": (["m", "n_lost", "lost_sites", "tau_kt", "e_f"], cd_rows)}, notes


def _cmd_gradient(p: dict) -> tuple:
    if not (math.isfinite(p["gx"]) and p["gx"] != 0 and math.isfinite(p["gy"])):
        raise ValueError(f"gx must be finite and nonzero and gy finite, "
                         f"got gx={p['gx']}, gy={p['gy']}")
    if p["n_times"] < 1:
        raise ValueError(f"n_times must be at least 1, got {p['n_times']}")
    arms = _arms(p)
    g_mag = math.hypot(p["gx"], p["gy"])
    # one oscillation period of the x-axis pair, sampled densely: the phases
    # on this grid do not depend on the pair separation, which keeps its default
    d_nm = GradientSpec.d_nm
    rate = GAMMA_NV * abs(p["gx"]) * d_nm * 1e-9
    times = tuple(np.linspace(0.0, 2 * math.pi / rate, p["n_times"]))
    grad = GradientSpec(gx=p["gx"], gy=p["gy"], times_s=times)
    rows, estimates = [], {}
    for arm in arms:
        m = arm.m_chain
        pair = max_entanglement_scan(arm, _noise(p), **_scan_kwargs(p)).pair_state
        series = gradient_coherence(pair, grad, (0.0, 0.0), (d_nm, 0.0))
        gdt = rate * np.asarray(times)
        rows.append(((m,), (gdt, series)))
        try:
            gx_hat, gy_hat = estimate_gradient_xy(pair, grad)
            estimates[str(m)] = {"gx": gx_hat, "gy": gy_hat,
                                 "amplitude": float(2 * abs(pair[1, 2]))}
        except EstimationError as exc:
            estimates[str(m)] = {"error": str(exc)}
    return {"fig8b.csv": (["m", "gamma_g_d_t", "coherence"], rows),
            "gradient.json": {"true": {"gx": p["gx"], "gy": p["gy"], "magnitude": g_mag},
                              "estimates": estimates}}, []


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
    for command, keys in COMMAND_KEYS.items():
        cp = sub.add_parser(command, help=f"run the {command} campaign")
        cp.add_argument("--config", default=None,
                        help="flat key=value config file; flags override it")
        cp.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${ENV_OUTDIR} or cwd)")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            default, _, text = KEYS[key]
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else _fmt(default)
            text = f"{text} (default: {shown})"
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
    """Execute a resolved configuration, then write its files into `outdir`;
    returns (output paths, notes)."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create --outdir {outdir}: {exc}") from exc
    files, notes = _HANDLERS[cfg.command](cfg.params)
    paths = [os.path.join(outdir, name) for name in files]
    for path, content in zip(paths, files.values()):
        _write(path, content)
    return paths, notes


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
        manifest = os.path.join(outdir, "manifest.json")
        _write(manifest, {
            "command": cfg.command,
            "config": cfg.params,
            "config_sha256": config_hash(cfg),
            "tool_version": __version__,
            "wall_time_s": time.monotonic() - started,
            "outputs": sorted(os.path.basename(p) for p in outputs),
            "notes": notes,
        })
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
    for path in [*outputs, manifest]:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
