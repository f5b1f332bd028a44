import json
import math

import numpy as np
import pytest

from spinstar.chain import ChainSpec, DisorderSpec, loss_configurations
from spinstar.cli import (
    COMMAND_KEYS,
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PHYSICS,
    RunConfig,
    build_parser,
    config_hash,
    main,
    parse_config_file,
)
from spinstar.entangle import max_entanglement_scan
from spinstar.experiments import stable_seed
from spinstar.lindblad import NoiseSpec, SectorPropagator
from spinstar.star import StarSpec, star_spectrum_analytic

FAST = ["--samples", "301"]


def run_cli(tmp_path, *args):
    return main([*args, "--outdir", str(tmp_path)])


def test_defaults_mirror_operating_point():
    assert DEFAULTS["r_nm"] == 10.0
    assert DEFAULTS["delta_ratio"] == 0.9
    assert DEFAULTS["kappa_hz"] == 26e3
    assert DEFAULTS["t2_ms"] == 1.0
    assert DEFAULTS["runs"] == 100
    assert DEFAULTS["variance"] == 0.25
    assert DEFAULTS["n"] == 3


def test_runconfig_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig("scan", {"bogus": 1})
    with pytest.raises(ValueError):
        RunConfig("nonsense", {})


def test_runconfig_fills_defaults():
    cfg = RunConfig("scan", {"m": "5"})
    assert cfg.params["m"] == 5
    assert cfg.params["t2_ms"] == 1.0
    assert cfg.params["register_state"] == "plus"


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("m = 4\nt2_ms = 2.0  # override\n")
    params = parse_config_file(str(path))
    assert params == {"m": "4", "t2_ms": "2.0"}
    cfg = RunConfig("scan", params)
    assert cfg.params["m"] == 4
    assert cfg.params["t2_ms"] == 2.0


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config_file(str(path))


def test_scan_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main(["scan", "--m", "3", "--t2-ms", "1", *FAST,
                     "--outdir", str(out)])
        assert code == EXIT_OK
    assert (out1 / "fig3.csv").read_bytes() == (out2 / "fig3.csv").read_bytes()
    doc = json.loads((out1 / "scan.json").read_text())
    assert 0 <= doc["e_m"] <= 1
    assert doc["tau_star_kt"] > 0
    man1 = json.loads((out1 / "manifest.json").read_text())
    man2 = json.loads((out2 / "manifest.json").read_text())
    for key in ("command", "config", "config_sha256", "seed", "outputs"):
        assert man1[key] == man2[key]


def test_manifest_config_reparses_to_equal_runconfig(tmp_path):
    code = run_cli(tmp_path, "scan", "--m", "3", *FAST)
    assert code == EXIT_OK
    man = json.loads((tmp_path / "manifest.json").read_text())
    echoed = RunConfig(man["command"], man["config"])
    assert echoed == RunConfig("scan", {"m": 3, "samples": 301})
    assert config_hash(echoed) == man["config_sha256"]


def test_spectrum_table_matches_analytic(tmp_path):
    assert run_cli(tmp_path, "spectrum", "--n", "3") == EXIT_OK
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "j,m,energy,multiplicity"
    total = 0
    values = []
    for line in rows[1:]:
        j, m, e, mult = line.split(",")
        total += int(mult)
        values += [float(e)] * int(mult)
    assert total == 16
    expected = sorted(e for _, _, e in star_spectrum_analytic(StarSpec(3, 1.0)))
    assert np.allclose(sorted(values), expected, atol=1e-9)


def test_wstate_report(tmp_path):
    assert run_cli(tmp_path, "wstate", "--n", "3") == EXIT_OK
    doc = json.loads((tmp_path / "wstate.json").read_text())
    assert set(doc) == {"0", "1"}
    for outcome, entry in doc.items():
        assert abs(entry["probability"] - 0.5) < 1e-10
        assert entry["fidelity"] > 1 - 1e-10
    assert doc["0"]["excitations"] == 2
    assert doc["1"]["excitations"] == 1


def test_sweep_violating_arm_bound_exits_3(tmp_path, capsys):
    code = run_cli(tmp_path, "sweep", "--ms", "3", "--n", "38", *FAST)
    assert code == EXIT_PHYSICS
    err = capsys.readouterr().err
    assert err.startswith("spinstar-error code=3")


def test_sweep_accepts_m_as_list_alias(tmp_path, capsys):
    code = run_cli(tmp_path, "sweep", "--m", "3,38", "--n", "38", *FAST)
    assert code == EXIT_PHYSICS
    assert "code=3" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["scan", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flags", [
    ["--samples", "0"], ["--samples", "1"], ["--t-end-kt", "-5"],
])
def test_degenerate_scan_grid_exits_2(tmp_path, capsys, flags):
    # evolve samples the same kind of grid as scan and rejects it alike
    for command in ("scan", "evolve"):
        code = run_cli(tmp_path, command, "--m", "3", *flags)
        assert code == EXIT_CONFIG, command
        assert capsys.readouterr().err.startswith("spinstar-error code=2 kind=config")


def test_corrupted_propagation_exits_4(tmp_path, capsys, monkeypatch):
    # a propagated pair state that fails its density check is a numerical
    # failure: B[0,last] beyond sqrt(B[0,0] B[last,last]) is not positive
    on_grid = SectorPropagator.on_grid

    def corrupted(self, *args, **kwargs):
        times, values, k, cols = on_grid(self, *args, **kwargs)
        if values.ndim == 3:    # whole blocks, for evolve
            values[:, 0, -1] += 0.6
        else:                   # probe readings, for scan
            values[:, 3] += 0.6
        return times, values, k, cols

    monkeypatch.setattr(SectorPropagator, "on_grid", corrupted)
    for command in ("scan", "evolve"):
        assert run_cli(tmp_path, command, "--m", "3", *FAST) == EXIT_NUMERIC, command
        assert capsys.readouterr().err.startswith("spinstar-error code=4 kind=numeric")


def test_jobs_is_no_longer_a_key(tmp_path, capsys):
    # campaigns run in one process; the worker-count key went with the pool
    assert run_cli(tmp_path, "disorder", "--ms", "3", "--runs", "1", *FAST,
                   "--jobs", "2") == EXIT_CONFIG
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 2\n")
    assert run_cli(tmp_path, "sweep", "--config", str(cfg)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("spinstar-error code=2 kind=config")


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nt2_ms = 1\n")
    out = tmp_path / "out"
    code = main(["scan", "--config", str(cfg), "--m", "2", *FAST,
                 "--outdir", str(out)])
    assert code == EXIT_OK
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["m"] == 2
    assert man["config"]["t2_ms"] == 1.0


def test_sweep_outputs_sorted_by_length(tmp_path):
    code = run_cli(tmp_path, "sweep", "--ms", "5,3", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "fig4b.csv").read_text().strip().splitlines()
    ms = [int(r.split(",")[0]) for r in rows[1:]]
    assert ms == sorted(ms) == [3, 5]


def test_empty_loss_report(tmp_path):
    code = run_cli(tmp_path, "loss", "--ms", "2", "--n-lost", "2", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "fig7b.csv").read_text().strip().splitlines()
    assert rows == ["m,n_lost,mean_em"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert any("no admissible configurations" in note for note in man["notes"])


def test_loss_outputs(tmp_path):
    code = run_cli(tmp_path, "loss", "--ms", "3", "--n-lost", "1", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "fig7b.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    m, n_lost, mean_em = rows[1].split(",")
    assert (m, n_lost) == ("3", "1")
    assert 0 < float(mean_em) < 1
    detail = (tmp_path / "fig7cd.csv").read_text().strip().splitlines()
    labels = {line.split(",")[2] for line in detail[1:]}
    assert labels == {"1", "2", "3"}


def test_disorder_campaign(tmp_path):
    code = run_cli(tmp_path, "disorder", "--ms", "3", "--runs", "3",
                   "--seed", "5", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "fig6.csv").read_text().strip().splitlines()
    assert rows[0] == "m,mean_em,std_em"
    assert len(rows) == 2
    runs = (tmp_path / "disorder_runs.csv").read_text().strip().splitlines()
    assert len(runs) == 4


def test_gradient_campaign(tmp_path):
    code = run_cli(tmp_path, "gradient", "--ms", "3", "--n-times", "32", *FAST)
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "gradient.json").read_text())
    est = doc["estimates"]["3"]
    assert abs(est["gx"] - 10.0) / 10.0 < 1e-3
    assert abs(est["gy"] - 10.0) / 10.0 < 1e-3
    rows = (tmp_path / "fig8b.csv").read_text().strip().splitlines()
    assert rows[0] == "m,gamma_g_d_t,coherence"
    assert len(rows) == 33


def test_evolve_campaign(tmp_path):
    code = run_cli(tmp_path, "evolve", "--m", "2", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "evolve.csv").read_text().strip().splitlines()
    assert rows[0] == "time_kt,time_s,pop_register0,pop_register_end,n_exc,e_f"
    first = rows[1].split(",")
    assert float(first[2]) == pytest.approx(0.5)   # |+> population of |1>
    assert float(first[4]) == pytest.approx(0.5)


def test_fit_campaign(tmp_path):
    code = run_cli(tmp_path, "fit", "--ms", "3,4,5", "--t2s-ms", "0.5,1,2",
                   *FAST)
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["a"] > 0 and doc["b"] > 0
    grid = (tmp_path / "emgrid.csv").read_text().strip().splitlines()
    assert len(grid) == 10


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scan", "--help"])
    text = capsys.readouterr().out
    assert "0.9" in text       # delta ratio default
    assert "26000" in text     # kappa default
    assert "default" in text


def test_cached_parser_answers_like_a_fresh_one(capsys):
    # main reuses one parser; help, version and usage errors come out as
    # from a parser built afresh, on every call
    fresh = build_parser.__wrapped__
    argvs = [["--help"], ["--version"], ["scan", "--bogus", "1"], ["nonsense"], []]
    argvs += [[command, "--help"] for command in COMMAND_KEYS]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            fresh().parse_args(argv)
        expected = (int(exc.value.code or 0), *capsys.readouterr())
        for _ in range(2):
            assert (main(argv), *capsys.readouterr()) == expected, argv
    assert build_parser() is build_parser()


def _csv_column(path, name):
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(name)
    return [float(line.split(",")[col]) for line in lines[1:]]


ARM_FLAGS = [
    ({"kappa_hz": 13e3}, ["--kappa-hz", "13e3"]),
    ({"spacing_nm": 12.0}, ["--r-nm", "12"]),
    ({"delta_ratio": 0.7}, ["--delta-ratio", "0.7"]),
]


@pytest.mark.parametrize("arm, flags", ARM_FLAGS,
                         ids=[flags[0].lstrip("-") for _, flags in ARM_FLAGS])
def test_campaigns_honour_the_arm_flags(tmp_path, arm, flags):
    # sweep, fit, disorder and loss scan the arm the flags describe: each
    # e_m is the scan of that ChainSpec and differs from the default arm
    def e_m(spec, t2_s=1e-3):
        return max_entanglement_scan(spec, NoiseSpec(t2_s=t2_s), n_samples=301).e_m

    def same(values, expected):
        assert values == [float(f"{x:.12g}") for x in expected]

    arm3 = ChainSpec(m_chain=3, **arm)
    assert e_m(arm3) != e_m(ChainSpec(m_chain=3))

    assert run_cli(tmp_path / "sweep", "sweep", "--ms", "3", *flags, *FAST) == EXIT_OK
    same(_csv_column(tmp_path / "sweep" / "fig4b.csv", "e_m"), [e_m(arm3)])

    assert run_cli(tmp_path / "fit", "fit", "--ms", "3,4,5", "--t2s-ms", "0.5,1,2",
                   *flags, *FAST) == EXIT_OK
    same(_csv_column(tmp_path / "fit" / "emgrid.csv", "e_m"),
         [e_m(ChainSpec(m_chain=m, **arm), t2 * 1e-3) for m in (3, 4, 5)
          for t2 in (0.5, 1.0, 2.0)])

    assert run_cli(tmp_path / "dis", "disorder", "--ms", "3", "--runs", "2", *flags,
                   *FAST) == EXIT_OK
    same(_csv_column(tmp_path / "dis" / "disorder_runs.csv", "e_m"),
         [e_m(ChainSpec(m_chain=3, **arm, disorder=DisorderSpec(
             mean_nm=arm3.spacing_nm, variance_nm2=0.25,
             seed=stable_seed(0, "disorder", 3, run)))) for run in range(2)])

    assert run_cli(tmp_path / "loss", "loss", "--ms", "3", "--n-lost", "1", *flags,
                   *FAST) == EXIT_OK
    configs = sorted(loss_configurations(3, 1), key=sorted)
    same(_csv_column(tmp_path / "loss" / "fig7b.csv", "mean_em"),
         [float(np.mean([e_m(ChainSpec(m_chain=3, **arm, lost_sites=c))
                         for c in configs]))])


def test_outputs_confined_to_outdir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    outdir = tmp_path / "out"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(["scan", "--m", "2", *FAST, "--outdir", str(outdir)])
    assert code == EXIT_OK
    assert list(workdir.iterdir()) == []


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINSTAR_OUTDIR", str(tmp_path / "env_out"))
    code = main(["spectrum", "--n", "2"])
    assert code == EXIT_OK
    assert (tmp_path / "env_out" / "spectrum.csv").exists()


def test_write_csv_matches_csv_writer(tmp_path):
    # the block writer against csv.writer on the cells of _fmt: odd types
    # and text that needs quoting or holds '%' lead a block, edge floats
    # sit in float64 columns, integers in integer columns
    import csv
    from fractions import Fraction

    from spinstar.cli import _fmt, write_csv

    header = ["m", "n_lost", "lost_sites", "tau_kt", "e_f"]
    blocks = [
        ((3, np.int64(1), "1+2"),
         (np.array([0.1, math.nan, -math.inf]), np.array([1 / 3, math.inf, -0.0]))),
        ((np.int32(5), 2, 'a,"b"'),
         (np.array([1e-300, 2.5e17]), np.array([-1e-300, 5.0]))),
        ((10 ** 12, 123456789012345, "x\ny"), (np.array([1.0]), np.array([-2.5]))),
        ((True, np.float32(0.1), Fraction(1, 2)),
         (np.array([7, -8]), np.array([2 ** 40, 0], dtype=np.uint64))),
        (("50%", "%d%%", "%s,%(x)s"), (np.array([0.5]), np.array([3]))),
        ((1.0, 2.0), (np.array([3]), np.array([4.0]), np.array([5.0]))),
        ((), (np.array([1, 2]), np.array([3, 4]), np.array([5, 6]),
              np.array([0.25, 0.5]), np.array([1e-5, 1e16]))),
        ((1, 2, "empty"), (np.array([]), np.array([]))),
    ]
    ours = tmp_path / "ours.csv"
    write_csv(ours, header, blocks)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lead, columns in blocks:
            for values in zip(*(c.tolist() for c in columns)):
                writer.writerow([_fmt(x) for x in (*lead, *values)])
    assert ours.read_bytes() == oracle.read_bytes()
    assert b'"a,""b"""' in ours.read_bytes()
    assert b'50%,%d%%,"%s,%(x)s",0.5,3' in ours.read_bytes()


def test_write_csv_rejects_malformed_blocks(tmp_path):
    from spinstar.cli import write_csv

    path = tmp_path / "bad.csv"
    for blocks in ([((1,), ())],                                   # no column
                   [((), (np.arange(3), np.zeros(2)))],           # ragged
                   [((), (np.zeros(2, dtype=np.float32),))],      # not float64
                   [((), (np.array(["a", "b"]),))]):
        with pytest.raises((ValueError, TypeError)):
            write_csv(path, ["a", "b"], blocks)


def test_cli_import_leaves_out_the_optimizer_and_the_ode_solver():
    # only the fit, the gradient estimator and the full-space oracle use
    # them, so every other CLI call starts without their import cost
    import os
    import subprocess
    import sys

    import spinstar

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinstar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, spinstar.cli\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
