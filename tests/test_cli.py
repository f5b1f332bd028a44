import json
import math

import numpy as np
import pytest

from spinstar import cli, experiments
from spinstar.chain import ChainSpec, DisorderSpec, loss_configurations
from spinstar.cli import (
    COMMAND_KEYS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PHYSICS,
    KEYS,
    RunConfig,
    _HANDLERS,
    _resolve_config,
    build_parser,
    config_hash,
    main,
    parse_config_file,
)
from spinstar.entangle import eof, max_entanglement_scan, register_pair_state
from spinstar.experiments import stable_seed
from spinstar.lindblad import IntegrationError, NoiseSpec, SectorPropagator, evolve_chain
from spinstar.star import DICKE_MAX_SPINS, StarSpec, dicke_state, star_spectrum_analytic

FAST = ["--samples", "301"]


def run_cli(tmp_path, *args):
    return main([*args, "--outdir", str(tmp_path)])


def test_defaults_mirror_operating_point():
    defaults = {key: row[0] for key, row in KEYS.items()}
    assert defaults["r_nm"] == 10.0
    assert defaults["delta_ratio"] == 0.9
    assert defaults["kappa_hz"] == 26e3
    assert defaults["t2_ms"] == 1.0
    assert defaults["runs"] == 100
    assert defaults["variance"] == 0.25
    assert defaults["n"] == 3


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
    for key in ("command", "config", "config_sha256", "outputs"):
        assert man1[key] == man2[key]
    assert "seed" not in man1


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
    _, _, e, mult = np.array(star_spectrum_analytic(StarSpec(3, 1.0))).T
    expected = np.sort(np.repeat(e, mult.astype(int)))
    assert np.allclose(sorted(values), expected, atol=1e-9)


def test_spectrum_of_sixty_outer_spins(tmp_path):
    # the rows come from the multiplet degeneracies, not from the 2^61
    # levels: 1891 rows whose multiplicities count every level exactly
    assert run_cli(tmp_path, "spectrum", "--n", "60") == EXIT_OK
    header, *rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert header == "j,m,energy,multiplicity"
    assert len(rows) == 1891
    assert sum(int(row.rsplit(",", 1)[1]) for row in rows) == 2 ** 61


def test_spectrum_multiplicity_past_64_bits_exits_2(tmp_path, capsys):
    # N = 69 still fits the unsigned 64-bit integer column; at N = 70 the
    # largest multiplicity, both zero modes of a multiplet, does not, and
    # nothing is written
    assert run_cli(tmp_path / "fits", "spectrum", "--n", "69") == EXIT_OK
    capsys.readouterr()
    assert run_cli(tmp_path / "over", "spectrum", "--n", "70") == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spinstar-error code=2 kind=config")
    assert not (tmp_path / "over" / "spectrum.csv").exists()


def test_wstate_report(tmp_path):
    assert run_cli(tmp_path, "wstate", "--n", "3") == EXIT_OK
    doc = json.loads((tmp_path / "wstate.json").read_text())
    assert set(doc) == {"0", "1"}
    for outcome, entry in doc.items():
        assert abs(entry["probability"] - 0.5) < 1e-10
        assert entry["fidelity"] > 1 - 1e-10
    assert doc["0"]["excitations"] == 2
    assert doc["1"]["excitations"] == 1


def test_wstate_past_the_dicke_bound_exits_2(tmp_path, capsys):
    # a Dicke state holds 2^N amplitudes: past DICKE_MAX_SPINS the command is
    # refused before anything is allocated, with one error line and no file
    assert DICKE_MAX_SPINS == 23
    with pytest.raises(ValueError, match="at most 23"):
        dicke_state(24, 1)
    assert run_cli(tmp_path, "wstate", "--n", "25") == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["spinstar-error code=2 kind=config msg=Dicke state on 25 spins: "
                   "at most 23 are allowed"]
    assert list(tmp_path.iterdir()) == []


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
    ["--samples", "0"], ["--samples", "1"], ["--t-end-kt", "-5"], ["--t-end-kt", "inf"],
])
def test_degenerate_scan_grid_exits_2(tmp_path, capsys, flags):
    # evolve samples the same kind of grid as scan and rejects it alike
    for command in ("scan", "evolve"):
        code = run_cli(tmp_path, command, "--m", "3", *flags)
        assert code == EXIT_CONFIG, command
        assert capsys.readouterr().err.startswith("spinstar-error code=2 kind=config")


def test_corrupted_propagation_exits_4(tmp_path, capsys, monkeypatch):
    # a propagated pair state that fails its density check is a numerical
    # failure: B[0,last] beyond sqrt(B[0,0] B[last,last]) is not positive.
    # scan and evolve read the same probe rows
    on_grid = SectorPropagator.on_grid

    def corrupted(self, *args, **kwargs):
        times, values, k = on_grid(self, *args, **kwargs)
        values[:, 3] += 0.6
        return times, values, k

    monkeypatch.setattr(SectorPropagator, "on_grid", corrupted)
    for command in ("scan", "evolve"):
        assert run_cli(tmp_path, command, "--m", "3", *FAST) == EXIT_NUMERIC, command
        assert capsys.readouterr().err.startswith("spinstar-error code=4 kind=numeric")


@pytest.mark.parametrize("t2_ms", ["1e-8", "1e-9", "1e-10", "1e-12"])
def test_strong_dephasing_scans_on_the_dense_branch(tmp_path, t2_ms):
    # T2 from 10 ps down to 1 fs: the dense exponentials take up to 36
    # squarings, and the exactly conserved trace of the register pair must
    # survive them within DENSITY_TRACE_TOL, without renormalising
    for m in (3, 5, 7, 9, 11):
        assert run_cli(tmp_path, "scan", "--m", str(m), "--t2-ms", t2_ms) == EXIT_OK, m


@pytest.mark.parametrize("argv", [
    ["fit", "--ms", "3,5,7", "--t2s-ms", "1,1,1"],
    ["fit", "--ms", "3,3,5", "--t2s-ms", "0.5,1,2"],
    ["loss", "--ms", "1,2", "--n-lost", "3"],
    ["loss", "--ms", "5", "--n-lost", "3"],
    ["gradient", "--ms", "3", "--n-times", "0"],
    ["evolve", "--m", "3", "--delta-ratio", "1.5"],
], ids=["fit-t2s", "fit-ms", "loss-short", "loss-long", "gradient", "evolve"])
def test_configuration_errors_exit_2_before_scanning(tmp_path, capsys, monkeypatch, argv):
    # errors a configuration shows up front are found before the first
    # scan, and no output file is written
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a rejected configuration")

    monkeypatch.setattr("spinstar.experiments.max_entanglement_scan", no_scan)
    monkeypatch.setattr("spinstar.cli.max_entanglement_scan", no_scan)
    monkeypatch.setattr("spinstar.cli.sector_series", no_scan)
    assert run_cli(tmp_path, *argv, *FAST) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("spinstar-error code=2 kind=config")
    assert list(tmp_path.iterdir()) == []


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
    # an arm shorter than the loss count, or with no room for a gap
    # between two losses, has no admissible configuration
    code = run_cli(tmp_path, "loss", "--ms", "1,2", "--n-lost", "2", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "fig7b.csv").read_text().strip().splitlines()
    assert rows == ["m,n_lost,mean_em"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["notes"] == [f"m={m} n_lost=2: no admissible configurations" for m in (1, 2)]


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
    # the seed reaches the manifest only through the hashed config
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert "seed" not in man
    assert man["config"]["seed"] == 5


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


@pytest.mark.parametrize("flags", [
    ["--gx", "0"], ["--gx", "nan"], ["--gx", "inf"], ["--gy", "nan"], ["--gy=-inf"],
    # the separation is retired: any --d-nm is refused before a scan
    ["--d-nm", "0"], ["--d-nm", "-50"], ["--d-nm", "nan"], ["--d-nm", "inf"],
], ids=lambda flags: "".join(flags).lstrip("-"))
def test_gradient_rejects_bad_field_and_separation_before_scanning(
        tmp_path, capsys, monkeypatch, flags):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned a rejected configuration")

    monkeypatch.setattr("spinstar.cli.max_entanglement_scan", no_scan)
    assert run_cli(tmp_path, "gradient", "--ms", "3", *flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    if flags[0] == "--d-nm":
        assert f"unrecognized arguments: {' '.join(flags)}" in err
    else:
        assert err.startswith("spinstar-error code=2 kind=config")
    assert not (tmp_path / "gradient.json").exists()


def test_gradient_campaign_runs_a_negative_gradient(tmp_path):
    # the readout spans one period of |gx|; the estimates are magnitudes
    code = run_cli(tmp_path, "gradient", "--ms", "3", "--gx", "-10", "--gy", "-10",
                   "--n-times", "32", *FAST)
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "gradient.json").read_text())
    assert doc["true"]["gx"] == -10.0
    est = doc["estimates"]["3"]
    assert abs(est["gx"] - 10.0) / 10.0 < 1e-3
    assert abs(est["gy"] - 10.0) / 10.0 < 1e-3
    gdt = _csv_column(tmp_path / "fig8b.csv", "gamma_g_d_t")
    assert gdt[0] == 0.0 and abs(gdt[-1] - 2 * math.pi) < 1e-9


def test_evolve_campaign(tmp_path):
    code = run_cli(tmp_path, "evolve", "--m", "2", *FAST)
    assert code == EXIT_OK
    rows = (tmp_path / "evolve.csv").read_text().strip().splitlines()
    assert rows[0] == "time_kt,time_s,pop_register0,pop_register_end,n_exc,e_f"
    first = rows[1].split(",")
    assert float(first[2]) == pytest.approx(0.5)   # |+> population of |1>
    assert float(first[4]) == pytest.approx(0.5)


@pytest.mark.parametrize("register", ["plus", "one"])
def test_evolve_sector_csv_matches_the_full_space_oracle(tmp_path, register):
    # evolve reads the scan's probe rows through the scan's readings
    # check; the oracle integrates 2^n x 2^n states with RK45 on the same
    # grid, takes the populations from the diagonals of the states and
    # reads every pair by partial trace through the general Wootters
    # concurrence.  It runs at A3's tolerances: at the default rtol of
    # 1e-8 its populations drift by about 3e-8
    assert run_cli(tmp_path, "evolve", "--m", "2", "--register-state", register,
                   *FAST) == EXIT_OK
    header, *rows = (tmp_path / "evolve.csv").read_text().splitlines()
    assert header == "time_kt,time_s,pop_register0,pop_register_end,n_exc,e_f"
    sector = np.array([row.split(",") for row in rows], dtype=float)
    assert sector.shape == (301, 6)

    spec = ChainSpec(m_chain=2)
    traj = evolve_chain(spec, NoiseSpec(t2_s=1e-3), n_samples=301,
                        register_state=register, rtol=1e-10, atol=1e-14)
    n = traj.n_sites
    # excited[i, a]: whether site i (bit n-1-i of basis state a) is |1>
    excited = (np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    pops = np.diagonal(traj.states, axis1=1, axis2=2).real @ excited.T
    full = np.column_stack([spec.kappa_angular * traj.times_s, traj.times_s,
                            pops[:, 0], pops[:, -1], pops.sum(axis=1),
                            [eof(pair) for pair in register_pair_state(traj)]])
    assert np.abs(sector - full).max() < 1e-8   # every column


@pytest.mark.parametrize("m", ["3", "13"])
def test_evolve_reads_the_scan_grid(tmp_path, m):
    # on an explicit window the scan never extends, so its curve is the
    # evolve grid plus the inserted tau* row, cell for cell
    flags = ["--m", m, "--t-end-kt", "30", *FAST]
    assert run_cli(tmp_path / "scan", "scan", *flags) == EXIT_OK
    assert run_cli(tmp_path / "evolve", "evolve", *flags) == EXIT_OK

    def cells(path, *names):
        header, *rows = path.read_text().splitlines()
        cols = [header.split(",").index(name) for name in names]
        return [tuple(row.split(",")[c] for c in cols) for row in rows]

    curve = cells(tmp_path / "scan" / "fig3.csv", "tau_kt", "tau_s", "e_f")
    grid = cells(tmp_path / "evolve" / "evolve.csv", "time_kt", "time_s", "e_f")
    assert len(curve) == len(grid) + 1 == 302
    tau_row = next((i for i, (a, b) in enumerate(zip(curve, grid)) if a != b), len(grid))
    assert curve[:tau_row] + curve[tau_row + 1:] == grid


def test_readme_library_example_runs():
    # the README's Library block is the documented top-level API
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert 0.0 < result.e_m <= 1.0 and result.interior
    assert namespace["prob"] == pytest.approx(0.5)


def test_readme_key_table_lists_the_command_keys():
    # each row of the README's key table names its commands and their keys
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    head = "| command | keys"
    rows = readme[readme.index(head):].split("\n\n", 1)[0].splitlines()[2:]
    documented = {}
    for row in rows:
        commands, keys = (re.findall(r"`(\w+)`", cell) for cell in row.split("|")[1:3])
        documented.update((command, tuple(keys)) for command in commands)
    assert documented == COMMAND_KEYS


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
    # e_m is the scan of that ChainSpec.  A clean arm's couplings
    # kappa (r/d)^3 do not depend on the spacing r, so its exact E_m does
    # not either, and only disorder, whose variance is in nm^2, takes
    # --r-nm; kappa and the register ratio move every campaign
    def e_m(spec, t2_s=1e-3):
        return max_entanglement_scan(spec, NoiseSpec(t2_s=t2_s), n_samples=301).e_m

    def same(values, expected):
        assert values == [float(f"{x:.12g}") for x in expected]

    arm3 = ChainSpec(m_chain=3, **arm)
    every_campaign = "spacing_nm" not in arm
    if every_campaign:
        assert e_m(arm3) != e_m(ChainSpec(m_chain=3))
    else:
        assert abs(e_m(arm3) - e_m(ChainSpec(m_chain=3))) < 1e-12

    if every_campaign:
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
             variance_nm2=0.25, seed=stable_seed(0, "disorder", 3, run))))
          for run in range(2)])

    if every_campaign:
        assert run_cli(tmp_path / "loss", "loss", "--ms", "3", "--n-lost", "1", *flags,
                       *FAST) == EXIT_OK
        configs = sorted(loss_configurations(3, 1), key=sorted)
        same(_csv_column(tmp_path / "loss" / "fig7b.csv", "mean_em"),
             [float(np.mean([e_m(ChainSpec(m_chain=3, **arm, lost_sites=c))
                             for c in configs]))])


# Options that reached no output and are gone: a value given as a flag or
# as a config-file key now exits 2
REMOVED_OPTIONS = [("evolve", "method", "full"), ("wstate", "coupling", "2.5"),
                   ("gradient", "d_nm", "60")] + [
    (command, key, value)
    for command in ("evolve", "scan", "sweep", "fit", "loss", "gradient")
    for key, value in (("seed", "7"), ("r_nm", "20"))]


@pytest.mark.parametrize("command, key, value", REMOVED_OPTIONS,
                         ids=[f"{c}-{k}" for c, k, _ in REMOVED_OPTIONS])
def test_removed_options_exit_2(tmp_path, capsys, command, key, value):
    flag = "--" + key.replace("_", "-")
    assert run_cli(tmp_path / "flag", command, flag, value) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run_cli(tmp_path / "key", command, "--config", str(cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spinstar-error code=2 kind=config")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# A short run of every command, and one other valid value of each of its
# keys.  r = 20 nm is byte-identical to 10 nm wherever the spacing
# cancels; on the arm commands N only bounds the arm count, and N = 100
# breaks the bound at every M <= 42, so it moves the exit code to 3
KNOB_BASE = {
    "spectrum": [],
    "wstate": [],
    "evolve": ["--m", "3", "--samples", "101"],
    "scan": ["--m", "3", "--samples", "101"],
    "sweep": ["--ms", "3", "--samples", "101"],
    "fit": ["--ms", "3,4,5", "--t2s-ms", "0.5,1,2", "--samples", "101"],
    "disorder": ["--ms", "3", "--runs", "2", "--samples", "101"],
    "loss": ["--ms", "3", "--samples", "101"],
    "gradient": ["--ms", "3", "--n-times", "16", "--samples", "101"],
}
KNOB_VALUES = {
    "n": "100", "m": "4", "ms": "4", "coupling": "2.5", "outcome": "0", "r_nm": "20",
    "delta_ratio": "0.7", "kappa_hz": "13e3", "t2_ms": "0.5", "t_end_kt": "30",
    "samples": "102", "register_state": "one", "t2s_ms": "0.5,1,3", "runs": "3",
    "variance": "0.5", "seed": "7", "n_lost": "1", "gx": "12", "gy": "12",
    "n_times": "17",
}
# the scan refines tau* exactly near the grid maximum, so on a short arm
# `disorder` moves only when the grid gets too coarse to bracket the peak
KNOB_OVERRIDES = {("spectrum", "n"): "5", ("wstate", "n"): "5", ("fit", "ms"): "3,4,6",
                  ("disorder", "samples"): "11"}


def _results(outdir):
    """Output files but the manifest; scan.json without the parameters it
    echoes by name."""
    files = {}
    for path in sorted(outdir.iterdir()) if outdir.exists() else ():
        data = path.read_bytes()
        if path.name == "scan.json":
            doc = json.loads(data)
            data = json.dumps({k: v for k, v in doc.items()
                               if k != "config" and k not in KEYS})
        if path.name != "manifest.json":
            files[path.name] = data
    return files


@pytest.mark.parametrize("command", list(KNOB_BASE))
def test_every_key_moves_a_result(tmp_path, capsys, command):
    # a key whose other value leaves the exit code and every output byte
    # as they are reaches no result
    base = KNOB_BASE[command]
    want = (run_cli(tmp_path / "base", command, *base), _results(tmp_path / "base"))
    assert want[0] == EXIT_OK
    dead = []
    for key in COMMAND_KEYS[command]:
        value = KNOB_OVERRIDES.get((command, key), KNOB_VALUES[key])
        out = tmp_path / key
        got = run_cli(out, command, *base, "--" + key.replace("_", "-"), value)
        if (got, _results(out)) == want:
            dead.append(key)
    capsys.readouterr()
    assert dead == []


OUTPUTS = {
    "spectrum": ["spectrum.csv"],
    "wstate": ["wstate.json"],
    "evolve": ["evolve.csv"],
    "scan": ["fig3.csv", "scan.json"],
    "sweep": ["fig4a.csv", "fig4b.csv"],
    "fit": ["emgrid.csv", "fit.json"],
    "disorder": ["fig6.csv", "disorder_runs.csv"],
    "loss": ["fig7b.csv", "fig7cd.csv"],
    "gradient": ["fig8b.csv", "gradient.json"],
}


@pytest.mark.parametrize("command", list(KNOB_BASE))
def test_handlers_return_their_files_and_open_none(monkeypatch, command):
    # one writer: a handler returns each file's content by name, a CSV as
    # its (header, blocks) and anything else as a JSON document, and only
    # `run` puts them on disk
    def no_open(*args, **kwargs):
        raise AssertionError("a command handler opened a file")

    params = _resolve_config(build_parser().parse_args([command, *KNOB_BASE[command]])).params
    monkeypatch.setattr("spinstar.cli.open", no_open, raising=False)
    files, notes = _HANDLERS[command](params)
    assert list(files) == OUTPUTS[command]
    assert [isinstance(content, tuple) for content in files.values()] == [
        name.endswith(".csv") for name in files]
    assert notes == []


def test_fit_without_usable_points_writes_no_file(tmp_path, capsys):
    # at T2 of a few fs every e_m is 0, so the fit fails after its nine
    # scans; the grid it scanned is not left behind
    with pytest.warns(UserWarning, match="nonpositive"):
        assert run_cli(tmp_path, "fit", "--ms", "3,5,7", "--t2s-ms", "1e-9,2e-9,3e-9",
                       "--samples", "101") == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spinstar-error code=2 kind=config")
    assert list(tmp_path.iterdir()) == []


CAMPAIGNS = {
    "sweep": ["--ms", "3,5"],
    "fit": ["--ms", "3,4,5", "--t2s-ms", "0.5,1,2"],
    "disorder": ["--ms", "3", "--runs", "2"],
    "loss": ["--ms", "3", "--n-lost", "1"],
    "gradient": ["--ms", "3,5"],
}


@pytest.mark.parametrize("command", list(CAMPAIGNS))
def test_campaign_failing_in_its_second_scan_writes_no_file(tmp_path, capsys, monkeypatch,
                                                            command):
    # a campaign's files are written only once all of it has run
    scan, calls = experiments.max_entanglement_scan, []

    def second_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise IntegrationError("injected failure in the second scan")
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "max_entanglement_scan", second_fails)
    monkeypatch.setattr(experiments, "max_entanglement_scan", second_fails)
    assert run_cli(tmp_path, command, *CAMPAIGNS[command], "--samples", "101") == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spinstar-error code=4 kind=numeric")
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


# each command with the scans it runs: one per arm, disorder run or loss
# configuration (M = 4 loses one of 4 sites or one of 3 non-adjacent pairs,
# M = 1 one site and no pair)
SCAN_COUNTS = [
    (["scan", "--m", "5"], 1),
    (["sweep", "--ms", "5,3,3"], 3),
    (["fit", "--ms", "3,4,5", "--t2s-ms", "0.5,1,2"], 9),
    (["disorder", "--ms", "4,3", "--runs", "3"], 6),
    (["loss", "--ms", "4,1"], 8),
    (["gradient", "--ms", "5,3"], 2),
]


@pytest.mark.parametrize("argv, scans", SCAN_COUNTS, ids=[a[0] for a, _ in SCAN_COUNTS])
def test_every_scan_goes_through_the_counted_names(tmp_path, monkeypatch, argv, scans):
    # the benchmark counts scans by wrapping these two names, so each scan a
    # command runs must be looked up through one of them
    calls = []
    for module in (cli, experiments):
        def counted(*args, _scan=getattr(module, "max_entanglement_scan"), **kwargs):
            calls.append(args)
            return _scan(*args, **kwargs)

        monkeypatch.setattr(module, "max_entanglement_scan", counted)
    assert run_cli(tmp_path, *argv, "--samples", "101") == EXIT_OK
    assert len(calls) == scans


@pytest.mark.parametrize("where", ["file", "under-file", "name-taken"])
def test_unusable_outdir_exits_2(tmp_path, capsys, monkeypatch, where):
    # an outdir that is a file or lies under one fails before any scan; an
    # output name taken by a directory fails at the write.  Each is one
    # configuration error line that names the failed step, with nothing
    # written
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    outdir = {"file": blocker, "under-file": blocker / "out",
              "name-taken": tmp_path / "out"}[where]
    if where == "name-taken":
        (outdir / "fig3.csv").mkdir(parents=True)
    scan, scanned = cli.max_entanglement_scan, []

    def recorded(*args, **kwargs):
        scanned.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "max_entanglement_scan", recorded)
    before = sorted(tmp_path.rglob("*"))
    assert main(["scan", "--m", "3", *FAST, "--outdir", str(outdir)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("spinstar-error code=2 kind=config")
    step = "cannot write output" if where == "name-taken" else "cannot create --outdir"
    assert f"msg={step} " in err[0]
    assert sorted(tmp_path.rglob("*")) == before
    assert bool(scanned) == (where == "name-taken")


def test_os_error_in_a_computation_is_not_a_configuration_error(tmp_path, monkeypatch):
    # only creating the outdir and writing the outputs turn an OSError into
    # exit 2; one raised while computing is not taken for bad configuration
    def fails(*args, **kwargs):
        raise OSError("injected failure in the scan")

    monkeypatch.setattr(cli, "max_entanglement_scan", fails)
    with pytest.raises(OSError, match="injected"):
        main(["scan", "--m", "3", *FAST, "--outdir", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


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
    # only the fit and the full-space oracle use them, so every other CLI
    # call starts without their import cost
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


def test_short_arms_and_non_scanning_commands_load_no_scipy(tmp_path):
    # scipy serves only the Chebyshev branch (n^2 > DENSE_GRID_MAX, M >= 12
    # without losses), the exponent fit and the full-space oracle; a fresh
    # interpreter running the commands below, gradient sensing and arms up
    # to M = 11 included, never imports it, and the long arm still scans
    # once the branch binds it
    import os
    import subprocess
    import sys

    import spinstar

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinstar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from spinstar.cli import main\n"
            "out = ['--outdir', sys.argv[1]]\n"
            "codes = [main(['spectrum', *out]), main(['wstate', *out]),\n"
            "         main(['scan', '--m', '3', *out]), main(['scan', '--m', '5', *out]),\n"
            "         main(['gradient', '--ms', '3,5', *out]),\n"
            "         main(['scan', '--m', '11', *out]),\n"
            "         main(['disorder', '--ms', '7,9,11', '--runs', '2', '--samples', '201',\n"
            "               *out]),\n"
            "         main(['gradient', '--ms', '3,7,11', *out])]\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m == 'scipy' or m.startswith('scipy.'))\n"
            "print('loaded:', codes, loaded())\n"
            "code = main(['scan', '--m', '21', '--samples', '301', *out])\n"
            "print('loaded:', code, 'scipy' in loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    lines = [line for line in out.stdout.splitlines() if line.startswith("loaded:")]
    assert lines == ["loaded: [0, 0, 0, 0, 0, 0, 0, 0] []", "loaded: 0 True"]


def test_results_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # importing spinstar pins one BLAS thread unless a variable is set, so
    # fresh runs with the variables unset write the bytes of runs with them at 1
    import os
    import subprocess
    import sys

    import spinstar

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinstar.__file__)))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = {}
    for setting in ("unset", "1"):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        if setting == "1":
            env.update(dict.fromkeys(blas, "1"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for argv in (["scan", "--m", "11"], ["gradient", "--ms", "3,7,11"]):
            outdir = tmp_path / setting / argv[0]
            subprocess.run([sys.executable, "-m", "spinstar.cli", *argv, "--outdir",
                            str(outdir)], env=env, capture_output=True, check=True,
                           timeout=120)
            manifest = json.loads((outdir / "manifest.json").read_text())
            del manifest["wall_time_s"]
            outputs[setting, argv[0]] = (manifest, {
                path.name: path.read_bytes() for path in sorted(outdir.iterdir())
                if path.name != "manifest.json"})
    for command in ("scan", "gradient"):
        assert outputs["unset", command] == outputs["1", command], command
