import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frontwave import fbsolver, model, semiwave
from frontwave.cli import main
from frontwave.config import _KNOWN_KEYS, ConfigError, RunConfig, build_params, sweep_cells

_REPO = Path(__file__).resolve().parents[1]

S1_BASE = """\
# symmetric benchmark
nonlinearity.name = saturating
nonlinearity.hp = 2.0
nonlinearity.hq = 1.0
nonlinearity.gp = 2.0
nonlinearity.gq = 1.0
model.d1 = 1.0
model.d2 = 1.0
model.a = 1.0
model.b = 1.0
model.mu1 = 1.0
model.mu2 = 1.0
"""


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


class TestRunConfig:
    def test_round_trip_unchanged(self):
        cfg = RunConfig.parse(S1_BASE + "model.boundary = neumann\n")
        assert RunConfig.parse(cfg.serialize()) == cfg
        assert RunConfig.parse(cfg.serialize()).serialize() == cfg.serialize()

    def test_comments_and_blank_lines_ignored(self):
        cfg = RunConfig.parse("# top\n\nmodel.d1 = 2.5\n")
        assert cfg.getfloat("model.d1") == 2.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("model.diffusion = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("model.d1 = 1\nmodel.d1 = 2\n")

    def test_bad_number_reported(self):
        cfg = RunConfig.parse("model.d1 = fast\n")
        with pytest.raises(ConfigError):
            cfg.getfloat("model.d1")

    def test_override_and_defaults(self):
        cfg = RunConfig.parse(S1_BASE)
        assert build_params(cfg).mu1 == 1.0
        cfg2 = cfg.override({"model.mu1": 0.25})
        assert build_params(cfg2).mu1 == 0.25

    def test_sweep_cells_cross_product(self):
        cfg = RunConfig.parse("sweep.h0 = 1,2\nsweep.amplitude = 0.2,0.4,0.6\n")
        cells = sweep_cells(cfg)
        assert len(cells) == 6
        assert {"init.h0", "init.amplitude"} <= set(cells[0])

    def test_sweep_mu_moves_both_coefficients(self):
        cells = sweep_cells(RunConfig.parse("sweep.mu = 0.5,1,2\n"))
        assert len(cells) == 3
        assert cells[0]["model.mu1"] == cells[0]["model.mu2"] == "0.5"


class TestDocumentedSchema:
    """The documents name exactly the keys the parser takes."""

    def test_config_tables_list_every_key(self):
        documented = set()
        for line in (_REPO / "docs" / "config.md").read_text().splitlines():
            if line.startswith("|"):  # the backticked keys of a table's first column
                documented.update(re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", line.split("|")[1]))
        assert documented == _KNOWN_KEYS

    @pytest.mark.parametrize("name", ["README.md", "docs/config.md"])
    def test_config_examples_parse(self, name):
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (_REPO / name).read_text(), re.M | re.S)
        # a fenced block whose first setting line reads key.name = ... is a config
        configs = [b for b in blocks if re.match(r"(\s*(#.*)?\n)*[a-z0-9_]+\.[a-z0-9_]+ *=", b)]
        assert configs
        for block in configs:
            RunConfig.parse(block)


@pytest.fixture()
def s1_speeds_cfg(tmp_path):
    text = S1_BASE + (
        "model.boundary = neumann\n"
        "numerics.dx_semiwave = 0.05\n"
    )
    return write_cfg(tmp_path / "speeds.cfg", text)


class TestSpeedsCommand:
    def test_benchmark_values(self, tmp_path, s1_speeds_cfg, capsys):
        out = tmp_path / "out"
        assert main(["speeds", "--config", s1_speeds_cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "speeds.json").read_text())
        assert payload["l0"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert payload["c_star"] == pytest.approx(2.0, abs=1e-6)
        assert 0.0 < payload["c0"] < payload["c_star"]
        assert payload["beta0"] == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert payload["profile_solves"] > 0 and payload["newton_steps"] > 0
        # the first solve, at c = 0, is the search's only cold one
        assert payload["cold_solves"] == 1
        assert len(payload["iterates"]) == payload["profile_solves"]
        assert payload["iterates"][0][0] == 0.0 and payload["iterates"][-1][0] == payload["c0"]

    def test_reruns_are_byte_identical(self, tmp_path, s1_speeds_cfg):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["speeds", "--config", s1_speeds_cfg, "--out", str(out1)])
        main(["speeds", "--config", s1_speeds_cfg, "--out", str(out2)])
        assert (out1 / "speeds.json").read_bytes() == (out2 / "speeds.json").read_bytes()

    def test_subcritical_exits_2_naming_quantity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sub.cfg",
                        "nonlinearity.hp = 0.9\nnonlinearity.gp = 0.9\n")
        assert main(["speeds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "R0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("speeds", "numerics.dx_semiwave", "17"),  # 12/beta(0) = 16.97: one cell
        ("speeds", "numerics.dx_semiwave", "50"),
    ])
    def test_semiwave_grid_without_interior_node_exits_2(self, tmp_path, capsys,
                                                         command, key, value):
        cfg = write_cfg(tmp_path / "g.cfg", S1_BASE + f"{key} = {value}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "ValueError: numerics.dx_semiwave" in err and "x_max" in err

    def test_root_finder_failure_exits_3(self, tmp_path, s1_speeds_cfg, monkeypatch):
        # one Newton step cannot reach lambda* (c*) or beta: NoConvergence is a solver failure
        def one_step(*args, **kwargs):
            return model._newton_root(*args, **{**kwargs, "maxiter": 1})

        monkeypatch.setattr(semiwave, "_newton_root", one_step)
        out = tmp_path / "out"
        assert main(["speeds", "--config", s1_speeds_cfg, "--out", str(out)]) == 3
        assert (out / "FAILED").read_text().startswith("NoConvergence:")


def test_cli_import_loads_only_flapack_from_scipy():
    # a fresh interpreter: the test session itself imports scipy.linalg and
    # scipy.optimize; the CLI needs scipy's LAPACK wrapper and no package
    # init, and only sweep --workers > 1 needs the process pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, frontwave.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.f2py', "
            "'multiprocessing', 'concurrent.futures.process'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"


SIM_NEUMANN = S1_BASE + """\
model.boundary = neumann
init.h0 = 2.0
init.shape = cosine-bump
init.amplitude = 0.5
init.nodes = 201
numerics.n = 100
numerics.dx_semiwave = 0.05
stop.t_end = 24.0
output.cadence = 0.1
output.snapshots = 12,24
"""

SIM_VANISH = S1_BASE + """\
model.boundary = dirichlet
init.h0 = 0.2
init.shape = sine
init.amplitude = 0.01
init.nodes = 101
numerics.n = 100
numerics.dx_semiwave = 0.05
stop.t_end = 50.0
output.cadence = 0.01
"""


class TestSimulateCommand:
    def test_spreading_run_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "sim.cfg", SIM_NEUMANN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] is False
        assert manifest["seedless"] is True
        names = {entry["name"] for entry in manifest["files"]}
        assert names == {"trace.csv", "snapshots.csv", "report.json"}
        import hashlib
        for entry in manifest["files"]:
            blob = (out / entry["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]
        report = json.loads((out / "report.json").read_text())
        assert report["classification"] == "Spreading"
        assert report["c_hat"] > 0.0
        run = report["run"]
        assert set(run) == {"steps", "rejected", "dt_min", "dt_max", "dt_mean"}
        assert run["steps"] > 0 and 0.0 < run["dt_min"] <= run["dt_mean"] <= run["dt_max"]
        assert run["dt_mean"] * run["steps"] == pytest.approx(24.0, rel=1e-12)  # stop.t_end
        search = report["c0_search"]
        assert set(search) == {"profile_solves", "newton_steps", "cold_solves", "iterates"}
        assert 1 <= search["profile_solves"] <= 7
        assert search["newton_steps"] >= search["profile_solves"]
        assert search["cold_solves"] == 1
        assert [len(it) for it in search["iterates"]] == [2] * search["profile_solves"]

    def test_report_without_c0_has_null_search(self, tmp_path, capsys):
        # mu1 = mu2 = 0: the front never moves and there is no c0 to find
        text = RunConfig.parse(SIM_NEUMANN).override(
            {"model.mu1": "0", "model.mu2": "0", "stop.t_end": "1"}).serialize()
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path / "m0.cfg", text),
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["c0_search"] is None

    def test_vanishing_run_classified(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "van.cfg", SIM_VANISH)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classification"] == "Vanishing"

    @pytest.mark.parametrize("key, value", [
        ("output.cadence", "0"),         # would never advance the next trace sample
        ("numerics.dt_cap", "0"),        # no longer a key: the error controller sets dt
        ("numerics.cfl", "-1"),          # no longer a key either
        ("numerics.dx_semiwave", "0"),   # would divide by zero in the profile grid
        ("numerics.x_max", "-5"),        # no longer a key: x_max is 12/beta(c)
        ("numerics.c_tol", "0"),         # no longer a key: a constant of the c0 search
        ("numerics.f_tol", "1e-30"),     # no longer a key either
        ("init.amplitude", "nan"),       # would reach the tridiagonal solve
        ("init.h0", "nan"),
        ("stop.t_end", "nan"),
        ("model.d1", "nan"),
        ("model.mu1", "inf"),
        ("nonlinearity.hp", "nan"),
        ("output.snapshots", "2,nan,4"),  # the NaN would block the t = 4 snapshot
        ("output.snapshots", "-1,4"),     # would be written as a t = 0 snapshot
        ("stop.x_budget", "nan"),         # no longer a key: runs stop at t_end or vanishing
        ("stop.x_budget", "-3"),
    ])
    def test_bad_value_rejected_before_run(self, tmp_path, key, value):
        # replaced in the text, so a removed key reaches the CLI too
        kept = [line for line in SIM_NEUMANN.splitlines() if line.partition("=")[0].strip() != key]
        cfg = write_cfg(tmp_path / "bad.cfg", "\n".join(kept + [f"{key} = {value}", ""]))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "trace.csv").exists()

    def test_solver_failure_exits_3_with_marker(self, tmp_path, monkeypatch):
        # no profile meets |F(c0)| <= 1e-30, so find_c0 fails after the run
        monkeypatch.setattr(semiwave, "_F_TOL", 1e-30)
        text = RunConfig.parse(SIM_NEUMANN).override(
            {"stop.t_end": "1", "numerics.n": "40"}).serialize()
        cfg = write_cfg(tmp_path / "fail.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert (out / "FAILED").read_text().startswith("SolverError:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] is True
        assert [entry["name"] for entry in manifest["files"]] == ["FAILED"]

    def test_step_size_collapse_exits_3_with_marker(self, tmp_path, monkeypatch):
        # a zero error tolerance rejects every step until dt hits its floor
        monkeypatch.setattr(fbsolver, "_LTE_TOL", 0.0)
        text = RunConfig.parse(SIM_NEUMANN).override({"stop.t_end": "1"}).serialize()
        cfg = write_cfg(tmp_path / "collapse.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert (out / "FAILED").read_text().startswith("StepSizeCollapse:")
        assert json.loads((out / "manifest.json").read_text())["failed"] is True

    def test_output_dir_collision_exits_4(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SIM_NEUMANN)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(["simulate", "--config", cfg, "--out", str(blocker)]) == 4

    def test_workers_is_a_sweep_flag_only(self, tmp_path):
        cfg = write_cfg(tmp_path / "sim.cfg", SIM_NEUMANN)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


SIM_SHORT = S1_BASE + """\
model.boundary = neumann
init.h0 = 2.0
init.shape = cosine-bump
init.amplitude = 0.5
numerics.n = 100
stop.t_end = 5.0
output.cadence = 0.1
"""


class TestStepRejection:
    """Configs whose IMEX Euler steps leave a negative density, a NaN or a
    negative front speed: the controller rejects such a step and retries it
    smaller, and refuses a run that stalls with StepSizeCollapse."""

    @staticmethod
    def run(tmp_path, key, value):
        text = RunConfig.parse(SIM_SHORT).override({key: value}).serialize()
        out = tmp_path / "out"
        return main(["simulate", "--config", write_cfg(tmp_path / "r.cfg", text),
                     "--out", str(out)]), out

    @pytest.mark.parametrize("key, value", [
        ("model.mu1", "1e3"),
        ("model.mu1", "1e4"),       # these two also need the front-speed sign checked:
        ("model.mu1", "1e5"),       # a guarded state can still give h' < 0
        ("init.amplitude", "1e3"),
    ])
    def test_failed_checks_are_rejected(self, tmp_path, capsys, key, value):
        code, out = self.run(tmp_path, key, value)
        assert code == 0
        run = json.loads((out / "report.json").read_text())["run"]
        assert run["rejected"] >= 1

    @pytest.mark.parametrize("key, value", [
        ("init.h0", "1e-6"),  # dt falls below its floor at t = 0
        ("model.d1", "1e-8"),  # every other attempt rejected: _MAX_REJECTED in one interval
    ])
    def test_stalled_run_collapses(self, tmp_path, key, value):
        code, out = self.run(tmp_path, key, value)
        assert code == 3
        assert (out / "FAILED").read_text().startswith("StepSizeCollapse:")


SWEEP_SMALL = S1_BASE + """\
model.boundary = neumann
init.shape = cosine-bump
init.amplitude = 0.5
init.h0 = 2.0
init.nodes = 201
numerics.n = 60
stop.t_end = 3.0
output.cadence = 0.02
sweep.h0 = 1.0,2.0
"""


class TestSweepCommand:
    def test_worker_count_invariance(self, tmp_path):
        cfg = write_cfg(tmp_path / "sw.cfg", SWEEP_SMALL)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "outcomes.csv").read_bytes() == (out2 / "outcomes.csv").read_bytes()

    def test_degenerate_sweep_matches_simulate(self, tmp_path, capsys):
        sim_cfg = write_cfg(tmp_path / "sim.cfg", SIM_NEUMANN)
        out_sim = tmp_path / "sim"
        main(["simulate", "--config", sim_cfg, "--out", str(out_sim)])
        report = json.loads((out_sim / "report.json").read_text())

        sweep_cfg = write_cfg(tmp_path / "one.cfg", SIM_NEUMANN + "sweep.h0 = 2.0\n")
        out_sw = tmp_path / "sw"
        main(["sweep", "--config", sweep_cfg, "--out", str(out_sw)])
        lines = (out_sw / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert row["classification"] == report["classification"]
        assert float(row["c_hat"]) == pytest.approx(report["c_hat"], rel=1e-12)

    def test_cell_failures_recorded_not_fatal(self, tmp_path):
        bad = SWEEP_SMALL.replace("sweep.h0 = 1.0,2.0", "sweep.h0 = -1.0,2.0")
        cfg = write_cfg(tmp_path / "bad.cfg", bad)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "outcomes.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "ok" not in lines[1].rsplit(",", 1)[-1]
        assert lines[2].endswith("ok")

    def test_stefan_ladder_observation(self, tmp_path):
        # empirically the fitted speed grows with the Stefan coefficients;
        # observed and printed, not asserted as a model guarantee
        text = S1_BASE + (
            "model.boundary = neumann\ninit.shape = cosine-bump\n"
            "init.amplitude = 0.5\ninit.h0 = 3.0\ninit.nodes = 401\n"
            "numerics.n = 150\nstop.t_end = 25.0\noutput.cadence = 0.1\n"
            "output.snapshots = 25\nsweep.mu = 0.5,1,2\n"
        )
        cfg = write_cfg(tmp_path / "mu.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
        lines = (out / "outcomes.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["classification"] for r in rows] == ["Spreading"] * 3
        speeds = [float(r["c_hat"]) for r in rows]
        print("c_hat vs Stefan coefficient ladder {0.5,1,2}:", speeds,
              "nondecreasing:", speeds == sorted(speeds))


class TestSemiwaveCommand:
    def test_profile_export(self, tmp_path):
        cfg = write_cfg(tmp_path / "sw.cfg",
                        S1_BASE + "numerics.dx_semiwave = 0.05\nsemiwave.c = 0.0\n")
        out = tmp_path / "out"
        assert main(["semiwave", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,phi,psi"
        data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
        assert data[0, 1] == 0.0 and data[0, 2] == 0.0
        assert np.all(np.diff(data[:, 0]) > 0)
        summary = json.loads((out / "semiwave.json").read_text())
        assert summary["residual_inf"] <= 1e-8

    def test_speed_above_cstar_exits_2(self, tmp_path, capsys):
        # c* = 2 on the symmetric set: the request, not the solver, is at fault
        cfg = write_cfg(tmp_path / "fast.cfg", S1_BASE + "semiwave.c = 5\n")
        out = tmp_path / "out"
        assert main(["semiwave", "--config", cfg, "--out", str(out)]) == 2
        assert "SpeedOutOfRange" in capsys.readouterr().err
        assert not (out / "FAILED").exists()


class TestCheckCommand:
    def test_admissible_setup_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "ok.cfg", SIM_NEUMANN)
        assert main(["check", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hypotheses"]["passed"] is True
        assert payload["initial_data"]["passed"] is True

    def test_mismatched_shape_exits_2(self, tmp_path, capsys):
        bad = SIM_NEUMANN.replace("model.boundary = neumann", "model.boundary = dirichlet")
        cfg = write_cfg(tmp_path / "bad.cfg", bad)
        assert main(["check", "--config", cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["initial_data"]["passed"] is False
