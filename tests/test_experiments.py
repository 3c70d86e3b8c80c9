import json
import math
import subprocess
import sys

import numpy as np
import pytest

from backflow import transition_thetas
from backflow.experiments import (
    default_config,
    resolve_config,
    run_figure,
    write_csv,
    write_metadata,
)

TINY_FIG1 = {"pairs": 40, "grid": 801, "rows": 8}
TINY_FIG4 = {"pairs": 40, "grid": 801, "rows": 10}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "backflow", *args], capture_output=True, text=True
    )


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


class TestConfigResolution:
    def test_defaults_exist_for_every_figure(self):
        for fig in ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"):
            cfg = default_config(fig)
            assert cfg["seed"] == 42
            assert "out" in cfg

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 7, "fig1": {"pairs": 11}}))
        cfg = resolve_config("fig1", str(cfg_file), {"pairs": 5})
        assert cfg["seed"] == 7  # from config (flat key)
        assert cfg["pairs"] == 5  # flag wins over the nested section
        cfg = resolve_config("fig1", str(cfg_file), {})
        assert cfg["pairs"] == 11  # nested section wins over default

    def test_unknown_override_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown option"):
            resolve_config("fig1", None, {"bogus": 1})
        cfg_file = tmp_path / "cfg.json"
        for loaded in ({"sigmaa": 2}, {"fig5": {"sigmaa": 2}}, {"fig1": {"sigmaa": 2}}):
            cfg_file.write_text(json.dumps(loaded))
            with pytest.raises(ValueError, match="unknown option 'sigmaa'"):
                resolve_config("fig5", str(cfg_file))
        # A key another figure knows still passes.
        cfg_file.write_text(json.dumps({"theta": 0.5, "fig1": {"rows": 3}}))
        assert resolve_config("fig5", str(cfg_file)) == default_config("fig5")

    def test_degenerate_counts_are_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            run_figure("fig1", resolve_config("fig1", None, {"rows": 0}))
        with pytest.raises(ValueError, match="pairs"):
            run_figure("fig4", resolve_config("fig4", None, {"pairs": -1}))
        with pytest.raises(ValueError, match="theta_count"):
            run_figure("fig3a", resolve_config("fig3a", None, {"theta_count": 0}))
        with pytest.raises(ValueError, match="ratio_count"):
            run_figure("fig5", resolve_config("fig5", None, {"ratio_count": 0}))


class TestFig1:
    def test_ordering_and_zero_rows(self):
        cfg = resolve_config("fig1", None, TINY_FIG1)
        header, rows = run_figure("fig1", cfg)
        assert header == ["tau_c", "integral_optimal", "integral_random_max"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] <= arr[:, 1] + 1e-12)
        assert np.all(arr[:, 1] > 0.0)  # default rows start past the revival onset

    def test_worker_fanout_is_deterministic(self, tmp_path):
        outputs = []
        for workers in (1, 3):
            cfg = resolve_config("fig1", None, {**TINY_FIG1, "workers": workers})
            header, rows = run_figure("fig1", cfg)
            path = tmp_path / f"w{workers}.csv"
            write_csv(path, header, rows)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_full_revival_row_value(self):
        # Ending the sweep at 2 pi / dw puts the coherence zero on the master
        # grid; the optimal integral at that row is the full rise from zero
        # to the sampled peak.
        cfg = resolve_config(
            "fig1",
            None,
            {
                "pairs": 10,
                "grid": 801,
                "rows": 9,
                "tauc_start": 1.2 * math.pi / 10,
                "tauc_stop": 2 * math.pi / 10,
            },
        )
        _, rows = run_figure("fig1", cfg)
        arr = np.array(rows)
        assert arr[-1, 0] == pytest.approx(2 * math.pi / 10, abs=1e-12)
        assert arr[-1, 1] == pytest.approx(0.8271098596647776, abs=1e-4)

    def test_rows_before_first_minimum_have_no_backflow(self):
        cfg = resolve_config(
            "fig1",
            None,
            {
                "pairs": 15,
                "grid": 801,
                "rows": 5,
                "tauc_start": 0.3 * math.pi / 10,
                "tauc_stop": 0.9 * math.pi / 10,
            },
        )
        _, rows = run_figure("fig1", cfg)
        arr = np.array(rows)
        assert np.max(arr[:, 1:3]) == 0.0


class TestFig2:
    def test_columns_and_transition_structure(self):
        cfg = resolve_config("fig2", None, {"theta_count": 9, "tauc_count": 3, "grid": 801})
        header, rows = run_figure("fig2", cfg)
        assert header == ["tau_c", "theta", "N_analytic", "N_numeric", "theta1", "theta2"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] >= 0.0)
        assert np.all(arr[:, 3] >= 0.0)
        # Below the first transition angle the closed form is exactly zero.
        below = arr[arr[:, 1] < arr[:, 4] - 1e-9]
        assert below.size and np.all(below[:, 2] == 0.0)
        # Both angles are constant per control time and complementary.
        for tau_c in np.unique(arr[:, 0]):
            sub = arr[arr[:, 0] == tau_c]
            assert np.ptp(sub[:, 4]) == 0.0
            assert sub[0, 4] + sub[0, 5] == pytest.approx(math.pi / 2, abs=1e-9)
        # The closed form tracks the sampled integrals to the known offset.
        assert np.max(np.abs(arr[:, 2] - arr[:, 3])) <= 2e-2
        # Balanced weights at the full-revival control time.
        target = arr[
            (np.abs(arr[:, 0] - 2 * math.pi / 10) < 1e-12)
            & (np.abs(arr[:, 1] - math.pi / 4) < 1e-12)
        ]
        assert target.shape[0] == 1
        assert target[0, 2] == pytest.approx(math.exp(-0.5 * (2 * math.pi / 10) ** 2), abs=1e-12)


class TestFig3:
    def test_variant_a_orderings(self):
        cfg = resolve_config("fig3a", None, {"theta_count": 15})
        header, rows = run_figure("fig3a", cfg)
        assert header == ["theta", "N", "F1", "F2"]
        arr = np.array(rows)
        theta1, theta2 = transition_thetas(10.0, 1.0, 1.5 * math.pi / 10)
        assert arr[0, 0] == pytest.approx(theta1, abs=1e-12)
        assert arr[-1, 0] == pytest.approx(theta2, abs=1e-12)
        assert arr[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert arr[-1, 1] == pytest.approx(0.0, abs=1e-9)
        half = arr[arr[:, 0] <= math.pi / 4 + 1e-12]
        assert np.all(np.diff(half[:, 1]) >= -1e-12)
        assert np.all(np.diff(half[:, 2]) <= 1e-12)
        assert np.all(np.diff(half[:, 3]) <= 1e-12)

    def test_variant_b_theta_independence(self):
        cfg = resolve_config("fig3b", None, {"theta_count": 15})
        _, rows = run_figure("fig3b", cfg)
        arr = np.array(rows)
        f1 = 0.5 * (1.0 + 1.0) * math.exp(-((2 * math.pi / 10) ** 2))
        f2 = 0.5 * (0.25 + 0.16) * math.exp(-((2 * math.pi / 10) ** 2))
        assert np.max(np.abs(arr[:, 2] - f1)) <= 1e-12
        assert np.max(np.abs(arr[:, 3] - f2)) <= 1e-12


class TestFig4:
    def test_ordering_and_pre_revival_zeros(self):
        cfg = resolve_config("fig4", None, TINY_FIG4)
        header, rows = run_figure("fig4", cfg)
        assert header == ["t_c", "integral_optimal", "integral_random_max"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] <= arr[:, 1] + 1e-12)
        # Rows before the first zero of chi carry no backflow at all.
        eps = math.sqrt(abs(0.01 - 0.2))
        t_zero = 2.0 * (math.pi - math.atan(eps / 0.1)) / eps
        early = arr[arr[:, 0] < t_zero]
        assert early.size and np.max(early[:, 1:3]) == 0.0

    def test_revival_row_approaches_closed_form(self):
        # The kink of |chi| at its zero is off-grid, so the coarse-grid value
        # sits a few 1e-3 below exp(-pi G / eps) here.
        cfg = resolve_config("fig4", None, {"pairs": 10, "grid": 801})
        _, rows = run_figure("fig4", cfg)
        arr = np.array(rows)
        eps = math.sqrt(abs(0.01 - 0.2))
        t_rev = 2 * math.pi / eps
        row = arr[np.argmin(np.abs(arr[:, 0] - t_rev))]
        assert row[0] == pytest.approx(t_rev, abs=1e-9)
        assert row[1] == pytest.approx(math.exp(-math.pi * 0.1 / eps), abs=5e-3)


class TestFig5:
    def test_monotone_columns_and_revival_value(self):
        cfg = resolve_config("fig5")
        header, rows = run_figure("fig5", cfg)
        assert header == ["ratio", "N", "F1", "F2"]
        arr = np.array(rows)
        assert np.all(np.diff(arr[:, 1]) < 0.0)
        assert np.all(np.diff(arr[:, 2]) < 0.0)
        assert np.all(np.diff(arr[:, 3]) < 0.0)
        assert np.all((arr[:, 1] >= 0) & (arr[:, 2] >= 0) & (arr[:, 2] <= 1))
        assert np.all((arr[:, 3] >= 0) & (arr[:, 3] <= 1))
        cfg = resolve_config(
            "fig5", None, {"ratio_min": 0.1, "ratio_max": 0.5, "ratio_count": 2}
        )
        _, rows = run_figure("fig5", cfg)
        assert rows[0][1] == pytest.approx(0.4863966750707109, abs=1e-12)

    def test_lossless_limit(self):
        cfg = resolve_config(
            "fig5", None, {"ratio_min": 1e-6, "ratio_max": 1e-5, "ratio_count": 2}
        )
        _, rows = run_figure("fig5", cfg)
        assert rows[0][1] > 0.997
        assert rows[0][2] > 0.99  # F1 for (1,-1,1) approaches 1

    def test_rejects_grid_touching_endpoints(self):
        cfg = resolve_config("fig5", None, {"ratio_min": 0.0})
        with pytest.raises(ValueError, match="inside"):
            run_figure("fig5", cfg)


class TestCsvAndMetadata:
    def test_format_and_rerun_identity(self, tmp_path):
        cfg = resolve_config("fig5", None, {"ratio_count": 5, "out": str(tmp_path / "a.csv")})
        header, rows = run_figure("fig5", cfg)
        write_csv(cfg["out"], header, rows)
        write_metadata(cfg["out"], "fig5", cfg)
        text = (tmp_path / "a.csv").read_text()
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.splitlines()[0] == "ratio,N,F1,F2"
        # 17 significant digits reproduce the doubles exactly.
        value = float(text.splitlines()[1].split(",")[1])
        assert value == rows[0][1]
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["figure"] == "fig5"
        assert meta["seed"] == 42
        assert meta["config"]["ratio_count"] == 5
        assert meta["version"]

        header2, rows2 = run_figure("fig5", cfg)
        write_csv(tmp_path / "b.csv", header2, rows2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCli:
    def test_kappa_near_zero_example(self):
        out = run_cli("kappa", "--theta", "0.7854", "--dw", "10", "--sigma", "1",
                      "--tau", "0.31416")
        assert out.returncode == 0
        assert abs(float(out.stdout)) < 1e-4

    def test_chi_value(self):
        out = run_cli("chi", "--gamma0", "1", "--width", "0.1", "--t", "0")
        assert out.returncode == 0
        assert float(out.stdout) == 1.0

    def test_transition_values(self):
        out = run_cli("transition", "--dw", "10", "--sigma", "1", "--tauc", "0.62832")
        assert out.returncode == 0
        theta1, theta2 = (float(x) for x in out.stdout.split())
        assert theta1 == pytest.approx(0.26540914197793963, abs=1e-4)
        assert theta2 == pytest.approx(math.pi / 2 - theta1, abs=1e-6)

    def test_fidelity_value(self):
        out = run_cli("fidelity", "--c", "1,-1,1", "--kappa", "0.5")
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(0.25, abs=1e-12)

    def test_measure_divergence_prints_inf(self):
        out = run_cli(
            "measure", "--measure", "divisibility", "--family", "dephasing",
            "--theta", "0.7853981633974483", "--t1", "0.6283185307179586",
            "--grid", "4001",
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "inf"
        assert "divergent at" in out.stderr

    def test_measure_blp_matches_api(self):
        out = run_cli(
            "measure", "--measure", "blp", "--family", "lorentz",
            "--gamma0", "1", "--width", "0.1", "--t1", "14.414568",
            "--grid", "2001", "--pairs", "0",
        )
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(0.48639, abs=5e-3)

    def test_malformed_flags_exit_nonzero_with_usage(self):
        out = run_cli("kappa", "--theta", "0.1")
        assert out.returncode != 0
        assert "usage" in out.stderr.lower()
        out = run_cli("fidelity", "--c", "1,-1", "--kappa", "0.5")
        assert out.returncode == 1
        assert out.stderr.startswith("error:")

    def test_figure_command_writes_csv_and_metadata(self, tmp_path):
        out_path = tmp_path / "fig5.csv"
        out = run_cli("fig5", "--ratio-count", "4", "--out", str(out_path))
        assert out.returncode == 0
        assert out.stdout.strip() == str(out_path)
        header, arr = read_table(out_path)
        assert header == ["ratio", "N", "F1", "F2"]
        assert arr.shape == (4, 4)
        assert (tmp_path / "fig5.csv.meta.json").exists()

    def test_unknown_config_key_exits_with_one_error_line(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"sigmaa": 2}))
        out = run_cli("fig3a", "--config", str(cfg_file), "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "'sigmaa'" in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_figure_command_respects_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"fig5": {"ratio_count": 3}}))
        out_path = tmp_path / "f.csv"
        out = run_cli("fig5", "--config", str(cfg_file), "--out", str(out_path))
        assert out.returncode == 0
        _, arr = read_table(out_path)
        assert arr.shape == (3, 4)


class TestPackage:
    # The top-level names before __all__ was derived from the submodules.
    EXPORTS = {
        "__version__", "AmplitudeDampingChannel", "ChannelFamily", "DephasingChannel",
        "DephasingSpec", "LorentzSpec", "MeasureReport", "NoTransitionError", "PAULI_X",
        "PAULI_Y", "PAULI_Z", "PAULIS", "QuadratureError", "SingularIntermediateMapError",
        "StatePair", "Trajectory", "analytic_blp_dephasing", "apply_amplitude_damping",
        "apply_dephasing", "assert_density_matrix", "bell_diagonal", "blp_integral",
        "blp_search", "chi", "choi_state", "correlation_matrix", "divisibility_measure",
        "entanglement_measure", "hermitian_eigenvalues", "intermediate_choi",
        "is_density_matrix", "kappa_abs", "kappa_complex", "kappa_quadrature",
        "maximally_entangled", "mutual_info_measure", "negativity", "optimal_pair",
        "partial_trace", "partial_transpose", "rsp_fidelity", "sample_random_pair",
        "tensor_product", "trace_distance", "trace_distance_trajectory", "trace_norm",
        "transition_thetas", "von_neumann_entropy",
    }

    def test_top_level_exports(self):
        import backflow

        names = backflow.__all__
        assert len(names) == len(set(names))
        assert set(names) - self.EXPORTS == {"hermitian_part"}
        assert self.EXPORTS <= set(names)
        assert all(hasattr(backflow, name) for name in names)
        assert not hasattr(backflow, "run_figure")
