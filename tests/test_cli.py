"""Command-line surface: files, schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from xjulia.cli import main

PRESET_FLAGS = ["--preset", "x1", "--alpha", "0.02", "--beta", "1.2"]


def run(argv, capsys=None):
    code = main(argv)
    return code


def read_json(path):
    return json.loads(path.read_text())


class TestZeros:
    def test_two_indices(self, tmp_path):
        out = tmp_path / "z"
        assert run(["zeros", *PRESET_FLAGS, "--n-list", "10,50",
                    "--out", str(out)]) == 0
        for n in (10, 50):
            assert (out / f"zeros_n{n}.csv").exists()
        d10 = read_json(out / "zeros_n10.json")
        d50 = read_json(out / "zeros_n50.json")
        assert d50["ks"] < d10["ks"]
        assert d50["exc_dist"] < d10["exc_dist"]
        assert d10["schema_version"] == 1

    def test_empty_n_list_no_files(self, tmp_path):
        out = tmp_path / "empty"
        assert run(["zeros", *PRESET_FLAGS, "--n-list", "", "--out", str(out)]) == 0
        assert not out.exists() or not list(out.iterdir())

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"family": ')
        assert run(["zeros", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "field" in err

    def test_raw_family_rejected(self, tmp_path, capsys):
        assert run(["zeros", "--raw-poly", "0,0,1", "--n", "5",
                    "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "family"

    def test_unsorted_n_list_rejected(self, tmp_path, capsys):
        assert run(["zeros", *PRESET_FLAGS, "--n-list", "10,5",
                    "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "n_list"

    def test_degree_cap_enforced(self, tmp_path, capsys):
        assert run(["zeros", *PRESET_FLAGS, "--n", "60",
                    "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "n_list"

    def test_numerical_failure_exit_one(self, tmp_path, capsys):
        # structurally valid JSON family that fails the orthonormality gate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1,
                       "b": [2.0, -3.0, 1.0], "bw": [3.3, -1.0],
                       "lambda_tilde": 4.0},
            "n_list": [5],
        }))
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "orthonormality" in err["message"]

    def test_no_regular_zeros_exit_one(self, tmp_path, capsys):
        # P_0 has one zero, outside [-1, 1]: no zero-counting measure exists
        assert run(["zeros", *PRESET_FLAGS, "--n", "0", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["message"] == "P_0 has no regular zeros in (-1, 1)"


class TestJulia:
    def test_square_disk_pgm(self, tmp_path):
        out = tmp_path / "j"
        assert run(["julia", "--raw-poly", "0,0,1", "--resolution", "128",
                    "--max-iter", "60", "--half-width", "1.5",
                    "--out", str(out)]) == 0
        blob = (out / "julia_raw.pgm").read_bytes()
        assert blob.startswith(b"P5\n128 128\n255\n")
        body = np.frombuffer(blob[len(b"P5\n128 128\n255\n"):], dtype=np.uint8)
        img = body.reshape(128, 128)
        xs = -1.5 + 3.0 * (np.arange(128) + 0.5) / 128
        zz = np.abs(xs[None, :] + 1j * (-xs)[:, None])
        pix = 3.0 / 128
        assert np.all(img[zz <= 1 - pix] == 255)
        assert np.all(img[zz >= 1 + pix] < 255)
        assert read_json(out / "julia_raw.json")["R_p"] == 2.0

    def test_preset_raster_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["julia", *PRESET_FLAGS, "--n", "8", "--resolution", "64",
                        "--max-iter", "30", "--out", str(out)]) == 0
        assert (out1 / "julia_n8.pgm").read_bytes() == (out2 / "julia_n8.pgm").read_bytes()

    def test_member_past_product_overflow(self, tmp_path):
        # the escape radius spot check of n = 53 runs at |z| where the product
        # form overflows
        out = tmp_path / "j53"
        assert run(["julia", *PRESET_FLAGS, "--n-list", "53", "--resolution", "64",
                    "--max-iter", "30", "--out", str(out)]) == 0
        assert read_json(out / "julia_n53.json")["R_p"] > 1e4

    def test_zero_resolution_rejected(self, tmp_path, capsys):
        assert run(["julia", "--raw-poly", "0,0,1", "--resolution", "0",
                    "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "resolution"

    def test_window_whose_pixel_centers_overflow_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"raw_poly": [0, 0, 1]},
                                   "grid": {"center_re": 1.7e308, "half_width": 1e308}}))
        assert run(["julia", "--config", str(cfg), "--out", str(tmp_path / "j")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "grid"
        assert not (tmp_path / "j").exists()

    def test_window_whose_pixel_width_overflows_rejected(self, tmp_path, capsys):
        # the pixel centers are finite, but the pixel width 2e308 / 512 is not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"raw_poly": [0, 0, 1]},
                                   "grid": {"center_re": 0.0, "half_width": 1e308}}))
        assert run(["julia", "--config", str(cfg), "--out", str(tmp_path / "j")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "grid"
        assert not (tmp_path / "j").exists()

    @pytest.mark.parametrize("coeffs", ["1,0,0", "nan,0,1"])
    def test_raw_poly_needs_finite_degree_two(self, tmp_path, capsys, coeffs):
        assert run(["julia", "--raw-poly", coeffs, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "raw_poly"

    @pytest.mark.parametrize("command", ["julia", "brolin"])
    def test_degree_one_member_rejected(self, tmp_path, capsys, command):
        # P_0 of the preset is linear, so it has no Julia set to draw or sample
        assert run([command, *PRESET_FLAGS, "--n", "0", "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "n_list"


class TestBrolin:
    def test_chebyshev_conjugate_real(self, tmp_path):
        out = tmp_path / "b"
        assert run(["brolin", "--raw-poly=-2,0,1", "--samples", "2000",
                    "--burn-in", "30", "--seed", "11", "--out", str(out)]) == 0
        diag = read_json(out / "brolin_raw.json")
        assert diag["mean_abs_im"] <= 1e-9
        assert diag["bound"] <= 2.0 + 1e-9

    def test_seed_repeat_byte_identical(self, tmp_path):
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["brolin", *PRESET_FLAGS, "--n", "6", "--samples", "500",
                        "--burn-in", "25", "--seed", "5", "--out", str(out)]) == 0
            runs.append((out / "brolin_n6.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_summary_written(self, tmp_path):
        out = tmp_path / "s"
        assert run(["brolin", *PRESET_FLAGS, "--n-list", "5,8", "--samples", "400",
                    "--burn-in", "25", "--seed", "3", "--out", str(out)]) == 0
        summary = read_json(out / "brolin_summary.json")
        assert summary["n_list"] == [5, 8]
        assert len(summary["max_abs_moment"]) == 2


class TestReport:
    def test_empty_dir_names_zeros(self, tmp_path, capsys):
        assert run(["report", *PRESET_FLAGS, "--n-list", "10,40",
                    "--out", str(tmp_path / "none")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "zeros" in err["message"]

    def test_partial_outputs_null_sections(self, tmp_path):
        out = tmp_path / "p"
        assert run(["zeros", *PRESET_FLAGS, "--n-list", "10,40",
                    "--out", str(out)]) == 0
        assert run(["report", *PRESET_FLAGS, "--n-list", "10,40",
                    "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert rep["sections"]["brolin_moments"] is None
        assert rep["sections"]["preimage_counts"] is None
        assert rep["pass"] is None
        assert rep["sections"]["zero_counting"]["pass"] is True

    def test_full_pipeline_passes(self, tmp_path):
        out = tmp_path / "full"
        args = [*PRESET_FLAGS, "--n-list", "10,25,40", "--out", str(out)]
        assert run(["zeros", *args]) == 0
        assert run(["brolin", *args, "--samples", "8000", "--burn-in", "60",
                    "--seed", "20260808"]) == 0
        assert run(["report", *args, "--seed", "20260808"]) == 0
        rep = read_json(out / "report.json")
        for name, section in rep["sections"].items():
            assert section is not None, name
            assert section["pass"] is True, (name, section)
        assert rep["pass"] is True
        assert [row["n"] for row in rep["per_n"]] == [10, 25, 40]
        assert all(row["ks"] is not None and row["green_gap"] >= 0
                   and len(row["moments"]) == 6 for row in rep["per_n"])

    def test_report_deterministic(self, tmp_path):
        out = tmp_path / "det"
        args = [*PRESET_FLAGS, "--n-list", "8,12", "--out", str(out)]
        assert run(["zeros", *args]) == 0
        assert run(["brolin", *args, "--samples", "600", "--burn-in", "25",
                    "--seed", "2"]) == 0
        assert run(["report", *args, "--seed", "2"]) == 0
        first = (out / "report.json").read_bytes()
        assert run(["report", *args, "--seed", "2"]) == 0
        assert (out / "report.json").read_bytes() == first


class TestConfigResolution:
    def test_threshold_override(self, tmp_path, capsys):
        assert run(["report", *PRESET_FLAGS, "--n-list", "10",
                    "--threshold", "bogus=1", "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "threshold"

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [4],
            "samples": 300,
            "burn_in": 20,
            "seed": 1,
            "output_dir": str(tmp_path / "from_file"),
        }))
        out = tmp_path / "flag_wins"
        assert run(["brolin", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "brolin_n4.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_missing_family(self, tmp_path, capsys):
        assert run(["zeros", "--n", "4", "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "family"

    @pytest.mark.parametrize("spec, field", [
        ('ks_max="abc"', "thresholds.ks_max"),
        ("moment_max=[0.1]", "thresholds.moment_max"),
        ("green_gap_max=NaN", "thresholds.green_gap_max"),
        ("p2_growth_allowance=-1", "thresholds.p2_growth_allowance"),
        ("p2_growth_allowance=0.5", "thresholds.p2_growth_allowance"),
        ("p2_targets=0", "thresholds.p2_targets"),
        ("p2_region=[1.5, 2.5, -0.5]", "thresholds.p2_region"),
        ('p2_region=[1.5, 2.5, -0.5, "x"]', "thresholds.p2_region"),
        ("p2_region=[2.5, 1.5, -0.5, 0.5]", "thresholds.p2_region"),
        ("p2_region=[0.5, 2.5, -0.5, 0.5]", "thresholds.p2_region"),
        ("green_test_points=[]", "thresholds.green_test_points"),
        ("green_test_points=[[2.0, 0.0], [1.0]]", "thresholds.green_test_points"),
        ('green_test_points=[[2.0, "i"]]', "thresholds.green_test_points"),
        ("green_test_points=[[2.0, Infinity]]", "thresholds.green_test_points"),
        ('schema_version="abc"', "thresholds.schema_version"),
        ("schema_version=2", "thresholds.schema_version"),
    ])
    def test_malformed_threshold_exit_two(self, tmp_path, capsys, spec, field):
        assert run(["report", *PRESET_FLAGS, "--n-list", "10",
                    "--threshold", spec, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field

    def test_malformed_threshold_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
            "thresholds": {"p2_region": [-0.5, 0.5, 0.0, 0.2]},
        }))
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "thresholds.p2_region"

    @pytest.mark.parametrize("version", ["abc", 2, True, 1.0])
    def test_top_level_schema_version_exit_two(self, tmp_path, capsys, version):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": version,
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
        }))
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "schema_version"
        assert not (tmp_path / "zeros_n10.csv").exists()

    def test_top_level_schema_version_one_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
        }))
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_schema_version_threshold_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
            "thresholds": {"schema_version": "abc"},
        }))
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "thresholds.schema_version"
