"""Command-line surface: files, schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xjulia import dynamics
from xjulia.cli import main
from xjulia.config import from_json
from xjulia.exceptional import monomial_coeffs
from xjulia.poly import Poly

SRC = Path(__file__).resolve().parents[1] / "src"

PRESET_FLAGS = ["--preset", "x1", "--alpha", "0.02", "--beta", "1.2"]

# b = x^2 - 1 with both interval factors divided out: b_tilde = -1 has no
# zero, P_n is a multiple of (x^2 - 1) p_n' with exceptional zeros +-1, and
# P_0 = 0 has degree 0
SQUARE_DERIVATIVE = {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": -1,
                     "b": [-1.0, 0.0, 1.0], "bw": [0.0], "lambda_tilde": 0.0}


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
        # structurally valid JSON families: of the README's explicit form, one
        # fails the orthonormality gate and one states a lambda_tilde its norms
        # refute; the preset's exponents (1e-9, 1.2) are valid, but its pole,
        # 1.7e-9 past 1, fails the gate
        explicit = {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0]}
        for family, cause in (({**explicit, "bw": [3.3, -1.0], "lambda_tilde": 4.0},
                               "orthonormality"),
                              ({**explicit, "bw": [3.0, -1.0], "lambda_tilde": 99.0},
                               "lambda_tilde"),
                              ({"preset": "x1", "alpha": 1e-9, "beta": 1.2}, "orthonormality")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"family": family, "n_list": [5]}))
            assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "numerical"
            assert cause in err["message"]

    @pytest.mark.parametrize("family, field", [
        ({"preset": "x1", "alpha": float("inf"), "beta": 1.2}, "alpha"),
        ({"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0],
          "bw": [3.0, float("inf")], "lambda_tilde": 4.0}, "bw"),
        ({"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0],
          "bw": [3.0, -1.0], "lambda_tilde": float("nan")}, "lambda_tilde"),
    ])
    def test_non_finite_family_exit_two(self, tmp_path, capsys, family, field):
        # json writes these as Infinity and NaN, which Python's parser accepts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "n_list": [5]}))
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field

    @pytest.mark.parametrize("eps", [{"eps1": True}, {"eps2": 1.0}])
    def test_non_integer_eps_exit_two(self, tmp_path, capsys, eps):
        # true == 1 and 1.0 == 1 in Python; the wire format wants the integer
        family = {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0],
                  "bw": [3.0, -1.0], "lambda_tilde": 4.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "n_list": [5]}))
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        cfg.write_text(json.dumps({"family": {**family, **eps}, "n_list": [5]}))
        capsys.readouterr()
        assert run(["zeros", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "eps1/eps2"

    @pytest.mark.parametrize("alpha, beta", [("0.5", "0.5"), ("0.5", "-0.3"), ("-0.5", "-0.2")],
                             ids=["no-pole", "pole-inside", "not-positive"])
    def test_invalid_preset_parameters_exit_two(self, tmp_path, capsys, alpha, beta):
        # the x1 preset needs alpha != beta, its pole outside [-1, 1] and
        # positive exponents: a configuration error, not a numerical failure
        out = tmp_path / "z"
        assert run(["zeros", "--preset", "x1", "--alpha", alpha, "--beta", beta,
                    "--n-list", "5", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "alpha/beta"
        assert not out.exists()

    @pytest.mark.parametrize("change, field", [
        ({"alpha": -0.5}, "alpha/beta"), ({"b": [2.0, -3.0, 2.0]}, "b"),
        ({"bw": [3.0, -1.0, 0.0, 1.0]}, "b/bw"),
    ], ids=["shifted-exponent", "non-monic-b", "degree-gap"])
    def test_out_of_domain_family_exit_two(self, tmp_path, capsys, change, field):
        # the README's explicit family with a shifted exponent -1.5, a lead 2
        # on b, or deg bw = deg b + 1: configuration errors, not numerical ones
        family = {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0],
                  "bw": [3.0, -1.0], "lambda_tilde": 4.0, **change}
        cfg, out = tmp_path / "cfg.json", tmp_path / "z"
        cfg.write_text(json.dumps({"family": family, "n_list": [5]}))
        assert run(["zeros", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == field
        assert not out.exists()

    def test_no_regular_zeros_exit_one(self, tmp_path, capsys):
        # P_0 has one zero, outside [-1, 1]: no zero-counting measure exists
        assert run(["zeros", *PRESET_FLAGS, "--n", "0", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["message"] == "P_0 has no regular zeros in (-1, 1)"


class TestFamilyWithoutBTildeZeros:
    def test_every_command_exits_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": SQUARE_DERIVATIVE, "n_list": [6, 10]}))
        out = tmp_path / "out"
        for command in ("zeros", "julia", "brolin", "report"):
            assert run([command, "--config", str(cfg), "--samples", "300", "--burn-in", "20",
                        "--resolution", "64", "--out", str(out)]) == 0
        assert read_json(out / "zeros_n6.json")["exc_dist"] is None
        zero_counting = read_json(out / "report.json")["sections"]["zero_counting"]
        assert zero_counting["exc_dist"] == [None, None] and zero_counting["pass"] is False

    def test_degree_zero_member_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": SQUARE_DERIVATIVE}))
        assert run(["zeros", "--config", str(cfg), "--n-list", "0", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "n_list"
        assert not list(tmp_path.glob("zeros_*"))


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
        # the radius bisection of n = 53 starts from the coefficient radius,
        # 3.3e4, where a_d times the product of its 54 factors reaches 1e261,
        # so it runs in logs; the radius from the zeros is finite and far smaller
        out = tmp_path / "j53"
        assert run(["julia", *PRESET_FLAGS, "--n-list", "53", "--resolution", "64",
                    "--max-iter", "30", "--out", str(out)]) == 0
        r_p = read_json(out / "julia_n53.json")["R_p"]
        assert np.isfinite(r_p) and 1.0 < r_p < 3.0

    @pytest.mark.parametrize("family, center", [
        ({"preset": "x1", "alpha": 0.02, "beta": 1.2}, 0.25j),  # rows do not mirror
        ({"raw_poly": [0.0, -3.0, 0.0, 1.0]}, 0j),             # odd and real: a quarter
        ({"raw_poly": [-1.0, 0.0, 1.0]}, 0.1),                 # rows mirror, columns not
    ], ids=["off-axis", "odd", "shifted"])
    def test_config_window(self, tmp_path, family, center):
        # the PGM is the raster of the configured window, each symmetry class
        # of which TestRasterMatchesReference checks against the full loop
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "n_list": [10], "grid": {
            "center_re": center.real, "center_im": center.imag, "resolution": 64}}))
        out = tmp_path / "j"
        assert run(["julia", "--config", str(cfg), "--out", str(out)]) == 0
        raw = "raw_poly" in family
        poly = Poly(family["raw_poly"]) if raw else monomial_coeffs(from_json(family), 10)
        raster = dynamics.escape_raster(dynamics.escape_radius(poly), center=center, resolution=64)
        pgm = out / ("julia_raw.pgm" if raw else "julia_n10.pgm")
        assert pgm.read_bytes() == dynamics.raster_to_pgm(raster)

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

    def test_member_past_product_overflow(self, tmp_path):
        # degree 54, whose escape radius is found in logs (TestJulia): every
        # sample point is finite and the radius from the zeros below 3
        out = tmp_path / "b53"
        assert run(["brolin", *PRESET_FLAGS, "--n-list", "53", "--samples", "400",
                    "--out", str(out)]) == 0
        points = np.loadtxt(out / "brolin_n53.csv", delimiter=",", skiprows=1)
        assert points.shape == (400, 2) and np.isfinite(points).all()
        assert read_json(out / "brolin_n53.json")["R_p"] < 3.0

    def test_non_finite_moment_exit_one(self, tmp_path, capsys):
        # J(1e-60 z^2) has radius 1e60, where T_6 overflows: NaN is not JSON
        assert run(["brolin", "--raw-poly=0,0,1e-60", "--samples", "50",
                    "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"
        assert not (tmp_path / "brolin_raw.json").exists()
        assert not (tmp_path / "brolin_raw.csv").exists()


class TestReport:
    def test_empty_dir_names_zeros(self, tmp_path, capsys):
        assert run(["report", *PRESET_FLAGS, "--n-list", "10,40",
                    "--out", str(tmp_path / "none")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "zeros" in err["message"]

    def test_index_zero_refused_before_files(self, tmp_path, capsys):
        # the leading-coefficient and Green's-function rows need n >= 1; a
        # prior zeros_n0.json must not get report as far as reading it
        out = tmp_path / "n0"
        out.mkdir()
        for n in (0, 5):
            (out / f"zeros_n{n}.json").write_text('{"ks": 0.1, "exc_dist": 0.1}')
        assert run(["report", *PRESET_FLAGS, "--n-list", "0,5", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "n_list"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("family", [
        # alpha > beta: the same preset formula with b_tilde negative on [-1, 1]
        {"preset": "x1", "alpha": 3.0, "beta": 1.0},
        # the README's explicit family in the config wire format
        {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1, "b": [2.0, -3.0, 1.0],
         "bw": [3.0, -1.0], "lambda_tilde": 4.0},
    ], ids=["mirrored-preset", "explicit"])
    def test_zeros_then_report(self, tmp_path, family):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": family, "n_list": [8, 12]}))
        out = tmp_path / "out"
        for command in ("zeros", "report"):
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        rep = read_json(out / "report.json")
        assert [row["n"] for row in rep["per_n"]] == [8, 12]
        assert all(row["ks"] is not None for row in rep["per_n"])

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

    @pytest.mark.parametrize("name, text", [
        ("zeros_n10.json", '{"ks": '),                          # malformed JSON
        ("zeros_n10.json", "[0.1, 0.2]"),                       # not an object
        ("zeros_n10.json", '{"exc_dist": 0.1}'),                # no "ks"
        ("zeros_n10.json", '{"ks": "0.1", "exc_dist": 0.1}'),
        ("brolin_n10.json", '{"max_abs_moment": 0.1, "moments": []}'),
    ])
    def test_corrupt_prior_output_exit_two(self, tmp_path, capsys, name, text):
        (tmp_path / name).write_text(text)
        assert run(["report", *PRESET_FLAGS, "--n-list", "10",
                    "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "output_dir"
        assert name in err["message"]

    @pytest.mark.parametrize("csv", [None, "", "re,im\n", "re,im\nnan,0\n", "re,im\ninf,0\n",
                                     "re,im\n0.5,0\n0,-inf\n"])
    def test_missing_or_empty_sample_exit_two(self, tmp_path, capsys, csv):
        # the brolin JSON is there, so report reaches the preimage counts,
        # which read the sample points from the CSV beside it
        (tmp_path / "brolin_n10.json").write_text(json.dumps(
            {"max_abs_moment": 0.1, "mean_abs_im": 0.1, "moments": []}))
        if csv is not None:
            (tmp_path / "brolin_n10.csv").write_text(csv)
        assert run(["report", *PRESET_FLAGS, "--n-list", "10",
                    "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "output_dir"
        assert "brolin_n10.csv" in err["message"]

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

    def test_alpha_beta_flags_override_config_preset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
        }))
        assert run(["zeros", "--config", str(cfg), "--beta", "1.5",
                    "--out", str(tmp_path / "file")]) == 0
        assert run(["zeros", "--preset", "x1", "--beta", "1.5", "--n", "10",
                    "--out", str(tmp_path / "flags")]) == 0
        assert ((tmp_path / "file" / "zeros_n10.json").read_bytes()
                == (tmp_path / "flags" / "zeros_n10.json").read_bytes())
        capsys.readouterr()
        # an explicit Darboux family has no preset exponents to override
        cfg.write_text(json.dumps({
            "family": {"alpha": 2.0, "beta": 2.0, "eps1": -1, "eps2": 1,
                       "b": [2.0, -3.0, 1.0], "bw": [3.0, -1.0], "lambda_tilde": 4.0},
            "n_list": [10],
        }))
        assert run(["zeros", "--config", str(cfg), "--alpha", "0.5",
                    "--out", str(tmp_path / "darboux")]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "alpha/beta"

    @pytest.mark.parametrize("argv", [
        ["zeros", "--bogus"],
        ["brolin", "--raw-poly", "-1,0,1"],     # argparse reads -1,0,1 as a flag
        ["zeros", "--n", "abc"],
        [],
    ])
    def test_usage_error_is_one_json_object(self, tmp_path, capsys, argv):
        assert run(argv + (["--out", str(tmp_path)] if argv else [])) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "config" and err["field"] == "argv"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, field", [
        (["--raw-poly=0,0,1", "--preset", "x1"], "argv"),
        (["--raw-poly=0,0,1", "--alpha", "0.5"], "alpha/beta"),
        (["--raw-poly=0,0,1", "--beta", "1.5"], "alpha/beta"),
        (["--preset", "x1", "--n", "10", "--n-list", "20"], "argv"),
    ])
    def test_conflicting_flags_exit_two(self, tmp_path, capsys, argv, field):
        # neither flag of a pair is dropped in favour of the other
        assert run(["julia", *argv, "--resolution", "8", "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == field
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--help"])
        assert exc.value.code == 0
        assert "--preset" in capsys.readouterr().out

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

    @pytest.mark.parametrize("thresholds", [[], "ks_max", 3])
    def test_threshold_flag_over_non_object_thresholds(self, tmp_path, capsys, thresholds):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": {"preset": "x1", "alpha": 0.02, "beta": 1.2},
            "n_list": [10],
            "thresholds": thresholds,
        }))
        assert run(["report", "--config", str(cfg), "--threshold", "ks_max=0.1",
                    "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["field"] == "thresholds"

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


def test_fresh_process_loads_no_scipy(tmp_path):
    # the package needs numpy's core and the standard library only: a fresh
    # process that imports the command line and runs a small zeros and brolin
    # pipeline must not have loaded any scipy module, nor any numpy.polynomial
    # module beyond any that `import numpy` loads itself (none on numpy 2,
    # while an older numpy may import the subpackage eagerly)
    script = """
import json, sys
from pathlib import Path
import numpy
with_numpy = set(sys.modules)
from xjulia.cli import main
out = Path(sys.argv[1])
codes = [main(["zeros", "--preset", "x1", "--n-list", "8,12", "--out", str(out)]),
         main(["brolin", "--preset", "x1", "--n-list", "8", "--samples", "200",
               "--out", str(out)])]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial = sorted(m for m in set(sys.modules) - with_numpy
                    if m.startswith("numpy.polynomial"))
(out / "modules.json").write_text(json.dumps(
    {"codes": codes, "scipy": scipy, "numpy.polynomial": polynomial}))
"""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True,
                   env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=300)
    assert read_json(tmp_path / "modules.json") == {"codes": [0, 0], "scipy": [],
                                                    "numpy.polynomial": []}
    assert (tmp_path / "brolin_n8.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["brolin", "--raw-poly=0,0,1e-300", "--samples", "3"], 1),
    (["julia", "--raw-poly=1e308,0,1e308", "--resolution", "4"], 0),
])
def test_stderr_holds_one_json_object_or_nothing(tmp_path, argv, code):
    # in a fresh process, since pytest's own capture would hide numpy's warnings
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "xjulia.cli", *argv, "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == code
    if code:
        assert json.loads(done.stderr)["error"] == "numerical"
    else:
        assert done.stderr == ""
