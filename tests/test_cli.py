import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpkit import ConfigError, Signal, Trace, save_signal, write_trace
from pnpkit.cli import (
    builtin_image,
    main,
    render_traces_svg,
    validate_config,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_deblur_config(out_dir, max_iter=40):
    return {
        "task": "deblur",
        "image": {"builtin": "shapes", "size": 32},
        "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 5}},
        "noise": {"percent": 3.0},
        "denoiser": {"kind": "tv", "c": 1.0},
        "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.06,
                   "max_iter": max_iter, "tol": 1e-9},
        "seed": 0,
        "output": out_dir,
    }


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = small_deblur_config(str(tmp_path / "out"))
        doc["typo_key"] = 1
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = small_deblur_config(str(tmp_path / "out"))
        doc["solver"]["stepp"] = 0.1
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_bad_task_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"task": "mystery"})

    def test_missing_file_rejected(self, tmp_path):
        doc = small_deblur_config(str(tmp_path / "out"))
        doc["image"] = {"path": str(tmp_path / "nope.pgm")}
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_serializable_roundtrip(self, tmp_path):
        doc = small_deblur_config(str(tmp_path / "out"))
        filled = validate_config(doc)
        again = json.loads(json.dumps(filled))
        assert again == filled
        assert validate_config(again) == filled


class TestBuiltinImages:
    def test_shapes_in_unit_range(self):
        img = builtin_image("shapes", 64)
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_ramp_is_smooth(self):
        img = builtin_image("ramp", 64)
        assert np.max(np.abs(np.diff(img, axis=1))) < 0.1

    def test_deterministic(self):
        np.testing.assert_array_equal(builtin_image("shapes", 32),
                                      builtin_image("shapes", 32))


class TestSolveCommand:
    def test_writes_outputs_and_improves_psnr(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, small_deblur_config(str(out)))
        assert main(["solve", "--config", cfg]) == 0
        for name in ("recon.raw", "recon.pgm", "trace.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_psnr"] > summary["input_psnr"]
        assert summary["stop_reason"] in ("tolerance", "max_iter")

    def test_invalid_algo_exit_2_lists_algos(self, tmp_path, capsys):
        doc = small_deblur_config(str(tmp_path / "out"))
        doc["solver"]["algo"] = "warp-drive"
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "pnp-pgd" in err and "admm" in err

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        doc = small_deblur_config("unused", max_iter=15)
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg, "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out_b), "--seed", "7"]) == 0
        for name in ("recon.raw", "recon.pgm", "trace.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_task_mismatch_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, small_deblur_config(str(tmp_path / "out")))
        assert main(["compare", "--config", cfg]) == 2

    @pytest.mark.parametrize("key,value", [("step", "abc"), ("max_iter", -1), ("step", 0),
                                           ("alpha", 2.0), ("tol", -1)])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_bad_solver_number_exit_2(self, tmp_path, capsys, command, key, value):
        out = tmp_path / "out"
        doc = small_deblur_config(str(out))
        doc["solver"][key] = value
        if command == "compare":
            doc = {"task": "compare", "images": [doc["image"]], "operator": doc["operator"],
                   "denoiser": doc["denoiser"], "output": str(out),
                   "solvers": [{"algo": "pnp-pgd"}, doc["solver"]]}
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "config.solver" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algo,key,value", [
        ("pnp-pgd", "step", math.nan), ("pnp-pgd", "tol", math.nan),
        ("pnp-pgd", "rho", math.nan), ("pnp-pgd", "alpha", math.inf),
        ("pnp-pgd", "tol", math.inf),
        ("red-pg", "L", 1.0), ("red-gd", "eta", -1), ("gs-pnp", "tau", -1),
        ("pnp-pgd", "sigma", -1), ("red-gd", "sigma", 0.0), ("gs-pnp", "lam", 0.0),
        ("red-apg", "L", math.nan), ("gs-pnp", "lam", "abc"),
    ])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_bad_driver_number_exit_2(self, tmp_path, capsys, command, algo, key, value):
        out = tmp_path / "out"
        doc = small_deblur_config(str(out))
        doc["solver"]["algo"] = algo
        doc["solver"][key] = value
        if command == "compare":
            doc = {"task": "compare", "images": [doc["image"]], "operator": doc["operator"],
                   "denoiser": doc["denoiser"], "output": str(out),
                   "solvers": [{"algo": "pnp-pgd"}, doc["solver"]]}
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert "config.solver" in capsys.readouterr().err
        assert not out.exists()

    def test_driver_numbers_at_their_bounds_run(self, tmp_path):
        # red-gd accepts lam = 0; pnp-pgd accepts sigma = 0
        for algo, key in (("red-gd", "lam"), ("pnp-pgd", "sigma")):
            out = tmp_path / f"{algo}_{key}"
            doc = small_deblur_config(str(out), max_iter=3)
            doc["solver"].update({"algo": algo, key: 0.0})
            assert main(["solve", "--config", write_config(tmp_path, doc)]) == 0

    def test_inpaint_task(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "task": "inpaint",
            "image": {"builtin": "ramp", "size": 32},
            "operator": {"kind": "mask", "density": 0.6},
            "noise": {"sigma": 0.01},
            "denoiser": {"kind": "tv", "c": 1.0},
            "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.08,
                       "max_iter": 60, "tol": 1e-9},
            "output": str(out),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", cfg]) == 0

    def test_admm_inpaint_leaves_its_start(self, tmp_path):
        # a mask makes x_1 = K^T y = x_0; a stop on x alone returned the zero-filled input
        out = tmp_path / "out"
        doc = {
            "task": "inpaint",
            "image": {"builtin": "ramp", "size": 32},
            "operator": {"kind": "mask", "density": 0.6},
            "noise": {"sigma": 0.01},
            "denoiser": {"kind": "tv", "c": 1.0},
            "solver": {"algo": "pnp-admm", "rho": 1.0, "sigma": 0.08,
                       "max_iter": 300, "tol": 1e-9},
            "output": str(out),
        }
        assert main(["solve", "--config", write_config(tmp_path, doc)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "tolerance"
        assert summary["final_psnr"] - summary["input_psnr"] >= 2.0


class TestCompareCommand:
    def compare_config(self, out):
        return {
            "task": "compare",
            "images": [{"builtin": "shapes", "size": 32}],
            "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 5}},
            "noise": {"percent": 3.0},
            "denoiser": {"kind": "gs", "kernel_sigma": 1.5, "floor": 0.15,
                         "weight": 0.7},
            "solvers": [
                {"algo": "pnp-pgd", "step": 1.0, "max_iter": 300, "tol": 1e-9},
                {"algo": "pnp-drsdiff", "step": 1.0, "max_iter": 300, "tol": 1e-9},
                {"algo": "gs-pnp", "lam": 0.7, "tau": 1.0, "step": 1.0,
                 "max_iter": 300, "tol": 1e-9},
            ],
            "seed": 0,
            "output": out,
        }

    def test_compare_outputs(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = write_config(tmp_path, self.compare_config(str(out)))
        assert main(["compare", "--config", cfg]) == 0
        table = (out / "compare.csv").read_text().splitlines()
        assert table[0] == "solver,image,final_psnr,min_residual,residual_slope,converged"
        assert len(table) == 4
        for line in table[1:]:
            assert line.endswith("true")
        assert len(list(out.glob("trace_*.csv"))) == 3

    def test_empty_solver_list_exit_2(self, tmp_path):
        doc = self.compare_config(str(tmp_path / "cmp"))
        doc["solvers"] = []
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg]) == 2

    def test_worker_fanout_matches_sequential(self, tmp_path, monkeypatch):
        # the GS set, then three TV runs sharing one denoiser, whose warm TV
        # duals must stay within each run and its thread
        tv_doc = self.compare_config("unused")
        tv_doc["denoiser"] = {"kind": "tv", "c": 1.0}
        tv_doc["solvers"] = [
            {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05, "max_iter": 40, "tol": 1e-9},
            {"algo": "pnp-drs", "step": 1.0, "sigma": 0.05, "max_iter": 40, "tol": 1e-9},
            {"algo": "hqs", "rho": 1.0, "sigma": 0.2, "max_iter": 40, "tol": 0.0,
             "sigma_schedule": list(np.geomspace(0.2, 0.02, 40))},
        ]
        for name, doc in (("gs", self.compare_config("unused")), ("tv", tv_doc)):
            out_seq = tmp_path / f"{name}_seq"
            out_par = tmp_path / f"{name}_par"
            cfg = write_config(tmp_path, doc)
            monkeypatch.delenv("PNPKIT_THREADS", raising=False)
            assert main(["compare", "--config", cfg, "--out", str(out_seq)]) == 0
            monkeypatch.setenv("PNPKIT_THREADS", "3")
            assert main(["compare", "--config", cfg, "--out", str(out_par)]) == 0
            names = sorted(p.name for p in out_seq.iterdir())
            assert names == sorted(p.name for p in out_par.iterdir())
            assert "compare.csv" in names
            for file in names:
                assert (out_seq / file).read_bytes() == (out_par / file).read_bytes()

    def test_hqs_baseline_recorded(self, tmp_path):
        out = tmp_path / "cmp"
        doc = self.compare_config(str(out))
        doc["denoiser"] = {"kind": "tv", "c": 1.0}
        doc["solvers"] = [
            {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.06, "max_iter": 60, "tol": 1e-9},
            {"algo": "hqs", "rho": 1.0, "sigma": 0.2, "max_iter": 60, "tol": 0.0,
             "sigma_schedule": list(np.geomspace(0.2, 0.02, 60))},
        ]
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", cfg]) == 0
        rows = (out / "compare.csv").read_text().splitlines()[1:]
        assert any(r.startswith("hqs,") for r in rows)


class TestTvInnerIterations:
    def test_criterion_11_tv_configs_stay_3x_below_the_cold_count(self, tmp_path, monkeypatch):
        # The TV commands of criterion 11 (its GS compare makes no TV call).
        # Cold solves without restart took 145,303 inner iterations; the warm
        # dual must keep the total at least 3x below that.
        import pnpkit.proximal as proximal

        solve_dual = proximal._tv_dual_solve
        iterations = []

        def counted(*args, **kwargs):
            out = solve_dual(*args, **kwargs)
            iterations.append(out[3])
            return out

        monkeypatch.setattr(proximal, "_tv_dual_solve", counted)
        problem = {
            "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
            "noise": {"percent": 3.0},
            "denoiser": {"kind": "tv", "c": 1.0},
            "seed": 0,
        }
        solve = {**problem, "task": "deblur", "image": {"builtin": "shapes", "size": 64},
                 "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05,
                            "max_iter": 200, "tol": 1e-9}}
        compare = {**problem, "task": "compare", "images": [{"builtin": "shapes", "size": 64}],
                   "solvers": [
                       {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05, "max_iter": 80,
                        "tol": 1e-9},
                       {"algo": "hqs", "rho": 1.0, "sigma": 0.2, "max_iter": 80, "tol": 0.0,
                        "sigma_schedule": list(np.geomspace(0.2, 0.02, 80))},
                   ]}
        for command, doc in (("solve", solve), ("compare", compare)):
            cfg = write_config(tmp_path, doc, name=f"{command}.json")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert len(iterations) == 200 + 80 + 80
        assert sum(iterations) <= 145303 // 3


class TestSweepCommand:
    def test_default_sweep_monotone(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path, {"task": "sweep", "output": str(out), "seed": 0})
        assert main(["sweep", "--config", cfg, "--assert"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[2]) for r in rows]
        assert len(errors) == 8
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 0.05 * errors[0]

    def test_non_monotone_ladder_asserts_exit_3(self, tmp_path):
        doc = {"task": "sweep", "output": str(tmp_path / "s"),
               "sweep": {"deltas": [0.25, 0.25]}}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--assert"]) == 3
        assert main(["sweep", "--config", cfg]) == 0


class TestDiagnoseCommand:
    def test_spectral_epsilon_and_gate(self, tmp_path):
        out = tmp_path / "diag"
        doc = {
            "task": "diagnose",
            "denoiser": {"kind": "spectral", "transform": "dct", "lam": 0.1},
            "probe": {"shape": [8, 8], "sigma": 0.1, "probes": 2},
            "mu": 1.0,
            "output": str(out),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "diagnose.json").read_text())
        eps = 0.1 / 1.1
        assert abs(report["epsilon_hat"] - eps) <= 1e-4
        assert report["asymmetry"] <= 1e-6
        expected_gate = eps / ((1 + eps - 2 * eps**2) * 1.0)
        assert report["theorem_gate"]["pnp_drsdiff_tau_min"] == pytest.approx(
            expected_gate, rel=1e-3
        )

    def test_expansive_denoiser_gate_not_applicable(self, tmp_path):
        out = tmp_path / "diag"
        doc = {
            "task": "diagnose",
            "denoiser": {"kind": "gmm", "weights": [0.5, 0.5],
                         "means": [[-4.0], [4.0]], "variances": [0.05, 0.05]},
            "probe": {"shape": [1], "sigma": 1.5, "probes": 4},
            "output": str(out),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "diagnose.json").read_text())
        assert report["epsilon_hat"] >= 1.0
        assert report["theorem_gate"]["pnp_drsdiff_tau_min"] == "not applicable"

    def test_nlm_asymmetry_positive(self, tmp_path):
        out = tmp_path / "diag"
        doc = {
            "task": "diagnose",
            "denoiser": {"kind": "nlm", "patch_radius": 1, "window_radius": 2,
                         "h": 0.3},
            "probe": {"shape": [5, 5], "sigma": 0.1, "probes": 1},
            "output": str(out),
        }
        cfg = write_config(tmp_path, doc)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "diagnose.json").read_text())
        assert report["asymmetry"] > 1e-4


class TestSampleCommand:
    def gaussian_config(self, out, seed=None):
        doc = {
            "task": "sample",
            "operator": {"kind": "diagonal", "entries": [1.0, 1.5, 0.8]},
            "prior": {"weights": [1.0], "means": [[0.0, 0.0, 0.0]],
                      "variances": [1.0]},
            "sampler": {"delta": 5e-3, "sigma": 0.4, "sigma_w": 0.6,
                        "kept": 4000, "burn_in": 2000, "thin": 2},
            "output": out,
        }
        if seed is not None:
            doc["seed"] = seed
        return doc

    def test_gaussian_config_emits_oracle_gap(self, tmp_path):
        out = tmp_path / "smp"
        cfg = write_config(tmp_path, self.gaussian_config(str(out), seed=1))
        assert main(["sample", "--config", cfg]) == 0
        gap = json.loads((out / "oracle_gap.json").read_text())
        assert set(gap) >= {"mean_gap_inf", "mean_within_tolerance",
                            "max_variance_relative_error"}
        stats_lines = (out / "stats.csv").read_text().splitlines()
        assert stats_lines[0] == "coordinate,mean,variance"
        assert len(stats_lines) == 4

    def test_missing_seed_defaults_to_zero(self, tmp_path):
        out = tmp_path / "smp"
        cfg = write_config(tmp_path, self.gaussian_config(str(out)))
        assert main(["sample", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 0

    def test_non_gaussian_stats_only(self, tmp_path):
        out = tmp_path / "smp"
        doc = self.gaussian_config(str(out), seed=2)
        doc["prior"] = {"weights": [0.5, 0.5], "means": [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                        "variances": [0.5, 0.5]}
        doc["sampler"]["kept"] = 500
        doc["sampler"]["burn_in"] = 200
        cfg = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg]) == 0
        assert not (out / "oracle_gap.json").exists()
        assert (out / "stats.csv").exists()

    def test_non_finite_prior_file_names_the_prior(self, tmp_path, capsys):
        out = tmp_path / "smp"
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(json.dumps({"weights": [1.0], "means": [[0.0, 0.0, 0.0]],
                                          "variances": [math.nan]}))
        doc = self.gaussian_config(str(out))
        doc["prior"] = {"path": str(prior_path)}
        assert main(["sample", "--config", write_config(tmp_path, doc)]) == 2
        assert "config.prior" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        doc = self.gaussian_config("unused", seed=5)
        doc["sampler"]["kept"] = 400
        doc["sampler"]["burn_in"] = 100
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("stats.csv", "summary.json", "oracle_gap.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_save_samples_flag(self, tmp_path):
        out = tmp_path / "smp"
        doc = self.gaussian_config(str(out), seed=3)
        doc["sampler"]["kept"] = 100
        doc["sampler"]["burn_in"] = 50
        doc["save_samples"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["sample", "--config", cfg]) == 0
        from pnpkit import load_signal

        samples = load_signal(out / "samples.raw")
        assert samples.shape == (100, 3)


class TestPlotCommand:
    def make_trace_csv(self, path, rows=20, seed=0):
        t = Trace()
        rng = np.random.default_rng(seed)
        t.append(0, objective=1.0, psnr=15.0)
        for k in range(1, rows):
            t.append(k, objective=1.0 / (k + 1), step_residual=2.0 ** (-k),
                     fp_residual=2.0 ** (-k), psnr=15.0 + k * 0.1,
                     seconds=0.001 * k)
        write_trace(t, path)

    def test_single_trace_two_polylines(self, tmp_path):
        trace_path = tmp_path / "t0.csv"
        self.make_trace_csv(trace_path)
        cfg = write_config(tmp_path, {"traces": [str(trace_path)],
                                      "output": "plot.svg"})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_ten_traces_twenty_polylines(self, tmp_path):
        paths = []
        for i in range(10):
            p = tmp_path / f"t{i}.csv"
            self.make_trace_csv(p, seed=i)
            paths.append(str(p))
        cfg = write_config(tmp_path, {"traces": paths, "output": "multi.svg"})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "multi.svg").read_text()
        assert svg.count("<polyline") == 20

    def test_empty_trace_exit_2(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_trace(Trace(), p)
        cfg = write_config(tmp_path, {"traces": [str(p)]})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_malformed_csv_exit_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("this,is,not,a,trace\n1,2\n")
        cfg = write_config(tmp_path, {"traces": [str(p)]})
        assert main(["plot", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_render_handles_nan_columns(self):
        t = Trace()
        t.append(0)
        t.append(1, step_residual=0.5)
        svg = render_traces_svg([t], ["lbl"])
        assert svg.count("<polyline") == 2


def readme_solve_config(size=16, max_iter=3):
    """The README's example `solve` config, shrunk to `size` and `max_iter`."""
    return {
        "task": "deblur",
        "image": {"builtin": "shapes", "size": size},
        "operator": {"kind": "blur", "kernel": {"builtin": "uniform", "size": 9}},
        "noise": {"percent": 3.0},
        "denoiser": {"kind": "tv", "c": 1.0},
        "solver": {"algo": "pnp-pgd", "step": 1.0, "sigma": 0.05, "max_iter": max_iter},
        "seed": 0,
        "output": "out",
    }


PROBE_BASES = {
    "solve": readme_solve_config(),
    "sample": TestSampleCommand().gaussian_config("out"),
    "diagnose": {"task": "diagnose",
                 "denoiser": {"kind": "spectral", "transform": "dct", "lam": 0.1},
                 "probe": {"shape": [8, 8], "sigma": 0.1, "probes": 2}, "mu": 1.0},
    "sweep": {"task": "sweep", "sweep": {}},
}
GMM_1D = {"weights": [1.0], "means": [[0.0]], "variances": [1.0]}
# (command, key path, value put there, the section the message names); a path
# of None passes `--seed -3` instead, and a dict of paths to values sets each
MALFORMED = [
    pytest.param("solve", ("image", "size"), "big", "config.image", id="image-size"),
    pytest.param("solve", ("seed",), -3, "config.seed", id="seed"),
    pytest.param("solve", ("operator",), {"kind": "diagonal", "entries": [1.0, 1.0, 1.0]},
                 "config.operator", id="diagonal-entries-vs-image"),
    pytest.param("solve", ("denoiser",), {"kind": "gmm", **GMM_1D}, "config.denoiser",
                 id="gmm-dim-vs-image"),
    pytest.param("solve", ("operator", "kernel", "size"), "x", "config.operator.kernel",
                 id="kernel-size"),
    pytest.param("solve", ("image", "size"), 8, "config.operator", id="kernel-vs-image"),
    pytest.param("solve", ("noise", "percent"), "a", "config.noise", id="noise-percent"),
    pytest.param("solve", ("noise",), {"sigma": -1}, "config.noise", id="noise-sigma"),
    pytest.param("solve", ("operator",), {"kind": "mask", "density": "x"},
                 "config.operator", id="mask-density"),
    pytest.param("solve", ("denoiser", "c"), "x", "config.denoiser", id="tv-c"),
    pytest.param("solve", ("denoiser", "c"), -1.0, "config.denoiser", id="tv-c-negative"),
    pytest.param("solve", ("denoiser",), {"kind": "gaussian", "kernel_sigma": -1.0},
                 "config.denoiser", id="gaussian-kernel-sigma-negative"),
    pytest.param("solve", ("denoiser",), {"kind": "gaussian", "radius": -2}, "config.denoiser",
                 id="gaussian-radius-negative"),
    pytest.param("solve", ("denoiser",), {"kind": "gs", "weight": -1.0}, "config.denoiser",
                 id="gs-weight-negative"),
    pytest.param("solve", ("denoiser",), {"kind": "nlm", "h": "x"}, "config.denoiser",
                 id="nlm-h"),
    pytest.param("solve", {("image", "size"): 63,
                           ("denoiser",): {"kind": "spectral", "transform": "haar"}},
                 None, "config.denoiser", id="spectral-haar-odd-side"),
    pytest.param("solve", ("solver",), {"algo": "pgd", "reg": {"kind": "l1", "weight": "x"}},
                 "config.solver.reg", id="reg-weight"),
    pytest.param("solve", ("solver",), {"algo": "hqs", "rho_schedule": "x"},
                 "config.solver", id="hqs-rho-schedule"),
    pytest.param("solve", ("solver",), {"algo": "gs-pnp", "backtracking": "no"},
                 "config.solver", id="gs-pnp-backtracking"),
    pytest.param("solve", ("solver",), {"algo": "pgd", "backtracking": True},
                 "config.solver", id="pgd-backtracking"),
    pytest.param("solve", ("solver",), {"algo": "pnp-pgd", "tau": 1.0},
                 "config.solver", id="pnp-pgd-tau"),
    pytest.param("solve", ("solver",), {"algo": "pnp-pgd", "eta": 0.001},
                 "config.solver", id="pnp-pgd-eta"),
    pytest.param("sample", ("sampler", "kept"), "x", "config.sampler", id="sampler-kept"),
    pytest.param("sample", ("sampler", "delta"), -1, "config.sampler", id="sampler-delta"),
    pytest.param("sample", ("sampler", "thin"), 0, "config.sampler", id="sampler-thin"),
    pytest.param("sample", ("prior",), {"weights": [1.0], "means": [[0.0, 0.0]],
                                        "variances": [1.0]},
                 "config.operator", id="operator-vs-prior-dim"),
    pytest.param("diagnose", ("probe", "shape"), "x", "config.probe", id="probe-shape"),
    pytest.param("diagnose", ("probe", "sigma"), "x", "config.probe", id="probe-sigma"),
    pytest.param("diagnose", ("mu",), "x", "config", id="mu"),
    pytest.param("sweep", ("sweep", "k_max"), "x", "config.sweep", id="sweep-k-max"),
    pytest.param("sweep", ("sweep", "c"), "x", "config.sweep", id="sweep-c"),
    # a ladder of fewer than two deltas, which `sweep --assert` would pass vacuously
    pytest.param("sweep", ("sweep",), {"k_min": 5, "k_max": 1}, "config.sweep",
                 id="sweep-k-max-below-k-min"),
    pytest.param("sweep", ("sweep", "deltas"), [], "config.sweep", id="sweep-no-deltas"),
    pytest.param("sweep", ("sweep", "deltas"), [0.25], "config.sweep", id="sweep-one-delta"),
    pytest.param("solve", None, None, "config.seed", id="seed-flag"),
]


def set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("command,path,value,section", MALFORMED)
def test_malformed_config_exit_2_before_output(tmp_path, capsys, command, path, value,
                                               section):
    out = tmp_path / "out"
    doc = copy.deepcopy(PROBE_BASES[command])
    doc["output"] = str(out)
    argv = ["--seed", "-3"] if path is None else []
    if path is not None:
        for key_path, key_value in (path if isinstance(path, dict) else {path: value}).items():
            set_path(doc, key_path, key_value)
    assert main([command, "--config", write_config(tmp_path, doc)] + argv) == 2
    assert f"pnpkit: {section}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sample"])
def test_non_finite_adjoint_measurement_exit_2_before_output(tmp_path, capsys, command):
    # y stays finite, but K^T y = 1e200 * y overflows
    out = tmp_path / "out"
    if command == "solve":
        image = tmp_path / "line.raw"
        save_signal(Signal.from_array(np.full(3, 0.5)), image)
        doc = {"task": "denoise", "image": {"path": str(image)},
               "operator": {"kind": "diagonal", "entries": [1e200, 1.0, 1.0]},
               "solver": {"algo": "pgd", "reg": {"kind": "zero"}, "max_iter": 3}}
    else:
        doc = TestSampleCommand().gaussian_config(str(out))
        doc["operator"]["entries"] = [1e200, 1.0, 1.0]
    doc["output"] = str(out)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert "pnpkit: config.operator:" in capsys.readouterr().err
    assert not out.exists()


def test_uncertified_inner_solve_exit_4(tmp_path, capsys):
    doc = readme_solve_config()
    doc["denoiser"]["max_iter"] = 1
    doc["output"] = str(tmp_path / "out")
    assert main(["solve", "--config", write_config(tmp_path, doc)]) == 4
    assert "did not reach" in capsys.readouterr().err


def test_shape_mismatch_found_in_the_run_exit_2(tmp_path, capsys):
    doc = readme_solve_config()
    doc["solver"] = {"algo": "pgd", "max_iter": 3, "reg": {"kind": "wavelet", "levels": 5}}
    assert main(["solve", "--config", write_config(tmp_path, doc)]
                + ["--out", str(tmp_path / "out")]) == 2
    assert "Haar levels" in capsys.readouterr().err


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,), isinstance(value, dict)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


README_PATHS = list(key_paths(readme_solve_config()))
DELETE = object()
BAD_LEAF = st.one_of(
    st.text(max_size=8),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf]),
    st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.none(),
)
MUTATION = st.one_of(
    st.tuples(st.sampled_from([p for p, nested in README_PATHS if not nested]), BAD_LEAF),
    st.tuples(st.sampled_from([p for p, _ in README_PATHS]), st.just(DELETE)),
)


@settings(max_examples=60, deadline=None)
@given(MUTATION)
def test_mutated_readme_config_keeps_exit_contract(mutation):
    path, value = mutation
    doc = readme_solve_config()
    if value is DELETE:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        set_path(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), doc)
        assert main(["solve", "--config", cfg, "--out", str(Path(tmp) / "out")]) in (0, 2, 3, 4)
