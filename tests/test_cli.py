import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wstress import cli
from wstress.distributions import Lognormal, discretize
from wstress.sensitivity import DELTA_MIN_PER_BIN
from wstress.cli import (
    EXIT_NO_SOLUTION,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    _read_csv_table,
    _write_csv,
    main,
    run_stress,
    load_config,
)


def write_config(path: Path, config: dict) -> Path:
    cfg = path / "config.yaml"
    cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
    return cfg


def read_csv_columns(path: Path) -> dict:
    lines = [
        line for line in path.read_text().splitlines() if not line.startswith("#")
    ]
    header = lines[0].split(",")
    data = np.asarray([line.split(",") for line in lines[1:]], dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


class TestStressCommand:
    def test_identity_stress(self, tmp_path):
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 1024,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {
                    "name": "identity",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.0}],
                }
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "identity_quantiles.csv")
        np.testing.assert_allclose(cols["stressed_q"], cols["baseline_q"], atol=1e-9)
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "converged = true" in summary
        assert "config_hash = " in summary

    def test_alpha_beta_structure_flags(self, tmp_path):
        # two-tail weight stress: summary must flag the flat near 0.1 and
        # the jump at 0.9
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 4096,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {
                    "name": "twotail",
                    "kind": "rm",
                    "constraints": [
                        {"gamma": "alpha_beta", "alpha": 0.9, "beta": 0.1, "p": 0.5,
                         "bump": 0.10}
                    ],
                }
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_OK
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "flat@0.1" in summary
        assert "jump@0.9" in summary
        residuals = [
            float(line.split("=")[1])
            for line in summary.splitlines()
            if line.startswith("constraint ")
        ]
        assert all(abs(r) <= 1e-6 * 10 for r in residuals)

    def test_infeasible_targets_exit_2(self, tmp_path):
        # demands the 0.9-level shortfall below the 0.8-level one, which no
        # distribution satisfies; the solver must report non-convergence
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 64,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {
                    "name": "impossible",
                    "kind": "rm",
                    "constraints": [
                        {"gamma": "es", "alpha": 0.8, "bump": 0.2},
                        {"gamma": "es", "alpha": 0.9, "target": 1.0},
                    ],
                }
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_NOT_CONVERGED
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "error_kind = NotConverged" in summary
        assert "residuals" in summary

    def test_var_misuse_exits_3(self, tmp_path, capsys):
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 1024,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {"name": "bad", "kind": "var", "alpha": 0.9, "bump": 0.5,
                 "side": "left"}
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_NO_SOLUTION
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "error_kind = NoSolution" in summary
        assert "left" in summary  # message names the direction condition

    def test_weights_written_with_samples(self, tmp_path):
        rng = np.random.default_rng(5)
        y = rng.lognormal(0.875, 0.5, size=2000)
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(
            "X1,Y\n" + "\n".join(f"{v:.17g},{v:.17g}" for v in y), encoding="utf-8"
        )
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 4096,  # the 2% identity band is pinned at the default grid
            "input": {"csv": str(csv_path)},
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {
                    "name": "identity",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.0}],
                }
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "identity_weights.csv")
        central = (y > np.quantile(y, 0.01)) & (y < np.quantile(y, 0.99))
        assert np.abs(cols["weight"][central] - 1.0).max() <= 0.02


    def test_integral_and_utility_stresses(self, tmp_path):
        grid = discretize(Lognormal(mu=0.875, sigma=0.5), 1024)
        tail_mean = float(np.mean((grid.u > 0.9) * grid.q))
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 1024,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [
                {
                    "name": "bands",
                    "kind": "integral",
                    "linear": [
                        {"h": "const", "bump": -0.02},
                        {"h": "upper_indicator", "alpha": 0.9, "target": 0.97 * tail_mean,
                         "name": "tail_mean"},
                    ],
                    "quadratic": [{"h": "lower_indicator", "alpha": 0.3, "bump": -0.15}],
                },
                {
                    "name": "floor",
                    "kind": "utility_rm",
                    "utility": {"a": 1.0, "b": 5.0, "eta": 0.5},
                    "floor": {"bump": 0.01},
                    "constraints": [{"gamma": "es", "alpha": 0.95, "bump": 0.03}],
                },
            ],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        summary = first["summary.txt"].decode()
        bands, floor = summary.split("[stress floor]")
        residuals = {line.split(":")[0]: float(line.split("=")[1])
                     for line in summary.splitlines() if line.startswith("constraint ")}
        assert set(residuals) == {"constraint linear0", "constraint tail_mean",
                                  "constraint quadratic0", "constraint utility",
                                  "constraint es(0.95,)"}
        assert all(abs(r) <= 1e-6 * 10 for r in residuals.values())
        assert "multipliers_quadratic = [" in bands and "multipliers_quadratic" not in floor
        lines = dict(line.split(" = ") for line in summary.splitlines() if " = " in line)
        assert float(lines["multipliers_quadratic"].strip("[]")) > 0.0
        assert main(["stress", str(cfg)]) == EXIT_OK
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first


class TestSimulateCommand:
    def test_deterministic_output(self, tmp_path):
        config = {
            "out": str(tmp_path / "a"),
            "seed": 99,
            "input": {"scenario": {"n_samples": 500}},
        }
        cfg = write_config(tmp_path, config)
        assert main(["simulate", str(cfg)]) == EXIT_OK
        first = hashlib.sha256((tmp_path / "a" / "samples.csv").read_bytes()).hexdigest()
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        second = hashlib.sha256((tmp_path / "b" / "samples.csv").read_bytes()).hexdigest()
        assert first == second

    def test_header_and_row_count(self, tmp_path):
        config = {
            "out": str(tmp_path / "out"),
            "seed": 3,
            "input": {"scenario": {"n_samples": 400}},
        }
        cfg = write_config(tmp_path, config)
        assert main(["simulate", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert lines[0] == "L1,L2,L3,L4,L5,L6,L7,L8,L9,L10,Y,theta"
        assert len(lines) == 401
        meta = yaml.safe_load((tmp_path / "out" / "samples_meta.yaml").read_text())
        assert meta["seed"] == 3 and meta["n_samples"] == 400
        assert "config_hash" in meta

    @pytest.mark.parametrize("config_seed, flags", [(-3, []), (None, ["--seed", "-3"])])
    def test_negative_seed_exits_1_and_writes_nothing(self, tmp_path, config_seed, flags, capsys):
        out = tmp_path / "out"
        scenario = {"n_samples": 500, "seed": config_seed}
        config = {"out": str(out), "input": {"scenario": scenario}}
        assert main(["simulate", str(write_config(tmp_path, config)), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_theta_frequencies(self, tmp_path):
        config = {
            "out": str(tmp_path / "out"),
            "seed": 17,
            "input": {"scenario": {"n_samples": 20_000}},
        }
        cfg = write_config(tmp_path, config)
        main(["simulate", str(cfg)])
        path = tmp_path / "out" / "samples.csv"
        header = path.read_text().splitlines()[0].split(",")
        theta = np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index("theta"))
        assert theta is not None
        n = theta.size
        for r, p in enumerate((0.05, 0.6, 0.35)):
            count = (theta == r).sum()
            assert abs(count - n * p) <= 3 * np.sqrt(n * p * (1 - p))


class TestRoundTrip:
    def test_csv_reingestion_reproduces_summary(self, tmp_path):
        sim_config = {
            "out": str(tmp_path / "sim"),
            "seed": 11,
            "input": {"scenario": {"n_samples": 5000}},
        }
        cfg_sim = write_config(tmp_path, sim_config)
        assert main(["simulate", str(cfg_sim)]) == EXIT_OK

        stress_config = {
            "out": str(tmp_path / "out1"),
            "grid_n": 1024,
            "input": {"csv": str(tmp_path / "sim" / "samples.csv")},
            "baseline": {"kind": "empirical"},
            "stresses": [
                {
                    "name": "bump",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.02}],
                }
            ],
        }
        cfg_a = tmp_path / "stress_a.yaml"
        cfg_a.write_text(yaml.safe_dump(stress_config), encoding="utf-8")
        code, summary_csv = run_stress(load_config(str(cfg_a), {}))
        assert code == EXIT_OK

        # the same scenario generated in memory: only the config hash may differ
        stress_config.update(out=str(tmp_path / "out2"), seed=11,
                             input={"scenario": {"n_samples": 5000}})
        cfg_b = tmp_path / "stress_b.yaml"
        cfg_b.write_text(yaml.safe_dump(stress_config), encoding="utf-8")
        code, summary_mem = run_stress(load_config(str(cfg_b), {}))
        assert code == EXIT_OK
        hash_csv, rest_csv = summary_csv.split("\n", 1)
        hash_mem, rest_mem = summary_mem.split("\n", 1)
        assert hash_csv.startswith("config_hash = ") and hash_mem != hash_csv
        assert rest_mem == rest_csv  # the 17-digit CSV round trip is exact

    def test_repeat_runs_byte_identical(self, tmp_path):
        sim_config = {
            "out": str(tmp_path / "sim"),
            "seed": 12,
            "input": {"scenario": {"n_samples": 3000}},
        }
        cfg_sim = write_config(tmp_path, sim_config)
        main(["simulate", str(cfg_sim)])
        stress_config = {
            "out": str(tmp_path / "o"),
            "grid_n": 1024,
            "input": {"csv": str(tmp_path / "sim" / "samples.csv")},
            "baseline": {"kind": "empirical"},
            "stresses": [
                {
                    "name": "s",
                    "kind": "mean_var_rm",
                    "mean": {"bump": 0.0},
                    "sd": {"bump": 0.1},
                }
            ],
        }
        cfg = tmp_path / "st.yaml"
        cfg.write_text(yaml.safe_dump(stress_config), encoding="utf-8")
        assert main(["stress", str(cfg)]) == EXIT_OK
        first = (tmp_path / "o" / "summary.txt").read_bytes()
        assert main(["stress", str(cfg)]) == EXIT_OK
        assert (tmp_path / "o" / "summary.txt").read_bytes() == first


class TestSensitivityCommand:
    @pytest.fixture()
    def sens_setup(self, tmp_path):
        sim_config = {
            "out": str(tmp_path / "sim"),
            "seed": 21,
            "input": {"scenario": {"n_samples": 2000}},
        }
        cfg_sim = write_config(tmp_path, sim_config)
        main(["simulate", str(cfg_sim)])
        return tmp_path

    def base_config(self, tmp_path, **sens):
        return {
            "out": str(tmp_path / "out"),
            "grid_n": 1024,
            "input": {"csv": str(tmp_path / "sim" / "samples.csv")},
            "baseline": {"kind": "empirical"},
            "stresses": [
                {
                    "name": "s1",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.01}],
                },
                {
                    "name": "s2",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.03}],
                },
            ],
            "sensitivity": sens,
        }

    def test_row_count_arithmetic(self, sens_setup, tmp_path):
        config = self.base_config(
            tmp_path,
            s_functions=["identity", "power:2", "tail:0.95"],
            pairs=[["L5", "L10"], ["L9", "L10"]],
        )
        cfg = tmp_path / "sens.yaml"
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["sensitivity", str(cfg)]) == EXIT_OK
        lines = (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        # 10 inputs x 3 s-functions x 2 stresses + 2 pairs x 2 stresses
        assert len(body) - 1 == 10 * 3 * 2 + 2 * 2
        assert body[0].split(",")[:4] == ["stress", "input", "s_tag", "S"]
        assert "delta_baseline" not in body[0]

    def test_s_vectors_built_once_per_run(self, sens_setup, tmp_path, monkeypatch):
        calls = {}

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("power_s", "tail_indicator_s", "joint_tail_indicator_s",
                     "reverse_sensitivity"):
            counting(name)
        config = self.base_config(
            tmp_path,
            s_functions=["identity", "power:2", "tail:0.95"],
            pairs=[["L5", "L10"], ["L9", "L10"]],
        )
        cfg = write_config(tmp_path, config)
        assert main(["sensitivity", str(cfg)]) == EXIT_OK
        # one vector per input and s-function, and per pair; each reweighted by
        # both stresses in one call
        assert calls == {"power_s": 10, "tail_indicator_s": 10, "joint_tail_indicator_s": 2,
                         "reverse_sensitivity": 10 * 3 + 2}
        rows = list(csv.reader(
            l for l in (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
            if not l.startswith("#")
        ))[1:]
        # stress-major rows: inputs in column order, s-functions in configured order
        expected = [(c, t) for c in [f"L{m}" for m in range(1, 11)]
                    for t in ("identity", "power:2", "tail:0.95")]
        expected += [("L5:L10", "joint_tail:0.95"), ("L9:L10", "joint_tail:0.95")]
        assert [tuple(r[:3]) for r in rows] == [(s, *e) for s in ("s1", "s2") for e in expected]

    def test_delta_columns_present_only_when_requested(self, sens_setup, tmp_path):
        config = self.base_config(tmp_path, s_functions=["identity"], delta=True)
        config["input"]["csv"] = str(tmp_path / "sim" / "samples.csv")
        cfg = tmp_path / "sens2.yaml"
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["sensitivity", str(cfg)]) == EXIT_OK
        header = [
            l
            for l in (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
            if not l.startswith("#")
        ][0]
        assert "delta_baseline" in header and "delta_stressed" in header

    def test_names_with_commas_are_quoted(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.lognormal(size=(2000, 2))
        csv_path = tmp_path / "samples.csv"
        np.savetxt(csv_path, np.column_stack((x, x.sum(axis=1))), fmt="%.17g", delimiter=",",
                   header='"L,1",L2,Y', comments="")
        config = {"out": str(tmp_path / "out"), "grid_n": 1024, "input": {"csv": str(csv_path)},
                  "stresses": [{**RM_STRESS, "name": "up,10%"}],
                  "sensitivity": {"pairs": [["L,1", "L2"]]}}
        assert main(["sensitivity", str(write_config(tmp_path, config))]) == EXIT_OK
        with open(tmp_path / "out" / "sensitivity.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {len(row) for row in rows} == {len(rows[0])} == {7}
        assert [row[:2] for row in rows[1:]] == [["up,10%", "L,1"], ["up,10%", "L2"],
                                                 ["up,10%", "L,1:L2"]]

    def test_no_solution_exits_3_with_message(self, sens_setup, tmp_path, capsys):
        config = self.base_config(tmp_path, s_functions=["identity"])
        config["stresses"] = [
            {"name": "bad", "kind": "var", "alpha": 0.9, "bump": 0.5, "side": "left"}
        ]
        cfg = tmp_path / "sens3.yaml"
        cfg.write_text(yaml.safe_dump(config), encoding="utf-8")
        assert main(["sensitivity", str(cfg)]) == EXIT_NO_SOLUTION
        assert "error: no solution" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sensitivity.csv").exists()


class TestSmoothCommand:
    def test_smooths_column(self, tmp_path):
        rng = np.random.default_rng(9)
        noisy = np.sort(rng.normal(size=200)) + 0.1 * rng.normal(size=200)
        csv_path = tmp_path / "col.csv"
        csv_path.write_text("v\n" + "\n".join(f"{x:.17g}" for x in noisy))
        config = {
            "out": str(tmp_path / "out"),
            "zeta": 1e-4,
            "smooth": {"csv": str(csv_path), "column": "v"},
        }
        cfg = write_config(tmp_path, config)
        assert main(["smooth", str(cfg)]) == EXIT_OK
        cols = read_csv_columns(tmp_path / "out" / "smoothed.csv")
        assert np.all(np.diff(cols["smoothed"]) >= -1e-12)
        np.testing.assert_allclose(cols["original"], noisy, atol=1e-12)


RM_STRESS = {"name": "s", "kind": "rm",
             "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.1}]}
BOTH = ("stress", "sensitivity")
#: (id, commands, change to a valid config, text the error must contain)
MALFORMED_CONFIGS = [
    ("zeta", BOTH, {"zeta": "abc"}, "'zeta'"),
    ("grid_n", BOTH, {"grid_n": "x"}, "'grid_n'"),
    ("missing_mu", BOTH, {"baseline": {"kind": "lognormal", "sigma": 0.5}}, "'mu'"),
    ("non_numeric_rate", BOTH,
     {"baseline": {"kind": "gamma", "shape": 2.0, "rate": "fast"}}, "'rate'"),
    ("seed", BOTH, {"seed": "abc"}, "'seed'"),
    ("n_samples", BOTH, {"input": {"scenario": {"n_samples": "many"}}}, "'n_samples'"),
    ("baseline_not_mapping", BOTH, {"baseline": "lognormal"}, "'baseline'"),
    ("stresses_not_list", BOTH, {"stresses": "abc"}, "'stresses'"),
    ("stress_not_mapping", BOTH, {"stresses": [["rm"]]}, "stress 0 must be a mapping"),
    ("es_without_alpha", BOTH,
     {"stresses": [{"name": "s", "kind": "rm", "constraints": [{"gamma": "es", "bump": 0.1}]}]},
     "stress 's' constraint 0 is missing 'alpha'"),
    ("indicator_without_alpha", BOTH,
     {"stresses": [{"name": "s", "kind": "integral",
                    "linear": [{"h": "upper_indicator", "bump": 0.1}]}]},
     "stress 's' linear 0 is missing 'alpha'"),
    ("out_null", BOTH, {"out": None}, "'out'"),
    ("duplicate_name", BOTH, {"stresses": [RM_STRESS, {**RM_STRESS, "kind": "mean_var_rm"}]},
     "stress name 's'"),
    ("duplicate_kind", BOTH,
     {"stresses": [{k: v for k, v in RM_STRESS.items() if k != "name"}] * 2},
     "stress name 'rm'"),
    ("name_with_path", BOTH, {"stresses": [{**RM_STRESS, "name": "../s"}]}, "'../s'"),
    # a line break would split summary.txt's [stress <name>] line
    ("name_with_newline", BOTH, {"stresses": [{**RM_STRESS, "name": "up\nx"}]}, "'up\\nx'"),
    ("name_with_cr", BOTH, {"stresses": [{**RM_STRESS, "name": "up\rx"}]}, "'up\\rx'"),
    ("name_with_line_separator", BOTH, {"stresses": [{**RM_STRESS, "name": "up\u2028x"}]},
     "'up\\u2028x'"),
    ("pair_alpha", ["sensitivity"], {"sensitivity": {"pair_alpha": "hi"}}, "'pair_alpha'"),
    ("s_function_parameter", ["sensitivity"], {"sensitivity": {"s_functions": ["power:x"]}},
     "'power:x'"),
    ("tail_level", ["sensitivity"], {"sensitivity": {"s_functions": ["tail:1.5"]}},
     "'tail:1.5'"),
    ("pair_of_one", ["sensitivity"], {"sensitivity": {"pairs": [["L1"]]}}, "pair 0"),
    ("pair_unknown_column", ["sensitivity"], {"sensitivity": {"pairs": [["L1", "Lx"]]}},
     "pair 0"),
    ("missing_csv", ["smooth"], {"smooth": {"csv": "/nonexistent/missing.csv"}},
     "missing.csv"),
    # a key's value is not converted across types
    ("delta_string_false", ["sensitivity"], {"sensitivity": {"delta": "false"}}, "'delta'"),
    ("delta_string_no", ["sensitivity"], {"sensitivity": {"delta": "no"}}, "'delta'"),
    ("delta_list", ["sensitivity"], {"sensitivity": {"delta": [0]}}, "'delta'"),
    ("seed_fraction", BOTH, {"seed": 1.5}, "'seed'"),
    ("n_samples_fraction", (*BOTH, "simulate"),
     {"input": {"scenario": {"n_samples": 2000.5}}}, "'n_samples'"),
    ("grid_n_bool", BOTH, {"grid_n": True}, "'grid_n'"),
    ("zeta_bool", BOTH, {"zeta": True}, "'zeta'"),
    # every other configuration error the commands raise
    ("unknown_baseline_kind", BOTH, {"baseline": {"kind": "weibull"}},
     "unknown baseline kind 'weibull'"),
    ("unknown_stress_kind", BOTH, {"stresses": [{"name": "s", "kind": "cubic"}]},
     "stress 's': unknown stress kind 'cubic'"),
    ("constraint_without_target", BOTH,
     {"stresses": [{"name": "s", "kind": "rm", "constraints": [{"gamma": "es", "alpha": 0.9}]}]},
     "stress 's' constraint 0 needs either 'target' or 'bump'"),
    ("unknown_integral_h", BOTH,
     {"stresses": [{"name": "s", "kind": "integral", "linear": [{"h": "cubic", "bump": 0.1}]}]},
     "stress 's' linear 0: unknown integral constraint function 'cubic'"),
    ("pair_alpha_outside", ["sensitivity"], {"sensitivity": {"pair_alpha": 1.5}},
     "'pair_alpha' must lie in [0, 1], got 1.5"),
    ("parametric_without_input", ["sensitivity"], {"input": None},
     "sensitivity requires input samples"),
    ("empirical_without_input", BOTH, {"baseline": {"kind": "empirical"}, "input": None},
     "empirical baseline requires input samples"),
    ("input_without_source", BOTH, {"input": {"output_column": "Y"}},
     "input section needs either 'csv' or 'scenario'"),
    ("smooth_without_csv", ["smooth"], {"smooth": {"column": "Y"}},
     "smooth needs a CSV path"),
    ("simulate_too_few_samples", ["simulate"], {"input": {"scenario": {"n_samples": 50}}},
     "need at least 100 samples"),
]


class TestConfigErrors:
    def test_missing_file_exits_1(self, capsys):
        assert main(["stress", "/nonexistent/config.yaml"]) == 1

    @pytest.mark.parametrize("content, needle", [
        (b"stresses: [\n", "cannot parse config"),
        (b"- stresses\n- out\n", "config must be a mapping"),
        ("out: r\xe9sultats\n".encode("latin-1"), "cannot read config"),
    ], ids=["yaml_parse_error", "top_level_list", "latin1"])
    def test_unreadable_config_exits_1(self, tmp_path, monkeypatch, content, needle, capsys):
        monkeypatch.chdir(tmp_path)  # where the default out would go
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(content)
        assert main(["stress", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, needle", [
        ("stress", "sample file lacks output column 'Y'"),
        ("smooth", "lacks column 'Y'"),
    ])
    def test_csv_without_the_column_exits_1(self, tmp_path, command, needle, capsys):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("L1,Z\n1.0,2.0\n3.0,4.0\n", encoding="utf-8")
        out = tmp_path / "out"
        config = {"out": str(out), "input": {"csv": str(csv_path)},
                  "baseline": {"kind": "empirical"}, "stresses": [RM_STRESS]}
        assert main([command, str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert not out.exists()

    def test_integral_floats_are_integers(self, tmp_path):
        config = {"out": str(tmp_path / "out"), "grid_n": 256.0, "seed": 3.0,
                  "input": {"scenario": {"n_samples": 500.0}},
                  "baseline": {"kind": "empirical"}, "stresses": [RM_STRESS]}
        assert main(["stress", str(write_config(tmp_path, config))]) == EXIT_OK
        assert "grid_n = 256\n" in (tmp_path / "out" / "summary.txt").read_text()

    def test_missing_stresses_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"baseline": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0}}
        )
        assert main(["stress", str(cfg)]) == 1

    @pytest.mark.parametrize("command", ["stress", "sensitivity"])
    def test_empty_stresses_exit_1_and_write_nothing(self, tmp_path, command, capsys):
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "input": {"scenario": {"n_samples": 500}},
            "baseline": {"kind": "empirical"},
            "stresses": [],
        }
        assert main([command, str(write_config(tmp_path, config))]) == 1
        assert "at least one stress" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("zeta", ["-1", "nan"])
    @pytest.mark.parametrize("kind", ["rm", "var"])
    def test_invalid_zeta_exits_1(self, tmp_path, kind, zeta, capsys):
        stress = {"name": "s", "kind": "var", "side": "left", "alpha": 0.9, "bump": -0.1}
        if kind == "rm":
            stress = {"name": "s", "kind": "rm",
                      "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.1}]}
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 256,
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [stress],
        }
        cfg = write_config(tmp_path, config)
        assert main(["stress", str(cfg), "--zeta", zeta]) == 1
        assert "zeta must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command, change, needle", [
        pytest.param(command, change, needle, id=f"{command}-{case}")
        for case, commands, change, needle in MALFORMED_CONFIGS
        for command in commands
    ])
    def test_malformed_value_exits_1_and_writes_nothing(
        self, tmp_path, command, change, needle, capsys
    ):
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "grid_n": 256,
            "input": {"scenario": {"n_samples": 500}},
            "baseline": {"kind": "lognormal", "mu": 0.875, "sigma": 0.5},
            "stresses": [RM_STRESS],
            **change,
        }
        assert main([command, str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert not out.exists()


MALFORMED_CSV = {
    "comments_only": "# config_hash = 0\n# nothing else\n",
    "header_only": "L1,Y\n",
    "non_numeric_cell": "L1,Y\n1.0,2.0\n3.0,abc\n",
    "ragged_row": "L1,Y\n1.0,2.0\n3.0\n",
    "too_many_cells": "L1,Y\n1.0,2.0,3.0\n4.0,5.0,6.0\n",
    "missing_file": None,
    # the tests write each file as Latin-1, which leaves the ASCII ones above as they are
    "latin1_header": "L\xe9,Y\n1.0,2.0\n",
    "latin1_late_cell": "L1,Y\n" + "1.0,2.0\n" * 4000 + "3.0,\xe9\n",
}


class TestMalformedCsv:
    @pytest.mark.parametrize("content", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
    def test_smooth_exits_1(self, tmp_path, content, capsys):
        csv_path = tmp_path / "bad.csv"
        if content is not None:
            csv_path.write_text(content, encoding="latin-1")
        config = {
            "out": str(tmp_path / "out"),
            "zeta": 1e-4,
            "smooth": {"csv": str(csv_path), "column": "Y"},
        }
        assert main(["smooth", str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", MALFORMED_CSV.values(), ids=MALFORMED_CSV.keys())
    def test_stress_exits_1(self, tmp_path, content, capsys):
        csv_path = tmp_path / "bad.csv"
        if content is not None:
            csv_path.write_text(content, encoding="latin-1")
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 256,
            "input": {"csv": str(csv_path)},
            "baseline": {"kind": "empirical"},
            "stresses": [
                {
                    "name": "bump",
                    "kind": "rm",
                    "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.02}],
                }
            ],
        }
        assert main(["stress", str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv" in err
        assert not (tmp_path / "out").exists()


class TestPartialOutput:
    """A configuration error in any stress stops the run before ``out`` exists."""

    STRESSES = [
        {"name": "a", "kind": "rm", "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.1}]},
        {"name": "b", "kind": "rm", "constraints": [{"gamma": "nope", "bump": 0.1}]},
    ]

    @pytest.mark.parametrize("command", ["stress", "sensitivity"])
    def test_bad_later_stress_writes_nothing(self, tmp_path, command, capsys):
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "grid_n": 256,
            "input": {"scenario": {"n_samples": 1000}},
            "baseline": {"kind": "empirical"},
            "stresses": self.STRESSES,
        }
        assert main([command, str(write_config(tmp_path, config))]) == 1
        assert "nope" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stress", "sensitivity"])
    def test_undefined_weights_write_nothing(self, tmp_path, command, capsys):
        # samples fall below the gamma baseline's shift, where its density
        # vanishes, so the stress solves but its weights are undefined
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "grid_n": 256,
            "input": {"scenario": {"n_samples": 500}},
            "baseline": {"kind": "gamma", "shape": 2.0, "rate": 0.5, "shift": 30.0},
            "stresses": self.STRESSES[:1],
        }
        assert main([command, str(write_config(tmp_path, config))]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_delta_on_too_few_samples_writes_nothing(self, tmp_path, capsys):
        # the stresses solve and reweight; the delta measure then needs 20 x 50 samples
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "grid_n": 256,
            "input": {"scenario": {"n_samples": 500}},
            "baseline": {"kind": "empirical"},
            "stresses": self.STRESSES[:1],
            "sensitivity": {"delta": True},
        }
        assert main(["sensitivity", str(write_config(tmp_path, config))]) == 1
        assert "need at least 1000 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_delta_bin_too_small_names_input_and_count(self, tmp_path, capsys):
        # 1000 samples pass the 20 x 50 check, but the stressed weights leave
        # one of their equal-probability bins of L1 with 49 samples
        sim = tmp_path / "sim"
        assert main(["simulate", str(write_config(tmp_path, {
            "out": str(sim), "input": {"scenario": {"n_samples": 1000}}}))]) == 0
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "zeta": 1e-4,
            "input": {"csv": str(sim / "samples.csv")},
            "stresses": [{"name": "es_up", "kind": "rm",
                          "constraints": [{"gamma": "es", "alpha": 0.95, "bump": 0.1}]}],
            "sensitivity": {"delta": True},
        }
        assert main(["sensitivity", str(write_config(tmp_path, config))]) == 1
        err = capsys.readouterr().err
        assert "delta measure of input 'L1': bin 1 of 20 holds 49 samples" in err
        assert f"DELTA_MIN_PER_BIN = {DELTA_MIN_PER_BIN}" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_s_values_write_nothing(self, tmp_path, capsys):
        # a zero input cell makes power:-1 infinite after every stress is reweighted
        rng = np.random.default_rng(5)
        x = np.concatenate(([0.0], rng.uniform(1.0, 2.0, 499)))
        y = x + rng.lognormal(size=500)
        csv_path = tmp_path / "samples.csv"
        _write_csv(csv_path, ["L1", "Y"], [x, y], None)
        out = tmp_path / "out"
        config = {
            "out": str(out),
            "grid_n": 256,
            "input": {"csv": str(csv_path)},
            "baseline": {"kind": "empirical"},
            "stresses": self.STRESSES[:1],
            "sensitivity": {"s_functions": ["power:-1"]},
        }
        assert main(["sensitivity", str(write_config(tmp_path, config))]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_number_exits_1(self, tmp_path, capsys):
        stress = {"name": "v", "kind": "var", "alpha": "high", "bump": 0.1}
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 256,
            "baseline": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0},
            "stresses": [stress],
        }
        assert main(["stress", str(write_config(tmp_path, config))]) == 1
        assert "stress 'v'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("zeta", ["inf", "-0.5"])
    @pytest.mark.parametrize("command", ["stress", "sensitivity"])
    def test_invalid_zeta_writes_nothing(self, tmp_path, command, zeta, capsys):
        config = {
            "out": str(tmp_path / "out"),
            "grid_n": 256,
            "input": {"scenario": {"n_samples": 1000}},
            "baseline": {"kind": "empirical"},
            "stresses": self.STRESSES[:1],
        }
        assert main([command, str(write_config(tmp_path, config)), "--zeta", zeta]) == 1
        assert "zeta must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def per_cell_csv(header, columns, hash_line=None):
    """The CSV text written one cell at a time with ``'{:.17g}'``."""
    lines = [f"# config_hash={hash_line}"] if hash_line else []
    lines.append(",".join(header))
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else "{:.17g}".format(v) for v in row))
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 1e16, 0.1, 1 / 3, 123456789.0]

    def test_special_values_match_per_cell_format(self, tmp_path):
        columns = [np.array(self.SPECIAL), np.arange(len(self.SPECIAL), dtype=float),
                   list(reversed(self.SPECIAL))]
        _write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns, "abc")
        expected = per_cell_csv(["a", "b", "c"], columns, "abc")
        assert (tmp_path / "t.csv").read_text() == expected

    def test_text_float_int_and_tuple_columns(self, tmp_path):
        n = 20_000  # more rows than one formatting chunk
        rng = np.random.default_rng(3)
        # the tuples are sensitivity.csv's columns, one text and one float
        columns = [np.array([f"s{i % 7}" for i in range(n)]), rng.normal(size=n), np.arange(n),
                   tuple(f"t{i % 5}" for i in range(n)), tuple(rng.normal(size=n).tolist())]
        header = ["name", "value", "count", "stress", "S"]
        _write_csv(tmp_path / "t.csv", header, columns, None)
        assert (tmp_path / "t.csv").read_text() == per_cell_csv(header, columns)

    def test_text_cells_are_quoted(self, tmp_path):
        names = ("up,10%", 'say "hi"', "cr\rx", "lf\nx", "plain")
        path = tmp_path / "t.csv"
        _write_csv(path, ["name", "i"], [names, np.arange(len(names))], None)
        assert path.read_bytes().decode() == (
            'name,i\n"up,10%",0\n"say ""hi""",1\n"cr\rx",2\n"lf\nx",3\nplain,4\n')
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [[name, str(i)] for i, name in enumerate(names)]

    def test_integer_arrays_are_written_exactly(self, tmp_path):
        # %.17g would write 2**60 as 1.152921504606847e+18
        columns = [np.array([0, 7, 2**60, -(2**60)]), np.array([True, False, True, True])]
        _write_csv(tmp_path / "t.csv", ["i", "b"], columns, None)
        assert (tmp_path / "t.csv").read_text() == (
            "i,b\n0,1\n7,0\n1152921504606846976,1\n-1152921504606846976,1\n")

    def test_zero_rows_write_header_only(self, tmp_path):
        _write_csv(tmp_path / "a.csv", ["x", "y"], [], "h")
        _write_csv(tmp_path / "b.csv", ["x", "y"], [np.array([]), []], None)
        assert (tmp_path / "a.csv").read_text() == "# config_hash=h\nx,y\n"
        assert (tmp_path / "b.csv").read_text() == "x,y\n"


class TestCsvReader:
    def reference(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        return [h.strip() for h in rows[0]], np.asarray(rows[1:], dtype=float)

    @pytest.mark.parametrize("text", [
        '# config_hash=1\n"a", b ,c\n"1.5",2, 3 \n\n4,"5e-3",-inf\n',
        "a,b\r\n1,2\r\n\r\n3,4\r\n",
        "# comment\n\nx,y,z\n0.1,-0,nan\n",
        "only\n7\n8\n",
    ], ids=["quoted_padded_blank", "crlf", "single_row", "one_column"])
    def test_matches_csv_reader(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        header, data = _read_csv_table(str(path))
        ref_header, ref_data = self.reference(path)
        assert header == ref_header
        assert data.shape == ref_data.shape
        assert np.array_equal(data, ref_data, equal_nan=True)
        assert np.array_equal(np.signbit(data), np.signbit(ref_data))

    @pytest.mark.parametrize("text", ["Y,L1\n1.5,2\n3,-0.25\n",
                                      "# config_hash=1\nY,L1\n1.5,2\n3,-0.25\n"],
                             ids=["header_first", "comment_first"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        header, data = _read_csv_table(str(marked))
        ref_header, ref_data = _read_csv_table(str(plain))
        assert header == ref_header == ["Y", "L1"]
        assert data.tobytes() == ref_data.tobytes()

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.floats(allow_nan=False)),
                    min_size=1, max_size=40))
    def test_round_trip_is_exact(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        data = np.array(rows, dtype=float)
        _write_csv(path, ["a", "b", "c"], list(data.T), "h")
        header, back = _read_csv_table(str(path))
        assert header == ["a", "b", "c"]
        assert back.shape == data.shape
        assert np.array_equal(back, data, equal_nan=True)
        assert np.array_equal(np.signbit(back[~np.isnan(back)]), np.signbit(data[~np.isnan(data)]))


#: the scenario seeds of perfbench's ``cli_portfolio`` workload
CLI_SCENARIO_SEEDS = (7, 11, 19, 23, 31, 43, 59, 71)


class TestTableCopy:
    """``simulate``'s ``samples.npz`` stands in for a parse only while it matches the CSV."""

    def simulate(self, tmp_path, seed=7, n_samples=500) -> Path:
        config = {"out": str(tmp_path / "sim"), "seed": seed,
                  "input": {"scenario": {"n_samples": n_samples}}}
        assert main(["simulate", str(write_config(tmp_path, config))]) == EXIT_OK
        return tmp_path / "sim" / "samples.csv"

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The number of ``np.loadtxt`` calls, which only the CSV parse makes."""
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        return calls

    def parse(self, csv_path: Path, tmp_path: Path):
        """The CSV's parse, read from a copy of the CSV alone."""
        bare = tmp_path / "bare" / "samples.csv"
        bare.parent.mkdir()
        bare.write_bytes(csv_path.read_bytes())
        return _read_csv_table(str(bare))

    @pytest.mark.parametrize("seed", CLI_SCENARIO_SEEDS)
    def test_copy_equals_parse_bit_for_bit(self, tmp_path, seed, parses):
        csv_path = self.simulate(tmp_path, seed=seed)
        header, data = _read_csv_table(str(csv_path))
        assert parses == []
        ref_header, ref_data = self.parse(csv_path, tmp_path)
        assert parses == [1]
        assert header == ref_header == ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9",
                                        "L10", "Y", "theta"]
        assert data.dtype == ref_data.dtype and data.shape == ref_data.shape == (500, 12)
        assert data.tobytes() == ref_data.tobytes()

    def test_copy_is_deterministic(self, tmp_path):
        copy = self.simulate(tmp_path).with_suffix(".npz")
        first = copy.read_bytes()
        copy.unlink()
        assert self.simulate(tmp_path).with_suffix(".npz").read_bytes() == first

    def test_edited_cell_is_parsed(self, tmp_path, parses):
        csv_path = self.simulate(tmp_path)
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[1] = "123.5" + lines[1][lines[1].index(","):]
        csv_path.write_text("".join(lines))
        header, data = _read_csv_table(str(csv_path))
        assert parses == [1]
        assert data[0, 0] == 123.5 and header[0] == "L1"

    def rewrite(self, copy: Path, key: str, change):
        """Save the copy again with ``key`` set to ``change(old value)``, or left out for None."""
        with np.load(copy) as npz:
            saved = dict(npz)
        saved[key] = change(saved[key])
        np.savez(copy, **{k: v for k, v in saved.items() if v is not None})

    FALLBACKS = {
        "truncated": lambda self, csv_path, copy: copy.write_bytes(
            copy.read_bytes()[: copy.stat().st_size // 2]),
        "empty": lambda self, csv_path, copy: copy.write_bytes(b""),
        "not_a_zip": lambda self, csv_path, copy: copy.write_text("L1,Y\n1,2\n"),
        "missing_key": lambda self, csv_path, copy: self.rewrite(
            copy, "csv_sha256", lambda sha: None),
        "wrong_shape": lambda self, csv_path, copy: self.rewrite(
            copy, "data", lambda data: data[:, :-1].copy()),
        "wrong_dtype": lambda self, csv_path, copy: self.rewrite(
            copy, "data", lambda data: data.astype(np.float32)),
        "foreign_csv": lambda self, csv_path, copy: csv_path.write_text(
            "L1,Y\n" + "".join(f"{i},{2 * i}\n" for i in range(200))),
    }

    @pytest.mark.parametrize("damage", FALLBACKS.values(), ids=FALLBACKS.keys())
    def test_unusable_copy_falls_back_to_the_parse(self, tmp_path, damage, parses):
        csv_path = self.simulate(tmp_path)
        damage(self, csv_path, csv_path.with_suffix(".npz"))
        parses.clear()
        header, data = _read_csv_table(str(csv_path))
        assert parses == [1]
        ref_header, ref_data = self.parse(csv_path, tmp_path)
        assert header == ref_header
        assert data.tobytes() == ref_data.tobytes()

    def test_stress_reads_past_a_truncated_copy(self, tmp_path):
        csv_path = self.simulate(tmp_path, n_samples=2000)
        copy = csv_path.with_suffix(".npz")
        out = tmp_path / "out"
        config = {"out": str(out), "grid_n": 512, "input": {"csv": str(csv_path)},
                  "stresses": [{"name": "up", "kind": "rm",
                                "constraints": [{"gamma": "es", "alpha": 0.9, "bump": 0.05}]}]}
        cfg = write_config(tmp_path, config)
        outputs = []
        for _ in ("whole", "truncated"):
            assert main(["stress", str(cfg)]) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            copy.write_bytes(copy.read_bytes()[:100])
        assert outputs[0] == outputs[1]
        summary = outputs[0]["summary.txt"].decode().splitlines()
        at = summary.index("zero_weight_count = 0")
        assert summary[at + 1].startswith("normalisation = 0.99")
