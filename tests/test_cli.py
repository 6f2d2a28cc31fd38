"""Command-line interface tests, run in-process through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqsynth
from freqsynth import cli, evaluation, load_csv, model_from_json
from freqsynth.cli import build_parser, main

SUBCOMMANDS = (
    "generate",
    "periodogram",
    "estimate",
    "similarity",
    "fit",
    "evaluate",
    "confusion",
    "generalization",
    "transfer",
    "sweep-harmonics",
    "sweep-size",
    "bench-gen",
)

# The subcommands that draw no random numbers, and so take no --seed.
UNSEEDED = ("periodogram", "estimate", "similarity")


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def write_config(path, **fields):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(fields, f)
    return str(path)


def gen_csv(tmp_path, name, omega=1 / 24, h=1, n=1024, d=2, seed=0):
    """Generate a small dataset CSV through the CLI itself."""
    cfg = write_config(
        tmp_path / f"{name}.cfg.json", omega_bar=omega, h=h, n=n, d=d, seed=seed
    )
    out = str(tmp_path / f"{name}.csv")
    assert main(["generate", "--config", cfg, "--out", out, "--seed", str(seed)]) == 0
    return out


class TestParsing:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert ("--seed" in capsys.readouterr().out) == (name not in UNSEEDED)

    @pytest.mark.parametrize("name", UNSEEDED)
    def test_seed_is_rejected_where_nothing_reads_it(self, name, capsys):
        argv = ["--inputs", "a.csv", "b.csv"] if name == "similarity" else ["--input", "a.csv"]
        with pytest.raises(SystemExit) as exc:
            main([name, *argv, "--out", "o.csv", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", "x.csv", "--bogus", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name, flag", [
        ("estimate", "--rel-threshold"), ("estimate", "--bin-tol"),
        ("transfer", "--lambda"), ("confusion", "--omega"),
    ])
    def test_fixed_settings_take_no_flag(self, name, flag, capsys):
        """The estimator's threshold and tolerance, transfer's exact fits and
        confusion's base frequency are constants."""
        with pytest.raises(SystemExit) as exc:
            main([name, "--out", "o.csv", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--horizons", "96,x", "expected comma-separated integers, got '96,x'"),
            ("--horizons", "2.5", "expected comma-separated integers, got '2.5'"),
            ("--horizons", " , ", "list must be non-empty"),
            ("--split", "0.7,a,0.1", "expected comma-separated reals, got '0.7,a,0.1'"),
            ("--split", ",", "list must be non-empty"),
        ],
    )
    def test_bad_list_is_a_usage_error(self, flag, value, message, capsys):
        argv = ["evaluate", "--model", "naive", "--input", "x.csv", "--out", "r.csv"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"{flag}: {message}")

    def test_parser_lists_all_subcommands(self):
        helptext = build_parser().format_help()
        for name in SUBCOMMANDS:
            assert name in helptext


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path):
        path = gen_csv(tmp_path, "a", n=512, d=2)
        ds = load_csv(path)
        assert ds.values.shape == (2, 512)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", omega_bar=1 / 24, h=2, n=512, d=2
        )
        p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        assert main(["generate", "--config", cfg, "--out", p1, "--seed", "7"]) == 0
        assert main(["generate", "--config", cfg, "--out", p2, "--seed", "7"]) == 0
        assert read_bytes(p1) == read_bytes(p2)

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", omega_bar=1 / 24, n=256, d=1)
        p1, p2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        main(["generate", "--config", cfg, "--out", p1, "--seed", "1"])
        main(["generate", "--config", cfg, "--out", p2, "--seed", "2"])
        assert read_bytes(p1) != read_bytes(p2)

    def test_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_invalid_omega_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        rc = main(["generate", "--omega", "0.7", "--out", out])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field", ["omega_bar", "A_prime"])
    def test_config_string_number_is_one_line_error(self, tmp_path, capsys, field):
        fields = {"omega_bar": 0.1, "n": 256, "d": 1, field: "0.1"}
        cfg = write_config(tmp_path / "c.json", **fields)
        out = str(tmp_path / "x.csv")
        rc = main(["generate", "--config", cfg, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", [1.5, "3", True, -1])
    def test_config_bad_seed_is_one_line_error(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "c.json", omega_bar=0.1, n=256, d=1, seed=seed)
        out = str(tmp_path / "x.csv")
        assert main(["generate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"freqsynth: error: {cfg}: seed must be an integer >= 0, got {seed!r}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, fields", [
        (["--h", "0"], {"omega_bar": 0.04, "n": 256, "d": 1}),
        (["--h", "0"], {"omega_bar": 0.7, "n": 256, "d": 1}),  # the file is bad too
        (["--omega", "0.7"], {"omega_bar": 0.04, "n": 256, "d": 1}),
        (["--seed", "-1"], {"omega_bar": 0.04, "n": 256, "d": 1}),
    ])
    def test_config_flag_error_does_not_name_the_file(self, tmp_path, capsys, flag,
                                                      fields):
        cfg = write_config(tmp_path / "c.json", **fields)
        out = str(tmp_path / "x.csv")
        assert main(["generate", "--config", cfg, *flag, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("freqsynth: error: ") and err.count("\n") == 1
        assert cfg not in err and flag[0].lstrip("-") in err
        assert not os.path.exists(out)

    def test_rate_token_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", omega_bar=0.1, n=256, d=1)
        out = str(tmp_path / "y.csv")
        rc = main(["generate", "--config", cfg, "--rate", "1h", "--out", out])
        assert rc == 0

    def test_config_rate_flag_overrides_file_omega(self, tmp_path):
        # --rate 1h is omega 1/24; --omega, when also given, wins over it
        cfg = write_config(tmp_path / "c.json", omega_bar=0.1, n=256, d=1)
        paths = {k: str(tmp_path / f"{k}.csv") for k in ("rate", "omega", "both")}
        main(["generate", "--config", cfg, "--rate", "1h", "--out", paths["rate"]])
        main(["generate", "--config", cfg, "--omega", str(1 / 24),
              "--out", paths["omega"]])
        main(["generate", "--config", cfg, "--rate", "1d", "--omega", str(1 / 24),
              "--out", paths["both"]])
        assert read_bytes(paths["rate"]) == read_bytes(paths["omega"])
        assert read_bytes(paths["both"]) == read_bytes(paths["omega"])
        plain = str(tmp_path / "plain.csv")
        main(["generate", "--config", cfg, "--out", plain])
        assert read_bytes(plain) != read_bytes(paths["rate"])

    def test_config_seed_kept_unless_flag_given(self, tmp_path):
        seeded = write_config(tmp_path / "s.json", omega_bar=0.1, n=256, d=1, seed=5)
        bare = write_config(tmp_path / "b.json", omega_bar=0.1, n=256, d=1)
        paths = {k: str(tmp_path / f"{k}.csv") for k in ("file", "flag", "over")}
        main(["generate", "--config", seeded, "--out", paths["file"]])
        main(["generate", "--config", bare, "--seed", "5", "--out", paths["flag"]])
        main(["generate", "--config", seeded, "--seed", "0", "--out", paths["over"]])
        assert read_bytes(paths["file"]) == read_bytes(paths["flag"])
        bare_default = str(tmp_path / "bare.csv")
        main(["generate", "--config", bare, "--out", bare_default])
        assert read_bytes(paths["over"]) == read_bytes(bare_default)
        assert read_bytes(paths["file"]) != read_bytes(bare_default)

    def test_config_bad_rate_is_one_line_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", omega_bar=0.1, n=256, d=1)
        out = str(tmp_path / "x.csv")
        assert main(["generate", "--config", cfg, "--rate", "2y", "--out", out]) == 2
        assert "2y" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_config_over_point_budget_is_one_line_error(self, tmp_path, capsys,
                                                         monkeypatch):
        # the config is refused when it is built; nothing of this size
        # may ever be synthesized
        def refuse(cfg):
            raise AssertionError("synthesize was called")

        monkeypatch.setattr(cli, "synthesize", refuse)
        cfg = write_config(tmp_path / "c.json", omega_bar=0.1, n=10**9, d=10**6)
        out = str(tmp_path / "x.csv")
        assert main(["generate", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"freqsynth: error: {cfg}: n * d = 1000000000 * 1000000 = 1000000000000000 "
            "points exceeds the limit of 1000000000 points\n"
        )
        assert not os.path.exists(out)


class TestPeriodogramAndEstimate:
    def test_periodogram_csv_and_plot(self, tmp_path):
        src = gen_csv(tmp_path, "p", n=1024, d=2)
        out, svg = str(tmp_path / "p.csv"), str(tmp_path / "p.svg")
        rc = main(["periodogram", "--input", src, "--out", out, "--plot", svg])
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "frequency,power"
        assert len(lines) > 100
        head = open(svg, encoding="utf-8").read()
        assert head.startswith("<svg") and "polyline" in head

    def test_periodogram_deterministic(self, tmp_path):
        src = gen_csv(tmp_path, "pd", n=512, d=1)
        o1, o2 = str(tmp_path / "o1.csv"), str(tmp_path / "o2.csv")
        main(["periodogram", "--input", src, "--out", o1])
        main(["periodogram", "--input", src, "--out", o2])
        assert read_bytes(o1) == read_bytes(o2)

    def test_estimate_rate_to_stdout(self, capsys):
        assert main(["estimate", "--rate", "15m"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["omega_bar"] - 1 / 96) < 1e-12
        assert doc["source"] == "table"
        assert doc["confidence"] == 1.0

    def test_estimate_from_file(self, tmp_path):
        src = gen_csv(tmp_path, "e", omega=1 / 24, h=2, n=1024, d=2)
        out = str(tmp_path / "e.json")
        assert main(["estimate", "--input", src, "--out", out]) == 0
        doc = json.loads(open(out, encoding="utf-8").read())
        assert abs(doc["omega_bar"] - 1 / 24) <= 2 / 1024
        assert doc["source"] == "periodogram"

    def test_estimate_requires_source(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == 2

    def test_missing_input_no_partial_output(self, tmp_path, capsys):
        out = str(tmp_path / "never.json")
        rc = main(["estimate", "--input", str(tmp_path / "nope.csv"), "--out", out])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(out)


    def test_oversized_field_is_one_line_error(self, tmp_path, capsys):
        src = str(tmp_path / "big.csv")
        with open(src, "w", encoding="utf-8") as f:
            f.write(f"date,x\n0,1.5\n1,{'1' * 200_000}\n")
        out = str(tmp_path / "never.json")
        rc = main(["estimate", "--input", src, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (
            f"freqsynth: error: {src}: row 2: field larger than field limit (131072)\n"
        )
        assert not os.path.exists(out)


class TestSimilarity:
    def test_matrix_diagonal_and_range(self, tmp_path):
        a = gen_csv(tmp_path, "sa", omega=1 / 24, seed=1)
        b = gen_csv(tmp_path, "sb", omega=1 / 24, seed=2)
        c = gen_csv(tmp_path, "sc", omega=1 / 7, seed=3)
        out = str(tmp_path / "sim.csv")
        assert main(["similarity", "--inputs", a, b, c, "--out", out]) == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert len(lines) == 4
        mat = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.all(np.diag(mat) == 1.0)
        assert np.all(np.abs(mat) <= 1.0 + 1e-12)
        assert np.max(np.abs(mat - mat.T)) < 1e-9
        # same fundamental correlates far better than a different one
        assert mat[0, 1] > mat[0, 2]

    def test_needs_two_inputs(self, tmp_path):
        a = gen_csv(tmp_path, "solo", n=256, d=1)
        with pytest.raises(SystemExit) as exc:
            main(["similarity", "--inputs", a, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestFitEvaluate:
    def test_fit_writes_model(self, tmp_path):
        out = str(tmp_path / "m.json")
        rc = main(
            [
                "fit", "--omega", str(1 / 24), "--count", "300",
                "--lookback", "32", "--horizons", "8,16", "--out", out,
            ]
        )
        assert rc == 0
        model = model_from_json(open(out, encoding="utf-8").read())
        assert (model.L, model.H) == (32, 16)

    def test_fit_deterministic(self, tmp_path):
        argv = [
            "fit", "--omega", str(1 / 24), "--count", "200", "--lookback",
            "16", "--horizons", "8", "--seed", "5",
        ]
        o1, o2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        assert main(argv + ["--out", o1]) == 0
        assert main(argv + ["--out", o2]) == 0
        assert read_bytes(o1) == read_bytes(o2)

    def test_evaluate_model_without_horizon_is_one_line_error(self, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        with open(model_path, "w", encoding="utf-8") as f:
            json.dump({"L": 4, "lambda": 0.0, "weights": [0.0] * 10}, f)
        data = gen_csv(tmp_path, "ev", n=256, d=1)
        capsys.readouterr()
        rc = main([
            "evaluate", "--model", model_path, "--input", data, "--lookback", "4",
            "--out", str(tmp_path / "r.json"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "'H'" in err

    def test_evaluate_ridge_model_on_matching_data(self, tmp_path):
        model_path = str(tmp_path / "m.json")
        main(
            [
                "fit", "--omega", str(1 / 24), "--count", "400",
                "--lookback", "32", "--horizons", "16", "--out", model_path,
            ]
        )
        data = gen_csv(tmp_path, "ev", omega=1 / 24, h=1, n=512, d=2)
        out = str(tmp_path / "r.json")
        rc = main(
            [
                "evaluate", "--model", model_path, "--input", data,
                "--lookback", "32", "--horizons", "16", "--out", out,
            ]
        )
        assert rc == 0
        reports = json.loads(open(out, encoding="utf-8").read())
        assert len(reports) == 1
        assert reports[0]["horizon"] == 16
        assert np.isfinite(reports[0]["mse"])

    def test_evaluate_seasonal_naive_zero_error(self, tmp_path):
        data = gen_csv(tmp_path, "per", omega=1 / 24, h=1, n=512, d=2)
        out = str(tmp_path / "sn.csv")
        rc = main(
            [
                "evaluate", "--model", "seasonal:24", "--input", data,
                "--lookback", "48", "--horizons", "24,48", "--out", out,
            ]
        )
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "dataset,horizon,mse,mae,model,seed"
        for line in lines[1:]:
            assert float(line.split(",")[2]) <= 1e-12

    @pytest.mark.parametrize("period", ["abc", "", "0", "2.5"])
    def test_evaluate_bad_seasonal_period_names_the_token(self, tmp_path, capsys, period):
        data = gen_csv(tmp_path, "per", omega=1 / 24, h=1, n=512, d=1)
        out = str(tmp_path / "sn.csv")
        token = f"seasonal:{period}"
        capsys.readouterr()
        assert main(["evaluate", "--model", token, "--input", data, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and token in err[0]
        assert not os.path.exists(out)

    def test_evaluate_checks_the_model_before_the_input(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.csv")
        capsys.readouterr()
        argv = ["evaluate", "--model", "seasonal:0", "--input", missing,
                "--out", str(tmp_path / "sn.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "period" in err[0] and "nonexistent" not in err[0]

    def test_evaluate_split_protocol(self, tmp_path):
        data = gen_csv(tmp_path, "sp", omega=1 / 24, h=1, n=2048, d=1)
        out = str(tmp_path / "split.csv")
        rc = main(
            [
                "evaluate", "--model", "naive", "--input", data,
                "--lookback", "32", "--horizons", "8",
                "--split", "0.6,0.2,0.2", "--out", out,
            ]
        )
        assert rc == 0
        assert len(open(out, encoding="utf-8").read().splitlines()) == 2

    def test_evaluate_bad_split_length(self, tmp_path):
        data = gen_csv(tmp_path, "bs", n=512, d=1)
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "evaluate", "--model", "naive", "--input", data,
                    "--split", "0.5,0.5", "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("fracs, message", [
        ("0.5,0.3,0.3", "fractions must sum to 1, got 1.1"),
        ("0.2,0.2,nan", "test_frac must be in (0, 1), got nan"),
        ("nan,0.5,0.5", "train_frac must be in (0, 1), got nan"),
        ("0.5,0.6,-0.1", "test_frac must be in (0, 1), got -0.1"),
        # the sum is within 1e-9 of 1, and split would derive a test
        # fraction of 9e-10, so only the given one rejects it
        ("0.5999999995,0.3999999996,0", "test_frac must be in (0, 1), got 0.0"),
        ("1.5,-0.6,0.1", "train_frac must be in (0, 1), got 1.5"),
    ])
    def test_evaluate_bad_split_fractions(self, tmp_path, capsys, fracs, message):
        data = gen_csv(tmp_path, "bf", n=512, d=1)
        out = str(tmp_path / "x.csv")
        capsys.readouterr()
        argv = ["evaluate", "--model", "naive", "--input", data, "--lookback", "1",
                "--horizons", "1", "--split", fracs, "--out", out]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"freqsynth: error: {message}"]
        assert not os.path.exists(out)


class TestExperimentCommands:
    def test_confusion_curve_csv(self, tmp_path):
        out, svg = str(tmp_path / "c.csv"), str(tmp_path / "c.svg")
        rc = main(["confusion", "--counts", "0,1", "--out", out, "--plot", svg])
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "distractors,mse"
        assert len(lines) == 3
        assert open(svg, encoding="utf-8").read().startswith("<svg")

    def test_generalization_json(self, tmp_path):
        out = str(tmp_path / "g.json")
        rc = main(["generalization", "--omega", str(1 / 24), "--out", out])
        assert rc == 0
        doc = json.loads(open(out, encoding="utf-8").read())
        assert set(doc) == {"target_omega", "mse_with", "mse_without", "ratio"}
        assert doc["mse_with"] < doc["mse_without"]

    def test_transfer_matrix_files(self, tmp_path):
        a = gen_csv(tmp_path, "ta", omega=1 / 24, n=512, d=1, seed=1)
        b = gen_csv(tmp_path, "tb", omega=1 / 7, n=512, d=1, seed=2)
        out, raw = str(tmp_path / "t.csv"), str(tmp_path / "traw.csv")
        rc = main(
            [
                "transfer", "--inputs", a, b, "--lookback", "32",
                "--horizon", "8", "--count", "64", "--out", out,
                "--raw-out", raw,
            ]
        )
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0].split(",")[0] == "train\\test"
        assert len(lines) == 3
        raw_lines = open(raw, encoding="utf-8").read().splitlines()
        vals = [float(v) for v in raw_lines[1].split(",")[1:]]
        assert all(np.isfinite(v) and v >= 0 for v in vals)

    def test_transfer_short_input_is_one_line_error(self, tmp_path, capsys):
        a = gen_csv(tmp_path, "ta", omega=1 / 24, n=1500, d=1, seed=1)
        short = gen_csv(tmp_path, "short", omega=1 / 7, n=150, d=1, seed=2)
        out = str(tmp_path / "t.csv")
        capsys.readouterr()
        rc = main(["transfer", "--inputs", a, short, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "WindowTooLong" not in err and "Traceback" not in err
        assert f"dataset {short!r} of length 150" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("count", [0, 1])
    def test_transfer_given_fewer_than_two_inputs_is_usage_error(
        self, tmp_path, capsys, count
    ):
        # a bare --inputs names no file; it never means the synthetic registry
        paths = [gen_csv(tmp_path, "ta", n=512, d=1)] if count else []
        out = str(tmp_path / "t.csv")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--inputs", *paths, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: transfer needs at least two --inputs\n")
        assert not os.path.exists(out)

    def test_sweep_harmonics_table(self, tmp_path):
        out = str(tmp_path / "h.csv")
        rc = main(
            ["sweep-harmonics", "--omega", str(1 / 24), "--h-values", "1", "--out", out]
        )
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "h,dataset,mse"
        assert len(lines) == 2

    def test_plot_text_is_escaped(self, tmp_path):
        data = gen_csv(tmp_path, "a&b<c", omega=1 / 24, h=1, n=2048, d=1)
        svg = str(tmp_path / "s.svg")
        rc = main(
            ["sweep-harmonics", "--input", data, "--h-values", "1",
             "--out", str(tmp_path / "s.csv"), "--plot", svg]
        )
        assert rc == 0
        texts = [t.text for t in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert f"harmonics sweep on {data}" in texts

    def test_sweep_size_grid(self, tmp_path):
        out = str(tmp_path / "z.csv")
        rc = main(
            [
                "sweep-size", "--omega", str(1 / 24), "--sizes", "100,200",
                "--d-values", "1,2", "--out", out,
            ]
        )
        assert rc == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0] == "windows,d=1,d=2"
        assert len(lines) == 3


class TestBenchGen:
    def test_reports_throughput(self, tmp_path, capsys):
        out = str(tmp_path / "b.json")
        rc = main(
            ["bench-gen", "--channels", "8", "--length", "1024", "--out", out]
        )
        assert rc == 0
        msg = capsys.readouterr().out
        assert "points/s" in msg
        assert "8192 points" in msg
        doc = json.loads(open(out, encoding="utf-8").read())
        assert doc["channels"] == 8
        assert doc["length"] == 1024
        assert doc["points"] == 8192
        assert len(doc["sha256"]) == 64

    def test_summary_deterministic_despite_timing(self, tmp_path):
        o1, o2 = str(tmp_path / "b1.json"), str(tmp_path / "b2.json")
        main(["bench-gen", "--channels", "4", "--length", "512", "--out", o1])
        main(["bench-gen", "--channels", "4", "--length", "512", "--out", o2])
        assert read_bytes(o1) == read_bytes(o2)


SIMILARITY = lambda ok, bad, out: ["similarity", "--inputs", ok, bad, "--out", out]
SHORT = b"date,a\n0,1\n1,2\n2,4\n"
FLAT = b"date,a\n" + b"".join(b"%d,1.5\n" % i for i in range(256))
# all of its power is at the Nyquist bin, which the periodogram drops
NYQUIST = b"date,a\n" + b"".join(b"%d,%d\n" % (i, (-1) ** i) for i in range(256))
# 200 rows hold 9 windows of L + H = 192; the 256-row ok input holds 65
NINE_WINDOWS = b"date,a\n" + b"".join(b"%d,%d\n" % (i, i % 7) for i in range(200))

# a bad byte in the header, and one in a row after load_csv's first block
HEADER_NOT_UTF8 = b"date,a\xff\n0,1\n1,2\n"
LATE_NOT_UTF8 = (
    b"date,a\n" + b"".join(b"%d,%d.5\n" % (i, i % 7) for i in range(6144)) + b"6144,1\xff\n"
)

# 2 KB of JSON nested past the interpreter's recursion limit
DEEP = b"[" * 1000 + b"]" * 1000
# 600 rows, too few for a 2048-step periodogram window
ROWS_600 = b"date,a\n" + b"".join(b"%d,%d\n" % (i, i % 5) for i in range(600))

# Each case: the bad file's bytes (None: no file) and the command that
# reads or writes it.  Every error message starts with that file's path.
FILE_ERRORS = {
    "csv not utf-8": (b"date,a\n0,1.5\n1,2\xff\n", SIMILARITY),
    "csv header not utf-8": (HEADER_NOT_UTF8, SIMILARITY),
    "csv not utf-8 after a block": (LATE_NOT_UTF8, SIMILARITY),
    "out in a missing directory": (None, lambda ok, bad, out: [
        "generate", "--omega", "0.1", "--out", bad]),
    "model not json": (b"{not json", lambda ok, bad, out: [
        "evaluate", "--model", bad, "--input", ok, "--lookback", "4", "--out", out]),
    "model not an object": (b"[1, 2]", lambda ok, bad, out: [
        "evaluate", "--model", bad, "--input", ok, "--lookback", "4", "--out", out]),
    "model not utf-8": (b'{"L": \xff}', lambda ok, bad, out: [
        "evaluate", "--model", bad, "--input", ok, "--lookback", "4", "--out", out]),
    "config not json": (b"omega_bar = 0.1", lambda ok, bad, out: [
        "generate", "--config", bad, "--out", out]),
    "config not utf-8": (b'{"omega_bar": \xff}', lambda ok, bad, out: [
        "generate", "--config", bad, "--out", out]),
    "config nested 1000 deep": (DEEP, lambda ok, bad, out: [
        "generate", "--config", bad, "--out", out]),
    "model nested 1000 deep": (DEEP, lambda ok, bad, out: [
        "evaluate", "--model", bad, "--input", ok, "--lookback", "4", "--out", out]),
    # a bad value read from the config file, or a value it lacks
    "config h 0": (b'{"omega_bar": 0.04, "h": 0}', lambda ok, bad, out: [
        "generate", "--config", bad, "--out", out]),
    "config A_prime 0.001": (b'{"omega_bar": 0.04, "A_prime": 0.001}', lambda ok, bad, out: [
        "generate", "--config", bad, "--out", out]),
    "config omega_bar 0.7": (b'{"omega_bar": 0.7}', lambda ok, bad, out: [
        "generate", "--config", bad, "--seed", "3", "--out", out]),
    "config without omega_bar": (b'{"h": 2}', lambda ok, bad, out: [
        "generate", "--config", bad, "--h", "1", "--out", out]),
    # a bad cell names its file among several inputs
    "ragged row": (b"date,a,b\n0,1,2\n1,3\n", SIMILARITY),
    "non-numeric cell": (b"date,a,b\n0,1,2\n1,x,4\n", SIMILARITY),
    "nan cell": (b"date,a,b\n0,1,2\n1,nan,4\n", SIMILARITY),
    # a valid CSV too short, or too flat, for the command's analysis
    "short csv to estimate": (SHORT, lambda ok, bad, out: [
        "estimate", "--input", bad, "--out", out]),
    "short csv to periodogram": (SHORT, lambda ok, bad, out: [
        "periodogram", "--input", bad, "--out", out]),
    "csv shorter than the periodogram window": (ROWS_600, lambda ok, bad, out: [
        "periodogram", "--input", bad, "--window", "2048", "--out", out]),
    "short csv to similarity": (SHORT, SIMILARITY),
    "short csv to split": (SHORT, lambda ok, bad, out: [
        "evaluate", "--model", "naive", "--input", bad, "--split", "0.6,0.2,0.2",
        "--lookback", "4", "--horizons", "4", "--out", out]),
    "short csv to evaluate": (SHORT, lambda ok, bad, out: [
        "evaluate", "--model", "naive", "--input", bad, "--out", out]),
    "short csv to sweep": (SHORT, lambda ok, bad, out: [
        "sweep-harmonics", "--input", bad, "--out", out]),
    "peakless sweep target": (NYQUIST, lambda ok, bad, out: [
        "sweep-harmonics", "--input", bad, "--out", out]),
    "peakless sweep-size target": (NYQUIST, lambda ok, bad, out: [
        "sweep-size", "--input", bad, "--out", out]),
    "constant sweep target": (FLAT, lambda ok, bad, out: [
        "sweep-harmonics", "--input", bad, "--out", out]),
    "constant transfer input": (FLAT, lambda ok, bad, out: [
        "transfer", "--inputs", ok, bad, "--out", out]),
    "peakless similarity input": (NYQUIST, SIMILARITY),
    "transfer input short for --count": (NINE_WINDOWS, lambda ok, bad, out: [
        "transfer", "--inputs", ok, bad, "--count", "32", "--out", out]),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_name_the_file(tmp_path, capsys, case):
    payload, argv = FILE_ERRORS[case]
    ok = gen_csv(tmp_path, "ok", n=256, d=1)
    bad = str(tmp_path / "missing" / "bad") if payload is None else str(tmp_path / "bad")
    if payload is not None:
        with open(bad, "wb") as f:
            f.write(payload)
    out = str(tmp_path / "out.csv")
    capsys.readouterr()
    assert main(argv(ok, bad, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"freqsynth: error: {bad}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


# A flag's own error does not name the input file, even a short one.
FLAG_ERRORS = {
    "evaluate --horizons 0": (SHORT, ["evaluate", "--model", "naive", "--horizons", "0"],
                              "horizon must be an integer >= 1, got 0"),
    "sweep-harmonics --h-values 0": (None, ["sweep-harmonics", "--h-values", "0"],
                                     "h must be an integer >= 1, got 0"),
    "sweep-size --sizes 10000000": (None, ["sweep-size", "--sizes", "10000000"],
                                    "requested 10000000 windows but only 48579 "
                                    "distinct (dataset, channel, start) triples exist"),
    "sweep-size --d-values 0": (None, ["sweep-size", "--d-values", "0"],
                                "d must be an integer >= 1, got 0"),
    "periodogram --window 8": (ROWS_600, ["periodogram", "--window", "8"],
                               "window_len must be an integer >= 16, got 8"),
}


@pytest.mark.parametrize("case", FLAG_ERRORS)
def test_flag_errors_do_not_name_the_input(tmp_path, capsys, case):
    payload, argv, message = FLAG_ERRORS[case]
    path = gen_csv(tmp_path, "ok", n=256, d=1)
    if payload is not None:
        path = str(tmp_path / "short.csv")
        with open(path, "wb") as f:
            f.write(payload)
    capsys.readouterr()
    assert main([*argv, "--input", path, "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"freqsynth: error: {message}\n"


@pytest.mark.parametrize("rows", [3, 100])
@pytest.mark.parametrize("command", ["sweep-harmonics", "sweep-size"])
def test_sweeps_check_their_target_before_any_fit(tmp_path, capsys, monkeypatch,
                                                  command, rows):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep fit a model before it checked its target")

    monkeypatch.setattr(evaluation, "fit_ridge", refuse)
    path = tmp_path / "short.csv"
    path.write_bytes(b"date,a\n" + b"".join(b"%d,%d\n" % (i, i % 7) for i in range(rows)))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([command, "--input", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"freqsynth: error: {path}: test segment of length {rows} cannot hold "
        "one window of L + H = 192\n"
    )
    assert not out.exists()


# -- fuzzing the --config and --model files ----------------------------------
#
# Only contents the loaders must reject are generated, so nothing is ever
# synthesized or scored: random bytes, JSON nested up to 2,000 deep, and a
# valid document with one field set to a bad value or removed.

# Characters an error line may hold beyond a path it names.
LINE_BOUND = 300

VALID_CONFIG = {"omega_bar": 0.1, "h": 2, "m": 8, "A_prime": 2.0, "l": 3, "n": 64, "d": 2,
                "seed": 1}
VALID_MODEL = {"L": 2, "H": 1, "lambda": 0.5, "weights": [0.1, 0.2, 0.3]}
COUNT = [0, -1, 2.5, "3", True, None, [], {}]
BAD_VALUES = {
    "config": {
        "omega_bar": [0, 0.5, -0.1, float("inf"), float("nan"), "0.1", True, None, [0.1]],
        "h": [*COUNT, "h" * 3000], "m": [*COUNT, 10**10], "l": [*COUNT, 10**309],
        "d": COUNT, "n": [*COUNT, 1, 10**12],
        "A_prime": [0.01, 0, -1.0, float("inf"), 1e308, "5" * 3000, True, None],
        "seed": [-1, 1.5, "1", True, None, [1]],
    },
    "model": {
        "L": [*COUNT, 3, 10**6], "H": [*COUNT, 2],
        "lambda": [-1.0, float("inf"), float("nan"), "0.5", "x" * 3000, True, None, []],
        "weights": [[], [0.1, 0.2], [0.1, "x", 0.3], [0.1, None, 0.3], [0.1, True, 0.3],
                    [0.1, float("inf"), 0.3], [0.1, float("nan"), 0.3], "w", {}, 0.5],
    },
}
DEEP_MARK = "\x00deep"


def _nested(depth: int, leaf: str, keys) -> str:
    """JSON text of ``leaf`` inside ``depth`` lists and single-key objects."""
    text = leaf
    for key in [None] * (depth - len(keys)) + keys[:depth]:  # keys are the outer layers
        text = f"[{text}]" if key is None else f"{{{json.dumps(key)}: {text}}}"
    return text


def _mutation(kind):
    """A valid document of ``kind`` with one field bad: a value from
    BAD_VALUES, a list nested up to 2,000 deep, or the field removed."""
    valid = VALID_CONFIG if kind == "config" else VALID_MODEL
    # a config without an optional field is still valid, so only omega_bar goes
    removable = ["omega_bar"] if kind == "config" else list(valid)
    fields = st.sampled_from(sorted(BAD_VALUES[kind]))
    return st.one_of(
        fields.flatmap(lambda f: st.sampled_from(BAD_VALUES[kind][f]).map(
            lambda v: json.dumps({**valid, f: v}))),
        st.tuples(fields, st.integers(1, 2000)).map(
            lambda fd: json.dumps({**valid, fd[0]: DEEP_MARK}).replace(
                json.dumps(DEEP_MARK), "[" * fd[1] + "]" * fd[1])),
        st.sampled_from(removable).map(
            lambda f: json.dumps({k: v for k, v in valid.items() if k != f})),
    ).map(str.encode)


LEAVES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
).map(json.dumps)
# Object keys that are no field of either document, so no object is valid.
NESTED = st.builds(
    _nested, st.integers(0, 2000), LEAVES,
    st.lists(st.sampled_from(["", "x", "omega", "w", "\n", "\u2028"]) | st.none(),
             max_size=8),
).map(str.encode)


def _is_valid_shape(kind, data: bytes) -> bool:
    """Whether ``data`` parses to an object holding every field the loader
    requires, so the fuzz cannot tell that it must be rejected."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        return False
    need = {"omega_bar"} if kind == "config" else set(VALID_MODEL)
    return isinstance(doc, dict) and need <= set(doc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "ok.csv").write_bytes(b"date,a\n" + b"".join(b"%d,%d\n" % (i, i % 3)
                                                        for i in range(16)))
    # 64 rows that hold a periodogram window of 16 and 8 + 4-step windows
    (root / "ok2.csv").write_bytes(b"date,a\n" + b"".join(b"%d,%d\n" % (i, i % 5)
                                                         for i in range(64)))
    return root


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _argv(kind, path, root):
    out = str(root / "out.csv")
    if kind == "config":
        return ["generate", "--config", path, "--out", out]
    return ["evaluate", "--model", path, "--input", str(root / "ok.csv"), "--lookback", "2",
            "--horizons", "1", "--out", out]


@pytest.mark.parametrize("kind", ["config", "model"])
def test_fuzz_base_documents_are_valid(fuzz_dir, kind):
    path = fuzz_dir / f"valid.{kind}.json"
    path.write_text(json.dumps(VALID_CONFIG if kind == "config" else VALID_MODEL))
    assert _run(_argv(kind, str(path), fuzz_dir)) == (0, "")
    os.remove(fuzz_dir / "out.csv")


@pytest.mark.parametrize("kind", ["config", "model"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_bad_file_is_one_named_line(fuzz_dir, kind, data):
    content = data.draw(st.one_of(
        st.binary(max_size=64).filter(lambda b: not _is_valid_shape(kind, b)),
        NESTED.filter(lambda b: not _is_valid_shape(kind, b)),
        _mutation(kind),
    ), label="content")
    path = str(fuzz_dir / f"bad.{kind}.json")
    with open(path, "wb") as f:
        f.write(content)
    code, err = _run(_argv(kind, path, fuzz_dir))
    assert code == 2
    assert err.startswith(f"freqsynth: error: {path}: "), err[:300]
    assert err.count("\n") == 1 and err.endswith("\n"), err[:300]
    assert len(err) - 1 - len(path) <= LINE_BOUND, err[:300]
    assert "Traceback" not in err
    assert not os.path.exists(fuzz_dir / "out.csv")


# -- error lines stay short, and one line ------------------------------------


def _one_short_line(err, path=""):
    assert err.startswith("freqsynth: error: ") and err.count("\n") == 1, err[:300]
    assert len(err) - 1 - len(path) <= LINE_BOUND, err[:300]
    assert "Traceback" not in err


def test_a_prime_that_could_overflow_is_one_named_line(tmp_path):
    path = write_config(tmp_path / "c.json", omega_bar=0.1, A_prime=1e308, n=64)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(["generate", "--config", path, "--out", str(out)])
    assert code == 2 and not caught
    assert err.startswith(f"freqsynth: error: {path}: A_prime must exceed 0.01 and be at most ")
    _one_short_line(err, path)
    assert not out.exists()


# Each case: a config document (None: no config), the flags, and a word
# the error must hold: the field or flag whose value it shows.
LONG_VALUES = {
    "config h of 3,000 characters": ({"omega_bar": 0.1, "h": "h" * 3000}, [], "h must"),
    "config omega_bar nested 600 deep": ({"omega_bar": json.loads(_nested(600, "0.1", []))}, [],
                                         "omega_bar"),
    "config key of 3,000 characters": ({"omega_bar": 0.1, "k" * 3000: 1}, [], "config keys"),
    "config n of 3,001 digits": ({"omega_bar": 0.1, "n": 10**3000}, [], "n * d"),
    # n * d has 6,001 digits, past the 4,300 that str() of an int allows
    "config n and d of 3,001 digits": ({"omega_bar": 0.1, "n": 10**3000, "d": 10**3000}, [],
                                       "n * d"),
    "generate --rate of 3,000 characters": (None, ["generate", "--rate", "x" * 3000],
                                            "sampling rate"),
    "generate --rate custom period of 3,000 digits": (
        None, ["generate", "--rate", "custom:-" + "9" * 3000], "custom period"),
    "evaluate --model seasonal period of 3,000 digits": (
        None, ["evaluate", "--model", "seasonal:" + "9" * 3000], "period"),
    "evaluate --model seasonal token of 3,000 characters": (
        None, ["evaluate", "--model", "seasonal:" + "x" * 3000], "--model"),
    "evaluate --lookback of 3,000 digits": (
        None, ["evaluate", "--model", "naive", "--lookback", "9" * 3000], "L + H"),
    "fit --count of 3,000 digits": (
        None, ["fit", "--rate", "1h", "--count", "9" * 3000, "--lookback", "8",
               "--horizons", "4"], "requested"),
}


@pytest.mark.parametrize("case", LONG_VALUES)
def test_long_value_is_one_short_line(tmp_path, case):
    doc, argv, word = LONG_VALUES[case]
    out = str(tmp_path / "out.csv")
    path = ""
    if doc is not None:
        path = str(tmp_path / "c.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        argv = ["generate", "--config", path]
    elif argv[0] == "evaluate":  # a flag of the case overrides its default here
        argv = ["evaluate", "--input", gen_csv(tmp_path, "ok", n=256, d=1), "--lookback", "8",
                "--horizons", "4", *argv[1:]]
    code, err = _run([*argv, "--out", out])
    assert code == 2 and word in err
    _one_short_line(err, path)
    assert not os.path.exists(out)


# -- fuzzing the flags -------------------------------------------------------
#
# Each subcommand runs from a valid, small argv with one flag set to a value
# it must reject, so no run computes anything large: counts and lengths
# <= 0, bad frequencies, malformed lists, rate and model tokens, split
# fractions, and 3,000-character strings.  A valid but huge value could
# run for minutes, so none is drawn.

NONPOSITIVE = ["0", "-1", "-1000"]
BAD_OMEGA = ["nan", "inf", "-inf", "0", "0.5", "0.7", "-0.1", "1e-400"]
BAD_INT_LIST = ["", ",", "0", "-1", "1,,x", "1;2", "1.5", "x" * 3000, "," * 3000]
BAD_RATE = ["2h", "", "custom:", "custom:2", "custom:-5", "custom:x", "x" * 3000,
            "custom:" + "x" * 3000]
LONG = ["x" * 3000, "é" * 3000]
# argv of each subcommand, with {ok} and {ok2} for two valid inputs, and
# the bad values of each of its flags
FLAG_FUZZ = {
    "generate": (["--rate", "custom:10", "--h", "1"], {
        "--omega": BAD_OMEGA + LONG, "--rate": BAD_RATE, "--h": NONPOSITIVE + LONG,
        "--config": LONG}),
    "periodogram": (["--input", "{ok}"], {"--window": NONPOSITIVE + ["8", "15"] + LONG,
                                          "--input": LONG}),
    "estimate": ([], {"--rate": BAD_RATE, "--input": LONG}),
    "similarity": (["--inputs", "{ok}", "{ok2}"], {"--inputs": LONG}),
    "fit": (["--rate", "custom:10", "--count", "8", "--lookback", "8", "--horizons", "4"], {
        "--omega": BAD_OMEGA + LONG, "--rate": BAD_RATE, "--count": NONPOSITIVE + LONG,
        "--lookback": NONPOSITIVE + LONG, "--horizons": BAD_INT_LIST,
        "--lambda": ["-1", "nan", "inf", "-inf"] + LONG}),
    "evaluate": (["--model", "naive", "--input", "{ok}", "--lookback", "8",
                  "--horizons", "4"], {
        "--model": ["seasonal:0", "seasonal:-1", "seasonal:x", "seasonal:", "seasonal:1.5",
                    "seasonal:9", "seasonal:" + "9" * 3000, "seasonal:" + "x" * 3000, *LONG],
        "--lookback": NONPOSITIVE + LONG, "--horizons": BAD_INT_LIST,
        "--split": ["0.5,0.3,0.3", "1,0,0", "0.2,0.2", "0.5,0.5", "nan,0.5,0.5",
                    "0.4,0.4,0.4,0.4", "x,y,z", "x" * 3000]}),
    "confusion": (["--counts", "0"], {"--counts": ["-1", "", "1,,x", "x" * 3000]}),
    "generalization": ([], {"--omega": BAD_OMEGA + LONG}),
    "transfer": (["--inputs", "{ok}", "{ok2}", "--lookback", "8", "--horizon", "4",
                  "--count", "8"], {
        "--lookback": NONPOSITIVE + LONG, "--horizon": NONPOSITIVE + LONG,
        "--count": NONPOSITIVE + LONG, "--inputs": LONG}),
    "sweep-harmonics": ([], {"--omega": BAD_OMEGA + LONG, "--h-values": BAD_INT_LIST,
                             "--input": LONG}),
    "sweep-size": ([], {"--omega": BAD_OMEGA + LONG, "--sizes": BAD_INT_LIST,
                        "--d-values": BAD_INT_LIST, "--input": LONG}),
    "bench-gen": (["--channels", "2", "--length", "64"], {
        "--channels": NONPOSITIVE + LONG, "--length": NONPOSITIVE + ["1"] + LONG,
        "--omega": BAD_OMEGA + LONG, "--h": NONPOSITIVE + LONG}),
}
# flags whose value is a path, which an error may name whole; a --model
# value is a path unless it is a seasonal:<period> token
PATH_FLAGS = ("--config", "--input", "--inputs", "--model")


def test_flag_fuzz_covers_every_subcommand():
    assert set(FLAG_FUZZ) == set(SUBCOMMANDS)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_bad_flag_is_rejected_without_a_trace(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(FLAG_FUZZ)), label="command")
    base, flags = FLAG_FUZZ[command]
    flag = data.draw(st.sampled_from(sorted(flags)), label="flag")
    value = data.draw(st.sampled_from(flags[flag]), label="value")
    ok, ok2 = str(fuzz_dir / "ok.csv"), str(fuzz_dir / "ok2.csv")
    argv = [a.format(ok=ok, ok2=ok2) for a in base]
    if flag in argv:  # replace the valid value; --inputs keeps one valid path
        i = argv.index(flag)
        argv[i + 1] = value
    else:
        argv += [flag, value]
    out = fuzz_dir / "out.csv"
    out.unlink(missing_ok=True)  # a failing example may leave it while hypothesis shrinks
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([command, *argv, "--out", str(out)])
        except SystemExit as exc:  # argparse's usage error, whose lines are its own
            code = exc.code
    err = err.getvalue()
    assert code == 2, err[:300]
    assert "Traceback" not in err
    assert not out.exists()
    if err.startswith("freqsynth: error: "):
        is_path = flag in PATH_FLAGS and not value.startswith("seasonal:")
        _one_short_line(err, value if is_path else "")
        assert ok not in err and ok2 not in err, err[:300]


# -- the BLAS thread count ---------------------------------------------------

def _cli_at_threads(threads, argv, cwd):
    """Run the CLI in a fresh process with BLAS at ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(freqsynth.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "freqsynth", *argv], cwd=cwd, env=env,
                   check=True, capture_output=True, timeout=300)


def test_evaluate_of_a_saved_model_does_not_depend_on_the_thread_count(tmp_path):
    """``evaluate`` of a saved ridge model writes the same bytes with BLAS at
    one thread and at two.  Fits round differently with the thread count
    (ROADMAP item 7), so the model is fitted once, at one thread.  With one
    usable core the two runs cannot differ, so there this test cannot tell
    them apart; a thread-parallel scorer must keep the property."""
    write_config(tmp_path / "c.json", omega_bar=0.05, h=2, n=4000, d=2)
    _cli_at_threads(1, ["generate", "--config", "c.json", "--out", "d.csv"], tmp_path)
    _cli_at_threads(1, ["fit", "--rate", "1h", "--count", "256", "--out", "m.json"], tmp_path)
    for threads in (1, 2):
        _cli_at_threads(threads, ["evaluate", "--model", "m.json", "--input", "d.csv",
                                  "--out", f"r{threads}.csv"], tmp_path)
    assert read_bytes(tmp_path / "r1.csv") == read_bytes(tmp_path / "r2.csv")
