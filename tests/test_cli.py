import ast
import collections
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected_small4x6 as frozen
import oracle
import sitefactors
from sitefactors import cli, engine, errors
from sitefactors.cli import main
from sitefactors.config import DEFAULTS, KEYS, Owned, RunConfig
from test_datamodel import BASE_CSV

FIXTURE = str(Path(__file__).parent / "fixtures" / "small4x6.csv")

TWO_FACTOR_DEFINITION = {
    "factor_1": {"dimension": "suitability", "sign": 1},
    "factor_2": {"dimension": "attractiveness", "sign": 1},
}


@pytest.fixture()
def definition_path(tmp_path):
    path = tmp_path / "definition.json"
    path.write_text(json.dumps(TWO_FACTOR_DEFINITION))
    return str(path)


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestDescribe:
    def test_writes_stats_and_summary(self, tmp_path, capsys):
        code = main(["describe", "--input", FIXTURE, "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "N=4 R=6"
        header, rows = read_rows(tmp_path / "stats.csv")
        assert header == [
            "attribute", "count", "mean", "std", "min",
            "median", "max", "skewness", "kurtosis",
        ]
        assert len(rows) == 4
        assert rows[0][0] == "housing_density"
        assert rows[0][2] == f"{frozen.MOMENTS[0]['mean']:.6f}"

    def test_empty_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main(["describe", "--input", str(empty), "--out", str(tmp_path)])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_describe_does_not_hash_its_input(self, tmp_path, monkeypatch):
        # stats.csv records no digest, so describe skips the hash; fit does not
        def sha256(data):
            raise AssertionError("the input was hashed")

        monkeypatch.setattr(sitefactors.datamodel, "sha256", sha256)
        assert main(["describe", "--input", FIXTURE, "--out", str(tmp_path)]) == 0
        with pytest.raises(AssertionError, match="the input was hashed"):
            main(["fit", "--input", FIXTURE, "--out", str(tmp_path)])

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        code = main(["describe", "--input", FIXTURE, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["describe", "fit"])
    def test_comment_rows_after_the_header_warn_once(self, tmp_path, capsys, command):
        lines = Path(FIXTURE).read_text().splitlines()
        header = next(k for k, line in enumerate(lines) if line.startswith("region_id"))
        # a note above the header, a commented-out region and a note below it
        lines.insert(header, "# note")
        lines[header + 3] = "#" + lines[header + 3]
        lines.append("# end")
        data = tmp_path / "commented.csv"
        data.write_text("\n".join(lines) + "\n")
        code = main([command, "--input", str(data), "--out", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "comment" in line] == [
            f"warning: {data}: skipped 2 comment line(s) after the header, the first "
            f"at line {header + 4}; a row whose first field starts with # is a comment"
        ]


class TestFit:
    def test_manifest_lists_the_load_warnings_first(self, tmp_path, capsys):
        header, *body = BASE_CSV.splitlines()
        body[-1] = "#" + body[-1]
        data = tmp_path / "commented.csv"
        data.write_text("\n".join([header, *body]) + "\n")
        assert main(["fit", "--input", str(data), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        first, *others = manifest["warnings"]
        assert first.startswith("skipped 1 comment line(s)")
        assert [f"warning: {data}: {first}", *(f"warning: {w}" for w in others)] == err

    def test_manifest_names_no_input_path(self, tmp_path):
        # one commented input read from two paths gives one manifest
        header, *body = BASE_CSV.splitlines()
        body[-1] = "#" + body[-1]
        manifests = []
        for data in (tmp_path / "one.csv", tmp_path / "elsewhere" / "two.csv"):
            data.parent.mkdir(exist_ok=True)
            data.write_text("\n".join([header, *body]) + "\n")
            out = data.parent / f"{data.stem}-out"
            assert main(["fit", "--input", str(data), "--out", str(out), "--quiet"]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert b"comment line" in manifests[0]

    def test_writes_all_artifacts(self, tmp_path):
        code = main(["fit", "--input", FIXTURE, "--out", str(tmp_path)])
        assert code == 0
        for name in ("loadings.csv", "eigenvalues.csv", "weights.csv", "manifest.json"):
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_factors"] == 2
        assert manifest["converged"] is True
        assert manifest["iterations_used"] == frozen.ITERATIONS
        assert len(manifest["input_digest"]) == 64
        header, rows = read_rows(tmp_path / "loadings.csv")
        assert header == ["attribute", "factor_1", "factor_2", "communality", "dominant_factor"]
        assert rows[0][1] == f"{frozen.ROTATED_CANON[0][0]:.6f}"
        assert rows[0][4] == "factor_1"

    def test_eigenvalue_report(self, tmp_path):
        main(["fit", "--input", FIXTURE, "--out", str(tmp_path)])
        header, rows = read_rows(tmp_path / "eigenvalues.csv")
        assert header == ["factor", "eigenvalue", "pct_variance", "cumulative_pct"]
        assert rows[0][1] == f"{frozen.SELECTION_EIGENVALUES[0]:.6f}"

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["fit", "--input", FIXTURE, "--out", str(first)]) == 0
        assert main(["fit", "--input", FIXTURE, "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_artifacts_match_the_reference_rotation(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main([
            "synth", "--out", str(data), "--quiet", "--synth.seed", "5",
            "--synth.regions", "150", "--synth.attributes", "60",
            "--synth.factors", "10",
        ]) == 0
        argv = [
            "fit", "--input", str(data / "synthetic.csv"), "--quiet",
            "--engine.kaiser_threshold", "2",
        ]
        fast, slow = tmp_path / "fast", tmp_path / "reference"
        assert main([*argv, "--out", str(fast)]) == 0
        monkeypatch.setattr(
            engine,
            "varimax",
            lambda *args, **kwargs: engine.VarimaxResult(
                *oracle.varimax_reference(*args, **kwargs)
            ),
        )
        assert main([*argv, "--out", str(slow)]) == 0
        assert json.loads((fast / "manifest.json").read_text())["n_factors"] == 10
        names = sorted(p.name for p in fast.iterdir())
        assert names == sorted(p.name for p in slow.iterdir())
        for name in names:
            assert (fast / name).read_bytes() == (slow / name).read_bytes(), name

    def test_wide_weight_beside_a_rounding_tie(self, tmp_path):
        # attr_26 on factor_3 of the `wide` shape at seed 42 is
        # -0.0176984999982, 1.8e-12 from a 6-decimal tie: eigenpairs that
        # much less exact than a full eigh's print -0.017699
        data, out = tmp_path / "data", tmp_path / "fit"
        assert main([
            "synth", "--out", str(data), "--quiet", "--synth.seed", "42",
            "--synth.regions", "500", "--synth.attributes", "420",
            "--synth.factors", "70",
        ]) == 0
        assert main([
            "fit", "--input", str(data / "synthetic.csv"), "--out", str(out),
            "--quiet", "--engine.kaiser_threshold", "2",
        ]) == 0
        header, rows = read_rows(out / "weights.csv")
        row = next(row for row in rows if row[0] == "attr_26")
        assert row[header.index("factor_3")] == "-0.017698"

    def test_no_factor_retained_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 3))
        lines = ["region_id,a,b,c"]
        lines += [f"r{j:02d}," + ",".join(f"{x:.6f}" for x in row) for j, row in enumerate(values)]
        noisy = tmp_path / "noise.csv"
        noisy.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--input", str(noisy), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "NoFactorRetainedError" in capsys.readouterr().err

    def test_singular_correlation_exits_4(self, tmp_path, capsys):
        lines = ["region_id,a,b,c"]
        rng = np.random.default_rng(1)
        for j in range(8):
            x = rng.normal()
            y = rng.normal()
            lines.append(f"r{j},{x:.6f},{2 * x:.6f},{y:.6f}")  # b is exactly 2a
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--input", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "SingularCorrelationError" in capsys.readouterr().err

    def test_nonconvergence_is_warning_not_error(self, tmp_path, capsys):
        code = main([
            "fit", "--input", FIXTURE, "--out", str(tmp_path),
            "--engine.max_iterations", "3",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "non_convergence" in err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["converged"] is False
        assert any("non_convergence" in w for w in manifest["warnings"])

    def test_zero_varimax_tolerance_stops_when_the_criterion_stops_rising(
        self, tmp_path, capsys
    ):
        # from some sweep on, rounding holds the criterion exactly still; a
        # sweep that does not raise it ends the rotation, not the sweep cap
        assert main(["synth", "--out", str(tmp_path), "--quiet"]) == 0
        out = tmp_path / "out"
        code = main([
            "fit", "--input", str(tmp_path / "synthetic.csv"), "--out", str(out),
            "--quiet", "--engine.varimax_tolerance", "0",
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "manifest.json").read_text())["warnings"] == []


class TestScore:
    def test_scores_file_matches_frozen_values(self, tmp_path, definition_path):
        code = main([
            "score", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path, "--alpha", "0.5",
        ])
        assert code == 0
        header, rows = read_rows(tmp_path / "scores.csv")
        assert header == [
            "region_id", "f_1", "f_2", "suitability", "attractiveness",
            "v_score", "quadrant", "typology",
        ]
        for j, row in enumerate(rows):
            assert row[0] == frozen.REGIONS[j]
            assert row[3] == f"{frozen.SUITABILITY[j]:.6f}"
            assert row[4] == f"{frozen.ATTRACTIVENESS[j]:.6f}"
            assert row[5] == f"{frozen.V_AT_HALF[j]:.6f}"
            assert row[6] == frozen.QUADRANTS[j]

    def test_alpha_one_equals_suitability_column(self, tmp_path, definition_path):
        main([
            "score", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path, "--alpha", "1.0",
        ])
        _, rows = read_rows(tmp_path / "scores.csv")
        for row in rows:
            assert row[5] == row[3]

    def test_alpha_out_of_range_exits_5(self, tmp_path, definition_path, capsys):
        code = main([
            "score", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path, "--alpha", "1.5",
        ])
        assert code == 5
        assert "AlphaRangeError" in capsys.readouterr().err

    def test_definition_mismatch_exits_5(self, tmp_path, capsys):
        # fixture retains 2 factors; the built-in default covers exactly 6
        code = main(["score", "--input", FIXTURE, "--out", str(tmp_path)])
        assert code == 5
        assert "IncompleteDefinitionError" in capsys.readouterr().err

    def test_top_lists_written(self, tmp_path, definition_path):
        main([
            "score", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
        ])
        header, rows = read_rows(tmp_path / "top_suitability.csv")
        assert header == ["rank", "region_id", "suitability"]
        assert rows[0][1] == "R06"  # highest fixture suitability
        assert len(rows) == 6  # top_k clipped to R


class TestSweep:
    def test_fixture_grid_matches_oracle(self, tmp_path, definition_path):
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
            "--sweep.alpha_step", "0.5", "--sweep.thetas", "0.0,1.0",
        ])
        assert code == 0
        header, rows = read_rows(tmp_path / "sweep_long.csv")
        assert header == ["theta", "alpha", "count", "pct"]
        counts = {
            (row[0], row[1]): int(row[2]) for row in rows
        }
        for ti, theta in enumerate(frozen.SWEEP_THETAS):
            for ai, alpha in enumerate(frozen.SWEEP_ALPHAS):
                key = (f"{theta:.6f}", f"{alpha:.6f}")
                assert counts[key] == frozen.SWEEP_COUNTS[ti][ai]

    def test_wide_format_cells(self, tmp_path, definition_path):
        main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
            "--sweep.alpha_step", "0.5", "--sweep.thetas", "0.0,1.0",
        ])
        header, rows = read_rows(tmp_path / "sweep_wide.csv")
        assert header == ["theta", "0.0", "0.5", "1.0"]
        assert rows[0][0] == "0.0"
        assert rows[0][1] == "3 (50.0%)"

    def test_top_region_lists_per_alpha(self, tmp_path, definition_path):
        main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
            "--sweep.alpha_step", "0.5", "--sweep.thetas", "0.0,1.0",
        ])
        for label in ("0.0", "0.5", "1.0"):
            path = tmp_path / f"top_regions_alpha_{label}.csv"
            assert path.exists()
            header, rows = read_rows(path)
            assert header == ["rank", "region_id", "v_score"]
            assert len(rows) == 6
            alpha = float(label)
            expected = sorted(
                (
                    alpha * s + (1 - alpha) * a
                    for s, a in zip(frozen.SUITABILITY, frozen.ATTRACTIVENESS)
                ),
                reverse=True,
            )
            assert [row[2] for row in rows] == [f"{v:.6f}" for v in expected]

    def test_last_step_past_the_stop_is_capped(self, tmp_path, definition_path):
        # 3 steps of this size end at 1.000000000033 before the cap
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
            "--sweep.alpha_step", "0.3333333333444444",
        ])
        assert code == 0
        assert (tmp_path / "top_regions_alpha_1.0.csv").exists()

    def test_single_region_counts_stay_binary(self, tmp_path, definition_path):
        # single data region is below the datamodel floor, so approximate with
        # the smallest legal fixture and a threshold bracketing
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--composite.definition", definition_path,
            "--sweep.thetas=-100.0,100.0",
        ])
        assert code == 0
        _, rows = read_rows(tmp_path / "sweep_long.csv")
        values = {int(row[2]) for row in rows}
        assert values == {0, 6}


class TestSynth:
    def test_deterministic_per_seed(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            code = main([
                "synth", "--seed", "42", "--out", str(out),
                "--synth.regions", "40", "--synth.attributes", "6",
                "--synth.factors", "2",
            ])
            assert code == 0
        assert (first / "synthetic.csv").read_bytes() == (
            second / "synthetic.csv"
        ).read_bytes()

    def test_round_trip_recovers_factor_count(self, tmp_path):
        out = tmp_path / "data"
        main([
            "synth", "--seed", "7", "--out", str(out),
            "--synth.regions", "80", "--synth.attributes", "8",
            "--synth.factors", "2",
        ])
        fit_out = tmp_path / "fit"
        code = main(["fit", "--input", str(out / "synthetic.csv"), "--out", str(fit_out)])
        assert code == 0
        manifest = json.loads((fit_out / "manifest.json").read_text())
        assert manifest["n_factors"] == 2

    def test_header_documents_plant(self, tmp_path):
        main(["synth", "--seed", "3", "--out", str(tmp_path)])
        head = (tmp_path / "synthetic.csv").read_text().splitlines()[:3]
        assert head[0].startswith("#")
        assert "seed=3" in head[1]
        assert "factor_1" in head[2]

    def test_full_schema_describe(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path), "--quiet"])
        code = main([
            "describe", "--input", str(tmp_path / "synthetic.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "N=25 R=426"
        _, rows = read_rows(tmp_path / "stats.csv")
        assert len(rows) == 25
        assert rows[0][0] == "housing_density"


class TestConfigPrecedence:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path, definition_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": FIXTURE,
                    "composite.definition": definition_path,
                    "score.alpha": 0.25,
                    "out": str(tmp_path / "from_file"),
                }
            )
        )
        code = main(["score", "--config", str(config_path)])
        assert code == 0
        _, rows = read_rows(tmp_path / "from_file" / "scores.csv")
        expected = 0.25 * frozen.SUITABILITY[0] + 0.75 * frozen.ATTRACTIVENESS[0]
        assert rows[0][5] == f"{expected:.6f}"

        code = main(["score", "--config", str(config_path), "--alpha", "1.0",
                     "--out", str(tmp_path / "flag_wins")])
        assert code == 0
        _, rows = read_rows(tmp_path / "flag_wins" / "scores.csv")
        assert rows[0][5] == f"{frozen.SUITABILITY[0]:.6f}"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"engine.wat": 1}))
        code = main(["describe", "--config", str(config_path), "--input", FIXTURE,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_theta_order_validated(self, tmp_path, capsys):
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--sweep.thetas", "2.0,1.0",
        ])
        assert code == 2
        assert "ascending" in capsys.readouterr().err

    def test_alpha_step_must_be_positive(self, tmp_path, capsys):
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path),
            "--sweep.alpha_step", "0",
        ])
        assert code == 5
        assert "AlphaRangeError" in capsys.readouterr().err

    def test_bad_engine_epsilon_exits_2(self, tmp_path, capsys):
        code = main([
            "fit", "--input", FIXTURE, "--out", str(tmp_path),
            "--engine.epsilon", "0",
        ])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("score.top_k", 2.5, "'score.top_k'"),
            ("score.alpha", True, "'score.alpha'"),
            ("engine.max_iterations", 3.9, "'engine.max_iterations'"),
            ("synth.seed", 7.0, "'synth.seed'"),
            ("sweep.thetas", [1, True], "expected comma-separated numbers"),
            # only a tuple key takes a list; no key takes an object
            ("out", ["x", "y"], "'out'"),
            ("input", [FIXTURE], "'input'"),
            ("score.alpha", [0.5], "'score.alpha'"),
            ("score.alpha", {"value": 0.5}, "'score.alpha'"),
            # a digit-group underscore is no number, as in a CSV cell
            ("score.top_k", "1_0", "'score.top_k'"),
            ("engine.epsilon", "1_0e-5", "'engine.epsilon'"),
            ("sweep.thetas", "1_0,2", "expected comma-separated numbers"),
            ("sweep.thetas", ["1_0", 2], "expected comma-separated numbers"),
            # every parser's refusal names the key and keeps its detail
            ("composite.binary", "maybe", "'composite.binary': 'maybe' (expected a boolean)"),
            ("sweep.thetas", "a,b", "'sweep.thetas': 'a,b' (expected comma-separated numbers)"),
        ],
    )
    def test_file_values_follow_the_flag_rules(self, tmp_path, capsys, key, value, message):
        # 2.5 is no int and true no number, in a file as on the command line
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        code = main(["fit", "--config", str(config_path), "--input", FIXTURE,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            err.strip()
        ]
        assert message in err
        assert not out.exists()

    def test_text_keys_keep_their_underscores(self):
        texts = {"input": "in_1.csv", "out": "out_1", "composite.definition": "d_1.json"}
        config = RunConfig.resolve(overrides=texts)
        assert {key: config[key] for key in texts} == texts

    def test_file_values_give_the_manifest_of_their_flags(self, tmp_path):
        values = {
            "engine.epsilon": 1e-6,
            "engine.max_iterations": 50,
            "engine.kaiser_threshold": 1,
            "engine.ridge_fallback": 0,
            "composite.binary": "yes",
            "score.alpha": 1,
            "sweep.thetas": [1, 2.5],
            "sweep.alpha_step": "0.25",
            "synth.loading": -0.0,
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(values))
        flags = [
            f"--{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in values.items()
        ]
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert main(["fit", "--config", str(config_path), "--input", FIXTURE,
                     "--out", str(from_file)]) == 0
        assert main(["fit", "--input", FIXTURE, "--out", str(from_flags), *flags]) == 0
        manifest = (from_file / "manifest.json").read_bytes()
        assert manifest == (from_flags / "manifest.json").read_bytes()
        config = json.loads(manifest)["config"]
        assert config["engine.kaiser_threshold"] == 1.0
        assert config["engine.ridge_fallback"] is False
        assert config["composite.binary"] is True
        assert config["sweep.thetas"] == [1.0, 2.5]


# The computation settings a run records; `input`, `out`, `quiet` and
# `composite.definition` are where it runs, not what it computes.
MANIFEST_KEYS = [
    "data.missing_policy",
    "engine.epsilon",
    "engine.max_iterations",
    "engine.kaiser_threshold",
    "engine.ridge_fallback",
    "engine.varimax_tolerance",
    "composite.binary",
    "composite.balance_band",
    "composite.bias_band",
    "score.alpha",
    "score.top_k",
    "sweep.alpha_start",
    "sweep.alpha_stop",
    "sweep.alpha_step",
    "sweep.thetas",
    "sweep.top_k",
    "synth.seed",
    "synth.regions",
    "synth.attributes",
    "synth.factors",
    "synth.loading",
    "synth.noise_std",
]


class TestOneFlagPerKey:
    """`score --alpha` and `synth --seed` are spellings of `score.alpha` and
    `synth.seed`: each writes its key, and the later of two spellings wins."""

    def run_score(self, tmp_path, definition_path, name, *flags):
        out = tmp_path / name
        argv = ["score", "--input", FIXTURE, "--out", str(out), "--quiet"]
        assert main([*argv, "--composite.definition", definition_path, *flags]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def test_alpha_spellings_give_the_same_bytes(self, tmp_path, definition_path):
        short = self.run_score(tmp_path, definition_path, "short", "--alpha", "0.3")
        long = self.run_score(tmp_path, definition_path, "long", "--score.alpha", "0.3")
        assert short == long
        default = self.run_score(tmp_path, definition_path, "default")
        assert short["scores.csv"] != default["scores.csv"]

    def test_seed_spellings_give_the_same_bytes(self, tmp_path):
        argv = ["synth", "--quiet", "--synth.regions", "40", "--synth.attributes", "6"]
        short, long = tmp_path / "short", tmp_path / "long"
        assert main([*argv, "--out", str(short), "--seed", "7"]) == 0
        assert main([*argv, "--out", str(long), "--synth.seed", "7"]) == 0
        assert main([*argv, "--out", str(tmp_path / "default")]) == 0
        data = (short / "synthetic.csv").read_bytes()
        assert data == (long / "synthetic.csv").read_bytes()
        assert data != (tmp_path / "default" / "synthetic.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags, alpha",
        [
            (["--alpha", "0.2", "--score.alpha", "0.7"], "0.7"),
            (["--score.alpha", "0.7", "--alpha", "0.2"], "0.2"),
        ],
    )
    def test_the_later_spelling_wins(self, tmp_path, definition_path, flags, alpha):
        both = self.run_score(tmp_path, definition_path, "both", *flags)
        one = self.run_score(tmp_path, definition_path, "one", "--score.alpha", alpha)
        assert both == one

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sitefactors {command} ")

    def test_short_spellings_keep_their_help(self, capsys):
        for command, usage in (("score", "[--alpha ALPHA]"), ("synth", "[--seed SEED]")):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert usage in capsys.readouterr().out


class TestNegativeValues:
    """A value that starts with `-` is read as the value of the flag before it."""

    @pytest.mark.parametrize(
        "command, flag, value, artifact, read",
        [
            ("sweep", "--sweep.thetas", "-1,0,1", "sweep_long.csv", b"\n-1.000000,"),
            ("synth", "--synth.loading", "-8e-1", "synthetic.csv", b" loading=-0.8 "),
        ],
    )
    def test_both_spellings_give_the_same_bytes(
        self, tmp_path, definition_path, command, flag, value, artifact, read
    ):
        argv = [command, "--quiet", "--composite.definition", definition_path]
        if command == "sweep":
            argv += ["--input", FIXTURE]
        outputs = []
        for name, spelling in (("apart", [flag, value]), ("joined", [f"{flag}={value}"])):
            out = tmp_path / name
            assert main([*argv, "--out", str(out), *spelling]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert read in outputs[0][artifact]


class TestKeyTable:
    def test_manifest_lists_exactly_the_settings(self, tmp_path):
        # every key is recorded but input, out and quiet
        assert main(["fit", "--input", FIXTURE, "--out", str(tmp_path), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest["config"]) == sorted(MANIFEST_KEYS)
        assert sorted(KEYS) == sorted(
            [*MANIFEST_KEYS, "input", "out", "quiet", "composite.definition"]
        )

    @pytest.mark.parametrize("command", ["score", "sweep"])
    def test_manifest_records_the_definition_not_its_path(self, tmp_path, command):
        def manifest(name, definition, *flags):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(definition))
            out = tmp_path / f"{name}-out"
            argv = [command, "--input", FIXTURE, "--out", str(out), "--quiet"]
            assert main([*argv, "--composite.definition", str(path), *flags]) == 0
            return (out / "manifest.json").read_bytes()

        # one definition at two paths: one manifest, which holds the definition
        first = manifest("first", TWO_FACTOR_DEFINITION)
        assert manifest("second", TWO_FACTOR_DEFINITION) == first
        assert json.loads(first)["definition"] == TWO_FACTOR_DEFINITION
        # an edited definition: another manifest; a binary run records sign 1
        edited = {**TWO_FACTOR_DEFINITION, "factor_2": {"dimension": "suitability", "sign": -1}}
        assert json.loads(manifest("edited", edited))["definition"] == edited
        binary = manifest("binary", edited, "--composite.binary", "true")
        assert json.loads(binary)["definition"]["factor_2"] == {
            "dimension": "suitability", "sign": 1,
        }

    def test_every_settings_field_is_exactly_one_key(self):
        # a field no key names could only be set from the library
        owners = (
            sitefactors.IngestionConfig,
            sitefactors.EngineConfig,
            sitefactors.TypologyConfig,
            sitefactors.SynthConfig,
        )
        fields = [(cls, field.name) for cls in owners for field in dataclasses.fields(cls)]
        named = [tuple(entry) for entry in KEYS.values() if isinstance(entry, Owned)]
        assert collections.Counter(named) == collections.Counter(fields)

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_default_as_flag_text_resolves_to_the_default(self, key):
        default = DEFAULTS[key]
        text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        resolved = RunConfig.resolve(overrides={key: text})[key]
        assert resolved == default
        assert type(resolved) is type(default)

    def test_exit_codes_match_the_readme_table(self):
        readme = {
            "ParseError": 2,
            "SchemaError": 2,
            "DegenerateDataError": 2,
            "ZeroVarianceError": 2,
            "NoFactorRetainedError": 3,
            "SingularCorrelationError": 4,
            "DimensionMismatchError": 5,
            "IncompleteDefinitionError": 5,
            "AlphaRangeError": 5,
            "KRangeError": 5,
        }
        declared = {
            klass.__name__: klass.exit_code
            for klass in errors.SiteFactorsError.__subclasses__()
        }
        assert declared == readme
        assert errors.SiteFactorsError.exit_code == 1


class TestErrorContract:
    """Rejected settings and unwritable outputs end in one error line, no traceback."""

    def assert_one_error(self, capsys, code, expected_code):
        err = capsys.readouterr().err
        assert code == expected_code
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["score", "sweep"])
    def test_band_order_exits_2(self, tmp_path, capsys, definition_path, command):
        out = tmp_path / "out"
        code = main([
            command, "--input", FIXTURE, "--out", str(out),
            "--composite.definition", definition_path,
            "--composite.balance_band", "0.9", "--composite.bias_band", "0.1",
        ])
        err = self.assert_one_error(capsys, code, 2)
        assert "balance_band" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            b'{"score.alpha\xff": 0.5}',
            b'{"score.top_k": ' + b"9" * 5000 + b"}",
            # `json` recurses once per level and gives up near 1,000 levels
            b'{"sweep.thetas": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["not-utf8", "5000-digit-integer", "100000-deep"],
    )
    @pytest.mark.parametrize(
        "option, message",
        [
            ("--config", "cannot read config"),
            ("--composite.definition", "cannot read composite definition"),
        ],
    )
    def test_unreadable_json_file_exits_2(self, tmp_path, capsys, option, message, content):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        code = main(["score", "--input", FIXTURE, "--out", str(out), option, str(path)])
        err = self.assert_one_error(capsys, code, 2)
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, content, repeated",
        [
            (
                "--composite.definition",
                '{"factor_1": {"dimension": "attractiveness", "sign": 1},'
                ' "factor_2": {"dimension": "suitability", "sign": 1},'
                ' "factor_1": {"dimension": "suitability", "sign": -1}}',
                "['factor_1']",
            ),
            ("--config", '{"score.alpha": 0.2, "score.alpha": 0.9}', "['score.alpha']"),
            (
                "--composite.definition",
                '{"factor_1": {"dimension": "attractiveness", "sign": 1, "sign": -1},'
                ' "factor_2": {"dimension": "suitability", "sign": 1}}',
                "['sign']",
            ),
        ],
        ids=["definition-label", "config-key", "sign-in-an-entry"],
    )
    def test_repeated_json_key_exits_2(
        self, tmp_path, capsys, definition_path, option, content, repeated
    ):
        # without the repeat each file is valid, and json would keep the
        # last value without a word
        path = tmp_path / "file.json"
        path.write_text(content)
        out = tmp_path / "out"
        code = main([
            "score", "--input", FIXTURE, "--out", str(out),
            "--composite.definition", definition_path, option, str(path),
        ])
        err = self.assert_one_error(capsys, code, 2)
        assert f"SchemaError: {path}: repeated keys {repeated}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("score.top_k", "0"), ("sweep.top_k", "-1")])
    @pytest.mark.parametrize("command", ["describe", "fit", "score", "sweep", "synth"])
    def test_top_k_below_one_exits_2_unwritten(
        self, tmp_path, capsys, definition_path, command, key, value
    ):
        out = tmp_path / "out"
        code = main([
            command, "--input", FIXTURE, "--out", str(out),
            "--composite.definition", definition_path, f"--{key}", value,
        ])
        err = self.assert_one_error(capsys, code, 2)
        assert f"{key} must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key",
        [
            ("describe", "engine.epsilon"),
            ("fit", "composite.bias_band"),
            ("describe", "synth.noise_std"),
        ],
    )
    def test_nan_setting_exits_2_in_any_subcommand(self, tmp_path, capsys, command, key):
        out = tmp_path / "out"
        code = main([command, "--input", FIXTURE, "--out", str(out), f"--{key}", "nan"])
        err = self.assert_one_error(capsys, code, 2)
        assert key.partition(".")[2] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["engine.epsilon", "engine.varimax_tolerance", "composite.bias_band"]
    )
    def test_infinite_setting_exits_2_and_manifests_stay_json(self, tmp_path, capsys, key):
        # the manifest records every setting, and JSON has no Infinity token
        out = tmp_path / "out"
        code = main(["fit", "--input", FIXTURE, "--out", str(out), f"--{key}", "inf"])
        assert key.partition(".")[2] in self.assert_one_error(capsys, code, 2)
        assert not out.exists()

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        argv = ["fit", "--input", FIXTURE, "--out", str(out), "--quiet"]
        assert main([*argv, f"--{key}", "1e308"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["config"][key] == 1e308
        assert main(argv) == 0
        json.loads((out / "manifest.json").read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_varimax_tolerance_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = main([
            "fit", "--input", FIXTURE, "--out", str(out),
            "--engine.varimax_tolerance", value,
        ])
        assert "varimax_tolerance" in self.assert_one_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # a digit-group underscore is no number, as in a CSV cell
            ("sweep.thetas", "1_0,2", "expected comma-separated numbers"),
            ("score.top_k", "1_0", "'score.top_k'"),
            ("engine.max_iterations", "2_00", "'engine.max_iterations'"),
            ("score.alpha", "0.2_5", "'score.alpha'"),
        ],
    )
    def test_digit_group_underscore_exits_2(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        code = main(["fit", "--input", FIXTURE, "--out", str(out), f"--{key}", value])
        assert message in self.assert_one_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize("thetas", ["1,nan,0.5", "nan", "1,inf"])
    def test_non_finite_thetas_exit_2(self, tmp_path, capsys, thetas):
        out = tmp_path / "out"
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(out), "--sweep.thetas", thetas,
        ])
        assert "sweep.thetas must be finite" in self.assert_one_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, files, expected_code, expected_err",
        [
            (["fit"], {}, 2, "ParseError: no input file given (set --input or the 'input' key)"),
            (
                ["sweep", "--input", FIXTURE, "--sweep.alpha_start", "-0.5"],
                {},
                5,
                "AlphaRangeError: alpha grid [-0.5, 1.0] must sit inside [0, 1]",
            ),
            (
                ["sweep", "--input", FIXTURE, "--sweep.thetas", ""],
                {},
                2,
                "SchemaError: sweep.thetas must not be empty",
            ),
            (
                ["fit", "--input", FIXTURE, "--config", "file.json"],
                {"file.json": "[]"},
                2,
                "SchemaError: file.json: config must be a JSON object",
            ),
            (
                ["score", "--input", FIXTURE, "--composite.definition", "file.json"],
                {"file.json": "{}"},
                2,
                "SchemaError: file.json: expected a non-empty JSON object",
            ),
            (
                ["score", "--input", FIXTURE, "--composite.definition", "file.json"],
                {"file.json": '{"factor_1": {}}'},
                2,
                "SchemaError: file.json: entry 'factor_1' needs 'dimension' and 'sign'",
            ),
            (
                ["describe", "--input", "file.csv"],
                {"file.csv": "region_id\nr1\nr2\n"},
                2,
                "ParseError: file.csv: no attribute columns",
            ),
            (
                ["synth", "--synth.factors", "30", "--synth.attributes", "25"],
                {},
                2,
                "SchemaError: synth.attributes must be at least max(2, synth.factors) = 30, "
                "got 25",
            ),
            (
                ["synth", "--synth.loading", "inf"],
                {},
                2,
                "SchemaError: synth.loading must be finite, got inf",
            ),
        ],
        ids=[
            "no-input", "negative-alpha-start", "empty-thetas", "config-list",
            "empty-definition", "definition-entry-without-fields", "no-attribute-column",
            "more-factors-than-attributes", "infinite-loading",
        ],
    )
    def test_refusal_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, argv, files, expected_code, expected_err
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        code = main([*argv, "--out", "out"])
        err = self.assert_one_error(capsys, code, expected_code)
        assert err == f"error: {expected_err}\n"
        assert not Path("out").exists()

    def test_kurtosis_floor_warns_once_per_attribute(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        path.write_text("region_id,a,b\nr1,1,2\nr2,2,1\nr3,3,5\n")
        code = main(["describe", "--input", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "N=2 R=3\n"
        assert captured.err.splitlines() == [
            f"warning: moment: attribute {name!r} needs >=4 regions for kurtosis"
            for name in "ab"
        ]
        assert (tmp_path / "out" / "stats.csv").exists()

    def test_nonpositive_kaiser_threshold_exits_2(self, tmp_path, capsys):
        code = main([
            "fit", "--input", FIXTURE, "--out", str(tmp_path),
            "--engine.kaiser_threshold", "-5",
        ])
        err = self.assert_one_error(capsys, code, 2)
        assert "kaiser_threshold" in err

    def test_out_under_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        code = main(["fit", "--input", FIXTURE, "--out", str(blocker / "out")])
        err = self.assert_one_error(capsys, code, 2)
        assert "NotADirectoryError" in err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("synth.factors", "0"),
            ("synth.regions", "3"),
            ("synth.noise_std", "nan"),
            ("synth.seed", "-1"),
        ],
    )
    def test_bad_synth_setting_exits_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        code = main(["synth", "--out", str(out), f"--{key}", value])
        err = self.assert_one_error(capsys, code, 2)
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["synth.loading", "synth.noise_std"])
    def test_synth_overflow_is_one_error_line(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--out", str(out), f"--{key}", "1e308"])
        assert caught == []
        err = self.assert_one_error(capsys, code, 2)
        assert err.count("\n") == 1
        assert "synth.loading" in err and "synth.noise_std" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["synth.loading", "synth.noise_std"])
    def test_synth_values_too_large_to_standardize_exit_2(self, tmp_path, capsys, key):
        # finite values whose squared deviations overflow, which `fit` refuses
        out = tmp_path / "out"
        code = main(["synth", "--out", str(out), f"--{key}", "1e200"])
        err = self.assert_one_error(capsys, code, 2)
        assert err.count("\n") == 1
        assert "synth.loading" in err and "synth.noise_std" in err
        assert not out.exists()

    def test_running_out_of_memory_is_one_error_line(self, tmp_path, capsys):
        # 42.6 PiB: more than the address space, so the allocation fails at once
        out = tmp_path / "out"
        code = main(["synth", "--out", str(out), "--synth.regions", "1000000000000000"])
        err = self.assert_one_error(capsys, code, 2)
        assert err.startswith("error: MemoryError: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_attribute(self, tmp_path, capsys):
        rows = [f"r{j},{(j % 5 + 1) * 1e200},{j % 3},{j * j % 7}" for j in range(12)]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(["region_id,a,b,c", *rows]) + "\n")
        code = main(["describe", "--input", str(data), "--out", str(tmp_path / "d")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: moment: attribute 'a' overflows float64; "
            "std/skewness/kurtosis undefined\n"
        )
        code = main(["fit", "--input", str(data), "--out", str(tmp_path / "f")])
        err = self.assert_one_error(capsys, code, 2)
        assert "attribute 'a' is too large to standardize" in err
        assert not (tmp_path / "f").exists()

    def test_rounding_noise_attribute_exits_2(self, tmp_path, capsys):
        # 0.1 + 0.2 is one ulp above 0.3: describe calls the column constant,
        # and fit refuses what describe calls constant
        noise = [0.3] * 51 + [0.1 + 0.2] * 9
        rows = [f"r{j},{x!r},{j % 3},{j * j % 7}" for j, x in enumerate(noise)]
        data = tmp_path / "noise.csv"
        data.write_text("\n".join(["region_id,a,b,c", *rows]) + "\n")
        code = main(["describe", "--input", str(data), "--out", str(tmp_path / "d")])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: moment: attribute 'a' is constant; skewness/kurtosis undefined\n"
        )
        code = main(["fit", "--input", str(data), "--out", str(tmp_path / "f")])
        err = self.assert_one_error(capsys, code, 2)
        assert err == "error: ZeroVarianceError: attribute 'a' has zero variance\n"
        assert not (tmp_path / "f").exists()

    def test_line_break_in_the_input_path_keeps_one_error_line(self, tmp_path, capsys):
        folder = tmp_path / "d\nx"
        folder.mkdir()
        data = folder / "dup.csv"
        data.write_text("region_id,a,b\nr1,1,2\nr1,2,3\nr2,3,1\nr3,5,4\n")
        code = main(["fit", "--input", str(data), "--out", str(tmp_path / "out")])
        err = self.assert_one_error(capsys, code, 2)
        escaped = str(data).replace("\n", "\\n")
        assert err == f"error: SchemaError: {escaped}: duplicate region ids ['r1']\n"

    @pytest.mark.parametrize("command", ["sweep", "describe"])
    def test_colliding_alpha_labels_exit_2(self, tmp_path, capsys, command):
        # 21 alphas on [0, 2e-6] share 3 labels, so top lists would overwrite
        out = tmp_path / "out"
        code = main([
            command, "--input", FIXTURE, "--out", str(out),
            "--sweep.alpha_stop", "0.000002", "--sweep.alpha_step", "0.0000001",
        ])
        err = self.assert_one_error(capsys, code, 2)
        assert "sweep.alpha_step" in err
        assert not out.exists()

    def test_alpha_grid_past_the_label_count_is_refused_unbuilt(
        self, tmp_path, capsys, monkeypatch
    ):
        def build(_):
            raise AssertionError("a billion-alpha grid was built")

        monkeypatch.setattr(RunConfig, "alphas", build)
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path / "out"),
            "--sweep.alpha_step", "1e-9",
        ])
        assert "sweep.alpha_step" in self.assert_one_error(capsys, code, 2)

    def test_colliding_theta_labels_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(out),
            "--sweep.thetas", "1.0,1.0000001,2.0",
        ])
        assert "sweep.thetas" in self.assert_one_error(capsys, code, 2)
        assert not out.exists()

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_alpha_step_exits_5(self, tmp_path, capsys, step):
        code = main([
            "sweep", "--input", FIXTURE, "--out", str(tmp_path / "out"),
            "--sweep.alpha_step", step,
        ])
        assert "AlphaRangeError" in self.assert_one_error(capsys, code, 5)


class TestDefinitionLabels:
    """Definition entries are matched to the retained factors by label."""

    def run_score(self, tmp_path, name, definition):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(definition))
        out = tmp_path / name
        code = main([
            "score", "--input", FIXTURE, "--out", str(out),
            "--composite.definition", str(path),
        ])
        return code, out

    def test_entry_order_does_not_matter(self, tmp_path):
        reverse = dict(reversed(list(TWO_FACTOR_DEFINITION.items())))
        assert list(reverse) == ["factor_2", "factor_1"]
        code, forward_out = self.run_score(tmp_path, "forward", TWO_FACTOR_DEFINITION)
        assert code == 0
        code, reverse_out = self.run_score(tmp_path, "reverse", reverse)
        assert code == 0
        for name in ("scores.csv", "top_suitability.csv", "top_attractiveness.csv"):
            assert (reverse_out / name).read_bytes() == (forward_out / name).read_bytes()

    @pytest.mark.parametrize(
        "labels, named",
        [(("factor_1", "factor_9"), ("'factor_2'", "'factor_9'")), (("factor_1",), ("'factor_2'",))],
    )
    def test_missing_or_unknown_label_exits_5(self, tmp_path, capsys, labels, named):
        entries = list(TWO_FACTOR_DEFINITION.values())
        code, out = self.run_score(tmp_path, "bad", dict(zip(labels, entries)))
        err = capsys.readouterr().err
        assert code == 5
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        assert "IncompleteDefinitionError" in err
        assert all(label in err for label in named)
        assert not (out / "scores.csv").exists()

    def test_readme_example_entries_load_with_their_note(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Composite definition file")[1]
        example = section.split("```json\n")[1].split("```")[0]
        assert '"note"' in example
        path = tmp_path / "readme.json"
        path.write_text(example)
        definition = sitefactors.load_definition(path, 3)
        assert [a.sign for a in definition] == [1, -1, 1]


def test_readme_library_block_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use")[1].split("```python\n")[1].split("```")[0]
    assert main(["synth", "--out", str(tmp_path), "--quiet"]) == 0
    (tmp_path / "synthetic.csv").rename(tmp_path / "data.csv")
    package_root = str(Path(sitefactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    result = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    top = ast.literal_eval(result.stdout.splitlines()[0])
    assert len(top) == 10
    assert all(isinstance(rid, str) and isinstance(v, float) for rid, v in top)
    assert result.stdout.splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_out():
    package_root = str(Path(sitefactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    check = "import sys, sitefactors.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_runs_leave_numpy_ma_and_scipy_out(tmp_path, definition_path):
    package_root = str(Path(sitefactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    script = (
        "import sys\n"
        "from sitefactors.cli import main\n"
        f"argv = ['--input', {FIXTURE!r}, '--out', {str(tmp_path)!r}, '--quiet',\n"
        f"        '--composite.definition', {definition_path!r}]\n"
        "codes = [main([command, *argv]) for command in ('describe', 'fit', 'score', 'sweep')]\n"
        "loaded = [name for name in ('numpy.ma', 'scipy') if name in sys.modules]\n"
        "sys.exit(f'exit codes {codes}, loaded {loaded}' if any(codes) or loaded else 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_runs_leave_openssl_out(tmp_path):
    # the input's digest comes from CPython's builtin SHA-256; `synth` is not
    # run here, as numpy.random loads OpenSSL through `secrets`
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this Python has no builtin SHA-256 module")
    assert main(["synth", "--out", str(tmp_path), "--quiet", "--synth.regions", "60"]) == 0
    package_root = str(Path(sitefactors.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    script = (
        "import sys\n"
        "from sitefactors.cli import main\n"
        "data, out = sys.argv[1:]\n"
        "codes = [main([command, '--input', data, '--out', out, '--quiet'])\n"
        "         for command in ('describe', 'fit', 'score', 'sweep')]\n"
        "loaded = [name for name in ('_hashlib', 'hashlib') if name in sys.modules]\n"
        "sys.exit(f'exit codes {codes}, loaded {loaded}' if any(codes) or loaded else 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "synthetic.csv"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


# OpenBLAS picks its kernels by CPU and its thread count at run time; the
# artifacts must not depend on either
BLAS_VARIANTS = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
if platform.machine().lower() in ("x86_64", "amd64"):
    BLAS_VARIANTS.append({"OPENBLAS_CORETYPE": "Prescott"})


def test_artifacts_do_not_depend_on_the_blas_build(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--quiet", "--seed", "7"]) == 0
    package_root = str(Path(sitefactors.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    script = (
        "import sys\n"
        "from sitefactors.cli import main\n"
        "data, out = sys.argv[1:]\n"
        "codes = [main([command, '--input', data, '--out', out, '--quiet'])\n"
        "         for command in ('fit', 'score', 'sweep')]\n"
        "sys.exit(f'exit codes {codes}' if any(codes) else 0)\n"
    )
    digests = []
    for i, variant in enumerate(BLAS_VARIANTS):
        out = tmp_path / f"variant_{i}"
        env = dict(base, PYTHONPATH=package_root, **variant)
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "synthetic.csv"), str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (variant, result.stderr)
        digests.append({
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        })
    assert "sweep_long.csv" in digests[0]
    for variant, found in zip(BLAS_VARIANTS[1:], digests[1:]):
        assert found == digests[0], variant


@pytest.mark.parametrize("command", ["fit", "score", "sweep"])
def test_the_fit_holds_the_standardized_copy_alone(
    command, tmp_path, definition_path, monkeypatch
):
    """The raw table is gone before the factors are fit: only its
    standardized copy stays alive through the fit."""
    tables, alive, load = [], [], cli.load_table

    def load_table(*args, **kwargs):
        table = load(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    def fit_factor_model(*args):
        alive.extend(ref() is not None for ref in tables)
        return engine.fit_factor_model(*args)

    monkeypatch.setattr(cli, "load_table", load_table)
    monkeypatch.setattr(cli, "fit_factor_model", fit_factor_model)
    argv = [command, "--input", FIXTURE, "--out", str(tmp_path), "--quiet"]
    assert main([*argv, "--composite.definition", definition_path]) == 0
    assert alive == [False]


class TestProvenance:
    def test_drop_policy_writes_log(self, tmp_path, capsys):
        source = Path(FIXTURE).read_text().splitlines()
        source[3] = source[3].replace("12.9", "")
        data = tmp_path / "holes.csv"
        data.write_text("\n".join(source) + "\n")
        # 5 regions remain for 4 attributes: still >= N+1
        code = main([
            "describe", "--input", str(data), "--out", str(tmp_path),
            "--data.missing_policy", "drop-region",
        ])
        assert code == 0
        log = (tmp_path / "provenance.log").read_text().strip()
        assert log == "R03,housing_density,drop-region"
        assert "missing value handled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags, expected_code",
        [
            ("fit", ["--engine.kaiser_threshold", "100"], 3),
            # the fixture retains 2 factors, and the built-in definition has 6
            ("score", [], 5),
        ],
    )
    def test_failing_run_writes_nothing(self, tmp_path, capsys, command, flags, expected_code):
        source = Path(FIXTURE).read_text().splitlines()
        source[3] = source[3].replace("12.9", "")
        data = tmp_path / "holes.csv"
        data.write_text("\n".join(source) + "\n")
        out = tmp_path / "out"
        code = main([
            command, "--input", str(data), "--out", str(out),
            "--data.missing_policy", "impute-median", *flags,
        ])
        assert code == expected_code
        assert "missing value handled" in capsys.readouterr().err
        assert not out.exists()

    def test_imputed_median_of_an_overflowing_pair_stays_finite(self, tmp_path, capsys):
        # the two middle values of column a sum past the float64 range
        huge = "8.98846567431158e+307"
        rows = [f"r1,{huge},1", f"r2,{huge},2", "r3,,3", f"r4,{huge},5", "r5,1.0,4"]
        data = tmp_path / "huge.csv"
        data.write_text("region_id,a,b\n" + "\n".join(rows) + "\n")
        policy = ["--data.missing_policy", "impute-median"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["describe", "--input", str(data), "--out", str(tmp_path / "out"), *policy])
            table = sitefactors.load_table(data, sitefactors.IngestionConfig(*policy[1:]))
        assert code == 0
        assert "RuntimeWarning" not in capsys.readouterr().err
        assert table.values[0, 2] == float(huge)

    def test_line_break_in_an_id_keeps_one_stderr_line(self, tmp_path, capsys):
        source = Path(FIXTURE).read_text().splitlines()
        source[1] = source[1].replace("R01,5.1", '"r\n1",')
        data = tmp_path / "holes.csv"
        data.write_text("\n".join(source) + "\n", newline="")
        code = main([
            "describe", "--input", str(data), "--out", str(tmp_path),
            "--data.missing_policy", "impute-median",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "r\\n1" in err
        assert all(line.startswith("warning:") for line in err.splitlines())
        with open(tmp_path / "provenance.log", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == [["r\n1", "housing_density", "impute-median"]]


class TestTextCells:
    """Ids and attribute names that need CSV quotes come back out intact."""

    ODD_ID = 'x,"y"'
    ODD_ATTRIBUTE = "a,1"
    IDS = (ODD_ID, "r\n2", "r,3", "r\r\n4", "R05", "R06")

    def test_artifacts_read_back_with_csv_reader(self, tmp_path, definition_path):
        source = Path(FIXTURE).read_text().splitlines()
        source[0] = source[0].replace("housing_density", '"a,1"')
        source[1] = source[1].replace("R01", '"x,""y"""')
        # quoted line breaks belong to the id, as `csv` reads them
        source[2] = source[2].replace("R02", '"r\n2"')
        source[3] = source[3].replace("R03,12.9", '"r,3",')
        source[4] = source[4].replace("R04", '"r\r\n4"')
        data = tmp_path / "odd.csv"
        data.write_text("\n".join(source) + "\n", newline="")
        policy = sitefactors.IngestionConfig(missing_policy="impute-median")
        assert sitefactors.load_table(data, policy).region_ids == self.IDS
        common = ["--input", str(data), "--data.missing_policy", "impute-median", "--quiet"]
        ranked = ["--composite.definition", definition_path]
        runs = {
            "describe": [],
            "fit": [],
            "score": [*ranked, "--score.top_k", "6"],
            "sweep": [*ranked, "--sweep.top_k", "6", "--sweep.alpha_step", "0.5"],
        }
        for command, flags in runs.items():
            assert main([command, "--out", str(tmp_path / command), *common, *flags]) == 0
        tables = {}
        for path in sorted(tmp_path.glob("*/*.csv")) + sorted(tmp_path.glob("*/*.log")):
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert len({len(row) for row in rows}) == 1, path
            tables[f"{path.parent.name}/{path.name}"] = rows
        ids = set(self.IDS)
        assert {row[0] for row in tables["score/scores.csv"][1:]} == ids
        for name in ("score/top_suitability.csv", "sweep/top_regions_alpha_0.5.csv"):
            assert {row[1] for row in tables[name][1:]} == ids
        for name in ("describe/stats.csv", "fit/loadings.csv", "fit/weights.csv"):
            assert tables[name][1][0] == self.ODD_ATTRIBUTE
        assert tables["describe/provenance.log"] == [["r,3", "a,1", "impute-median"]]

    def test_ragged_row_after_a_two_line_id_names_the_csv_line(self, tmp_path, capsys):
        source = Path(FIXTURE).read_text().splitlines()
        source[1] = source[1].replace("R01", '"r\r\n1"')  # lines 2 and 3
        # U+2028 ends a line for `str.splitlines`, not for `csv`
        source[2] = source[2].replace("R02", '"r\u20282"')  # line 4
        source[3] = source[3].rpartition(",")[0]  # line 5, one field short
        data = tmp_path / "ragged.csv"
        data.write_text("\n".join(source) + "\n", encoding="utf-8", newline="")
        out = tmp_path / "out"
        code = main(["describe", "--input", str(data), "--out", str(out)])
        assert code == 2
        assert f"{data}: line 5 has 4 fields, expected 5" in capsys.readouterr().err
        assert not out.exists()


# Setting values the fuzz test draws from: in range, at the edges and beyond.
FUZZ_SETTINGS = {
    "data.missing_policy": ["reject", "drop-region", "impute-median", "ignore"],
    "engine.epsilon": ["1e-5", "0", "-1", "nan", "1e300"],
    "engine.max_iterations": ["1", "3", "0", "-2", "2.5"],
    "engine.kaiser_threshold": ["0.5", "1", "2", "0", "nan", "inf"],
    "engine.ridge_fallback": ["true", "false", "maybe"],
    "engine.varimax_tolerance": ["1e-8", "0", "-1", "nan"],
    "composite.binary": ["true", "false"],
    "composite.balance_band": ["0.1", "0", "0.6", "-1", "nan"],
    "composite.bias_band": ["0.5", "0", "2", "nan"],
    "score.alpha": ["0.5", "0", "1", "1.5", "nan"],
    "score.top_k": ["3", "1", "0", "-1", "100"],
    "sweep.alpha_start": ["0", "0.3", "-0.1", "nan"],
    "sweep.alpha_stop": ["1", "0.3", "2"],
    "sweep.alpha_step": ["0.2", "0.5", "0", "1e-7", "1e-12", "nan", "inf"],
    "sweep.thetas": ["1,2", "2,1", "0", "", "1,1.0000001", "-1e300,1e300", "a"],
    "sweep.top_k": ["5", "0", "-1"],
    "synth.factors": ["6", "0"],
    "synth.noise_std": ["0.6", "nan"],
}

# Cells that replace generated values: missing, non-numeric, huge, odd forms.
FUZZ_CELLS = ["", "nan", "inf", "-inf", "x", "1_0", "1e308", "-1e200", "0x10", " 2 ", "1e-320"]


@st.composite
def cli_cases(draw):
    """A small CSV with planted factors, a few defects, a command and settings."""
    n = draw(st.integers(2, 6))
    r = max(1, n + 1 + draw(st.integers(-2, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planted = draw(st.sampled_from([0.0, 1.0, 3.0, 3.0, 1e3])) * np.eye(2)[np.arange(n) % 2]
    values = rng.normal(size=(r, 2)) @ planted.T + rng.normal(size=(r, n))
    if draw(st.integers(0, 5)) == 0:
        values[:, -1] = values[:, 0] * 2.0  # an exact collinear pair
    cells = [[f"{x:.6g}" for x in row] for row in values]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(FUZZ_CELLS))
    ids = [f"r{i}" for i in range(r)]
    if draw(st.integers(0, 4)) == 0:
        ids[-1] = draw(st.sampled_from(["r0", "", '"q,1"', "#c", '"r\n1"']))
    lines = ["region_id," + ",".join(f"a{k}" for k in range(n))]
    lines += [",".join([rid, *row]) for rid, row in zip(ids, cells)]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "r9"])))
    command = draw(st.sampled_from(["describe", "fit", "score", "sweep"]))
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ_SETTINGS)), max_size=2, unique=True))
    overrides = [(key, draw(st.sampled_from(FUZZ_SETTINGS[key]))) for key in keys]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + ending, command, overrides, draw(st.integers(0, 3)) > 0


@settings(max_examples=150, deadline=None)
@given(cli_cases())
def test_cli_fuzz_keeps_the_exit_contract(case):
    text, command, overrides, with_definition = case
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        (root / "in.csv").write_text(text, encoding="utf-8", newline="")
        argv = [command, "--input", str(root / "in.csv"), "--out", str(root / "out")]
        if with_definition:
            (root / "def.json").write_text(json.dumps(TWO_FACTOR_DEFINITION))
            argv += ["--composite.definition", str(root / "def.json")]
        for key, value in overrides:
            argv += [f"--{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        # a run that fails leaves nothing behind, not even the directory
        assert code == 0 or not (root / "out").exists()
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code != 0), err
