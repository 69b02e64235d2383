"""Command-line surface: config materialization, outputs, exit codes."""

import copy
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randsum
from randsum.arrays import ARRAY_KINDS, array_from_config

from randsum.cli import (
    COUNTEREXAMPLE_CSV_HEADER,
    DISTANCES_CSV_HEADER,
    EXIT_CONFIG,
    EXIT_FINDING,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    effective_config,
    main,
)
from randsum.conditions import InvalidRowError
from randsum.distributions import (
    DISTRIBUTION_FAMILIES,
    INDEX_FAMILIES,
    Normal,
    distribution_from_config,
    index_from_config,
)
from randsum.engine import BUILTIN_PLAN_NAMES, DISTANCES
from randsum.metrics import zeta


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestEffectiveConfig:
    def test_empty_document_materializes_defaults(self):
        cfg = effective_config({}, "conditions")
        assert cfg["array"] == {"array": "shiryaev", "rows": "n"}
        assert cfg["grids"] == {"n": [4, 16, 64], "epsilon": [0.1, 0.5, 1.0], "delta": [1.0]}
        assert cfg["monte_carlo"] == {"M": 100_000, "alpha": 0.01, "seed": 0}
        assert cfg["index"] is None
        assert cfg["tasks"] == ["conditions"]

    @pytest.mark.parametrize(
        "raw,command",
        [
            ({}, "conditions"),
            ({"tasks": ["study"], "study": {"plan": "feller_necessity_rare_jump"}}, "study"),
            (
                {
                    "tasks": ["study"],
                    "study": {"plan": "feller_necessity_rare_jump"},
                    "grids": {"n": [4, 8]},
                    "monte_carlo": {"M": 2000},
                },
                "study",
            ),
        ],
    )
    def test_idempotent(self, raw, command):
        once = effective_config(raw, command)
        twice = effective_config(once, command)
        assert once == twice

    def test_plan_supplies_defaults(self):
        cfg = effective_config(
            {"tasks": ["study"], "study": {"plan": "rotar_shiryaev_series"}}, "study"
        )
        assert cfg["array"] == {"array": "series", "base_seq": "shiryaev", "rows": "n"}
        assert cfg["index"] == {"family": "poisson", "mean": "n"}
        assert cfg["grids"]["n"] == [16, 64, 256, 512]
        assert cfg["study"]["mode"] == "rows"
        assert cfg["study"]["plan"] == "rotar_shiryaev_series"

    def test_partial_override_keeps_plan_rest(self):
        cfg = effective_config(
            {
                "tasks": ["study"],
                "study": {"plan": "lindeberg_uniform_poisson"},
                "grids": {"n": [4, 8]},
            },
            "study",
        )
        assert cfg["grids"]["n"] == [4, 8]
        # epsilon still comes from the plan, not the generic default
        assert cfg["grids"]["epsilon"] == [0.1]
        assert cfg["monte_carlo"]["M"] == 100_000

    def test_diagnostic_paths(self):
        with pytest.raises(ConfigError, match=r"\$\.array\.famly: unknown key"):
            effective_config(
                {"array": {"array": "iid", "famly": 1,
                           "base": {"family": "rademacher"}}},
                "conditions",
            )
        with pytest.raises(ConfigError, match=r"\$\.grids\.epsilon\[0\]: must be a positive finite number"):
            effective_config({"grids": {"epsilon": [-0.5]}}, "conditions")
        with pytest.raises(ConfigError, match=r"\$\.tasks: config does not enable task 'conditions'"):
            effective_config({"tasks": ["selfcheck"]}, "conditions")
        with pytest.raises(ConfigError, match=r"\$\.study\.plan: unknown plan"):
            effective_config({"study": {"plan": "nope"}}, "study")
        with pytest.raises(ConfigError, match=r"\$\.index: required for the study task"):
            effective_config({"tasks": ["study"], "study": {"label": "x"}}, "study")

    def test_plan_less_study_defaults(self):
        cfg = effective_config({"index": {"family": "poisson"}}, "study")
        assert cfg["study"] == {
            "plan": None,
            "label": "study",
            "mode": "prefix",
            "eta": 1e-10,
            "functionals": ["lindeberg", "feller", "rand_lindeberg", "rand_feller"],
            "distances": ["empirical_delta"],
            "checks": [],
            "normal_twin_feller": False,
        }

    def test_distances_requires_index(self):
        with pytest.raises(ConfigError, match=r"\$\.index: required"):
            effective_config({}, "distances")
        cfg = effective_config({"index": {"family": "geometric", "mean": "n"}}, "distances")
        assert cfg["distances"]["metrics"] == [
            "kolmogorov_row", "empirical_delta", "delta_mixture"
        ]


# a value for every required key of every registry entry
REQUIRED_VALUES = {
    "low": -1.0,
    "high": 1.0,
    "values": [1, 2],
    "probs": [0.5, 0.5],
    "factor": 0.5,
    "offset": 0.25,
    "base": {"family": "rademacher"},
}

# registry -> (table, kind key, builder, conditions document, config path)
REGISTRIES = {
    "distribution": (DISTRIBUTION_FAMILIES, "family", distribution_from_config,
                     lambda c: {"array": {"array": "iid", "base": c}}, "$.array.base"),
    "index": (INDEX_FAMILIES, "family", lambda c: index_from_config(c, 4),
              lambda c: {"index": c}, "$.index"),
    "array": (ARRAY_KINDS, "array", array_from_config, lambda c: {"array": c}, "$.array"),
}


def minimal_config(registry, name):
    table, kind_key = REGISTRIES[registry][:2]
    cfg = {kind_key: name}
    for key in table[name].required:
        cfg[key] = copy.deepcopy(REQUIRED_VALUES[key])
    return cfg


class TestRegistry:
    @pytest.mark.parametrize(
        "registry,name", [(r, n) for r, spec in REGISTRIES.items() for n in spec[0]]
    )
    def test_required_keys_suffice(self, registry, name):
        build, document = REGISTRIES[registry][2:4]
        cfg = minimal_config(registry, name)
        build(copy.deepcopy(cfg))
        effective_config(document(cfg), "conditions")

    @pytest.mark.parametrize(
        "registry,name,key",
        [(r, n, k) for r, spec in REGISTRIES.items() for n in spec[0]
         for k in spec[0][n].required],
    )
    def test_missing_required_key_exits_2(self, tmp_path, capsys, registry, name, key):
        document, path = REGISTRIES[registry][3:]
        cfg = minimal_config(registry, name)
        del cfg[key]
        code = main(["conditions", "--config", write_config(tmp_path, document(cfg))])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: {path}.{key}: required for" in err
        assert "Traceback" not in err


class TestConditionsCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(["conditions"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "label,n,epsilon,delta,functional,value,error_bound"
        assert any(",feller," in ln for ln in lines)
        # no index configured: no randomized columns
        assert not any(",rand_" in ln for ln in lines)

    def test_randomized_columns_with_index(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "array": {"array": "rare-jump"},
                "index": {"family": "poisson", "mean": "n"},
                "grids": {"n": [4], "epsilon": [0.5], "delta": [1.0]},
            },
        )
        code = main(["conditions", "--config", cfg])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert any(",rand_lindeberg," in ln for ln in out.splitlines())

    def test_poisson_index_does_not_import_scipy_stats(self, tmp_path):
        # scipy.stats takes longer to import than most commands take to
        # run; a fresh interpreter shows whether anything pulled it in
        cfg = write_config(
            tmp_path,
            {
                "array": {"array": "rare-jump"},
                "index": {"family": "poisson", "mean": "n"},
                "grids": {"n": [4, 8], "epsilon": [0.5], "delta": [1.0]},
            },
        )
        script = (
            "import json, sys\n"
            "from randsum.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy.stats'))]))\n"
        )
        package_root = os.path.dirname(os.path.dirname(randsum.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, "conditions", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK, []]
        table = (tmp_path / "conditions.csv").read_text()
        assert ",rand_lindeberg," in table

    def test_underflowing_shiryaev_row_names_the_entry(self, tmp_path, capsys):
        # entry (1100, 1) has variance 2^-1099, below the smallest double
        doc = {
            "array": {"array": "shiryaev"},
            "grids": {"n": [1100], "epsilon": [0.5], "delta": [1.0]},
            "outputs": {"format": "json"},
        }
        code = main(["conditions", "--config", write_config(tmp_path, doc)])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_NUMERIC
        assert [err["error"] for err in doc["errors"]] == [
            "ArrayError: shiryaev entry (1100, 1) underflows to zero variance; "
            "rows this deep are outside the numeric envelope"
        ]

    def test_dry_run_echoes_effective_config(self, capsys):
        code = main(["conditions", "--dry-run"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        echoed = json.loads(out)
        assert echoed == effective_config(echoed, "conditions")

    def test_out_dir_and_atomic_write(self, tmp_path, capsys):
        code = main(["conditions", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_OK
        target = tmp_path / "conditions.csv"
        assert target.exists()
        assert f"wrote {target}" in err
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_json_format(self, capsys):
        code = main(["conditions", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc["command"] == "conditions"
        assert doc["rows"] and doc["errors"] == []


class TestDistancesCommand:
    def test_default_metrics_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "array": {"array": "iid", "base": {"family": "rademacher"}},
                "index": {"family": "geometric", "mean": "n"},
                "grids": {"n": [4, 8]},
                "monte_carlo": {"M": 2000, "seed": 7},
            },
        )
        code = main(["distances", "--config", cfg])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(DISTANCES_CSV_HEADER)
        metrics = {ln.split(",")[2] for ln in lines[1:]}
        assert metrics == {"kolmogorov_row", "empirical_delta", "delta_mixture"}

    def test_failed_cell_annotation_and_strict(self, tmp_path, capsys):
        # uniform entries have no exact convolution: kolmogorov_row fails
        # per cell, is annotated, and --strict escalates to exit 3
        doc = {
            "array": {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
            "index": {"family": "geometric", "mean": "n"},
            "grids": {"n": [4]},
            "monte_carlo": {"M": 2000},
            "distances": {"metrics": ["kolmogorov_row", "empirical_delta"]},
        }
        cfg = write_config(tmp_path, doc)
        code = main(["distances", "--config", cfg])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert any(",kolmogorov_row_error,,," in ln for ln in out.splitlines())
        code = main(["distances", "--config", cfg, "--strict"])
        capsys.readouterr()
        assert code == EXIT_NUMERIC

    def test_underflowing_series_row_names_the_entry(self, tmp_path, capsys):
        # rows mode at n = 1200 reaches series rows whose first entry
        # variance underflows: a numeric failure of that cell, exit 3
        doc = {
            "array": {"array": "series"},
            "index": {"family": "poisson"},
            "grids": {"n": [1200]},
            "distances": {"metrics": ["delta_mixture"], "mode": "rows"},
        }
        code = main(["distances", "--config", write_config(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "ArrayError: series entry (1077, 1) underflows to zero variance" in err


class TestDistanceTable:
    """The study and the distances command read one table, ``DISTANCES``."""

    ARRAYS = {
        # no exact law: the two mixture distances fall back to Monte Carlo,
        # whose DKW bound is taken at alpha
        "uniform": {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
        "rare-jump": {"array": "rare-jump"},
    }
    # the uniform row sum has no exact law, so kolmogorov_row fails there
    CASES = [case for case in itertools.product(DISTANCES, ARRAYS)
             if case != ("kolmogorov_row", "uniform")]

    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    @pytest.mark.parametrize("name,array", CASES)
    def test_study_and_distances_command_give_the_same_bits(
        self, tmp_path, capsys, name, array, mode
    ):
        shared = {
            "array": self.ARRAYS[array],
            "index": {"family": "poisson", "mean": "n"},
            "grids": {"n": [4], "epsilon": [0.5]},
            "monte_carlo": {"M": 2000, "alpha": 1e-6, "seed": 5},
            "outputs": {"format": "json"},
        }
        study = {**shared, "tasks": ["study"],
                 "study": {"label": "one", "mode": mode, "functionals": ["feller"],
                           "distances": [name]}}
        distances = {**shared, "distances": {"metrics": [name], "mode": mode}}
        assert main(["study", "--config", write_config(tmp_path, study, "study.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert main(["distances", "--config", write_config(tmp_path, distances, "d.json"),
                     "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        docs = [json.loads((tmp_path / f).read_text())
                for f in ("study-one.json", "distances.json")]
        assert [doc["errors"] for doc in docs] == [[], []]
        picked = [[(r["value"], r["error_bound"]) for r in doc["rows"] if r["metric"] == name]
                  for doc in docs]
        assert picked[0] == picked[1] and len(picked[0]) == 1
        assert picked[0][0][0] is not None


class TestStudyCommand:
    def study_config(self, tmp_path, **extra):
        doc = {
            "tasks": ["study"],
            "array": {"array": "rare-jump"},
            "index": {"family": "geometric", "mean": "n"},
            "grids": {"n": [4, 8], "epsilon": [0.5], "delta": [1.0]},
            "monte_carlo": {"M": 2000, "seed": 11},
            "study": {
                "label": "tiny",
                "functionals": ["rand_lindeberg", "rand_feller"],
                "distances": ["empirical_delta"],
                "checks": [
                    {"kind": "final_above", "metric": "rand_lindeberg",
                     "epsilon": 0.5, "threshold": 0.5}
                ],
            },
        }
        doc.update(extra)
        return write_config(tmp_path, doc)

    def test_plan_and_config_are_exclusive(self, tmp_path, capsys):
        cfg = self.study_config(tmp_path)
        code = main(["study", "--plan", "rotar_shiryaev_series", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "mutually exclusive" in err

    def test_config_run_writes_csv_and_verdicts(self, tmp_path, capsys):
        cfg = self.study_config(tmp_path)
        code = main(["study", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        target = tmp_path / "study-tiny.csv"
        assert target.exists()
        # verdict lines go to stdout when the table went to a file
        assert "PASS final_above:rand_lindeberg@eps=0.5" in captured.out
        header = target.read_text().splitlines()[0]
        assert header == "label,n,epsilon,delta,metric,value,error_bound"

    def test_eta_below_half_an_ulp_of_one(self, tmp_path, capsys):
        # 1 - eta rounds to 1: the Poisson truncation walks up from the
        # mean instead of failing every conditions cell
        doc = {
            "tasks": ["study"],
            "study": {"plan": "lyapunov_exponential_poisson", "eta": 1e-17,
                      "distances": [], "checks": []},
            "grids": {"n": [16]},
            "monte_carlo": {"M": 1000},
        }
        code = main(["study", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "cell failed" not in captured.err
        assert any(",rand_lyapunov," in ln for ln in captured.out.splitlines())

    def test_failed_verdict_exits_4(self, tmp_path, capsys):
        cfg = self.study_config(
            tmp_path,
            study={
                "label": "tiny",
                "functionals": ["rand_feller"],
                "distances": [],
                "checks": [
                    {"kind": "all_below", "metric": "rand_feller",
                     "epsilon": 0.5, "threshold": 1e-9}
                ],
            },
        )
        code = main(["study", "--config", cfg])
        captured = capsys.readouterr()
        assert code == EXIT_FINDING
        assert "FAIL" in captured.err

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        cfg = self.study_config(tmp_path)
        outputs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code = main(["study", "--config", cfg, "--out", str(d)])
            assert code == EXIT_OK
            outputs.append((d / "study-tiny.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_json_document_echoes_config(self, tmp_path, capsys):
        cfg = self.study_config(tmp_path)
        code = main(["study", "--config", cfg, "--format", "json",
                     "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "study-tiny.json").read_text())
        assert code == EXIT_OK
        assert "runtime_seconds" not in doc
        assert doc["config"]["study"]["label"] == "tiny"
        assert doc["passed"] is True

    def test_dry_run_validates_plan(self, capsys):
        code = main(["study", "--plan", "lindeberg_uniform_poisson", "--dry-run"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        echoed = json.loads(out)
        assert echoed["study"]["plan"] == "lindeberg_uniform_poisson"
        assert echoed == effective_config(echoed, "study")


    @pytest.mark.parametrize("name", BUILTIN_PLAN_NAMES)
    def test_every_plan_dry_run_revalidates_to_itself(self, capsys, name):
        code = main(["study", "--plan", name, "--dry-run"])
        echoed = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert echoed["study"]["plan"] == name
        assert echoed == effective_config(echoed, "study")

    @pytest.mark.parametrize(
        "study,message",
        [
            ({"functionals": ["rand_lindeburg"]},
             "$.study: unknown functionals: ['rand_lindeburg']"),
            ({"checks": [{"kind": "to_zero", "metric": "rand_feller"}]},
             "$.study: checks[0].final_max: required for check kind 'to_zero'"),
            ({"checks": [{"kind": "tracks_metric", "metric": "rand_feller"}]},
             "$.study: checks[0].other: required for check kind 'tracks_metric'"),
            ({"checks": [{"kind": "all_below", "metric": "rand_feller",
                          "threshold": 0.1, "final_max": 0.1}]},
             "$.study: checks[0].final_max: unknown key"),
            ({"checks": [{"kind": "wibble", "metric": "rand_feller"}]},
             "$.study: checks[0].kind: unknown check kind 'wibble'"),
            ({"checks": [{"kind": "all_below", "metric": "rand_felller", "threshold": 1.0}]},
             "$.study: checks[0].metric: the study emits no metric 'rand_felller'"),
            ({"checks": [{"kind": "all_below", "metric": "rotar", "threshold": 1.0}]},
             "$.study: checks[0].metric: the study emits no metric 'rotar'"),
            ({"checks": [{"kind": "all_below", "metric": "rand_feller", "threshold": [1]}]},
             "$.study: checks[0].threshold: expected a number"),
            ({"eta": 1.5}, "$.study: eta must lie in (0, 0.001]"),
            ({"normal_twin_feller": "no"},
             "$.study.normal_twin_feller: expected true or false"),
        ],
    )
    def test_study_section_faults_exit_2(self, tmp_path, capsys, study, message):
        cfg = self.study_config(tmp_path, study={"label": "tiny", **study})
        for dry_run in ([], ["--dry-run"]):
            code = main(["study", "--config", cfg, *dry_run])
            captured = capsys.readouterr()
            assert code == EXIT_CONFIG
            assert message in captured.err
            assert captured.out == ""


class TestCounterexampleCommand:
    def test_findings_pass(self, capsys):
        code = main(["counterexample", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.strip().splitlines()
        assert lines[0] == ",".join(COUNTEREXAMPLE_CSV_HEADER)
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == [
            "exact_clt_distance",
            "feller_half",
            "lindeberg_floor",
            "infinitesimality_floor",
            "rotar_within_tolerance",
        ]
        assert all(ln.split(",")[1] == "True" for ln in lines[1:])
        assert captured.err.count("PASS") == 5

    def test_scenario_config(self, tmp_path, capsys):
        code = main([
            "counterexample", "--config",
            os.path.join(os.path.dirname(__file__), "..", "scenarios",
                         "counterexample_shiryaev.json"),
            "--out", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (tmp_path / "counterexample.csv").exists()


class TestSelfcheckCommand:
    def test_stdout_json_and_determinism(self, capsys):
        code = main(["selfcheck", "--seed", "42"])
        first = capsys.readouterr().out
        assert code == EXIT_OK
        doc = json.loads(first)
        assert doc["passed"] is True and len(doc["checks"]) == 18
        main(["selfcheck", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        code = main(["selfcheck", "--seed", "42", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads((tmp_path / "selfcheck.json").read_text())["passed"] is True

    def test_loose_quad_tol_exits_3(self, capsys):
        code = main(["selfcheck", "--quad-tol", "0.01"])
        capsys.readouterr()
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("command", ["selfcheck", "counterexample"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_quad_tol_is_a_config_error(self, capsys, command, tol):
        code = main([command, "--quad-tol", tol])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "--quad-tol: must be a positive finite number" in captured.err
        assert captured.out == ""


class TestFlags:
    """Flags every command shares go through one load, echo and check."""

    DISTANCES = {"array": {"array": "rare-jump"}, "index": {"family": "poisson", "mean": "n"},
                 "grids": {"n": [4]}, "monte_carlo": {"M": 2000}}
    STUDY = {"tasks": ["study"], "array": {"array": "rare-jump"},
             "index": {"family": "poisson", "mean": "n"},
             "grids": {"n": [4], "epsilon": [0.5]}, "monte_carlo": {"M": 2000},
             "study": {"label": "tiny", "functionals": ["rand_feller"]}}

    def argv(self, tmp_path, command):
        """A command line that runs ``command`` successfully."""
        if command == "distances":
            return ["distances", "--config", write_config(tmp_path, self.DISTANCES)]
        if command == "study-config":
            return ["study", "--config", write_config(tmp_path, self.STUDY)]
        if command == "study-plan":
            return ["study", "--plan", "feller_necessity_rare_jump"]
        return [command]

    @pytest.mark.parametrize(
        "command", ["conditions", "distances", "study-plan", "counterexample", "selfcheck"]
    )
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, dry_run):
        argv = self.argv(tmp_path, command) + ["--seed", "-5"]
        code = main(argv + (["--dry-run"] if dry_run else []))
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert "config error: --seed: expected a nonnegative integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["selfcheck", "--strict"], ["selfcheck", "--format", "csv"],
         ["counterexample", "--strict"]],
    )
    def test_flags_a_command_ignores_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["conditions", "distances", "study-config", "study-plan", "counterexample"]
    )
    def test_dry_run_echo_round_trips(self, tmp_path, capsys, command):
        argv = self.argv(tmp_path, command)
        assert main(argv + ["--seed", "3", "--format", "json", "--dry-run"]) == EXIT_OK
        echo = capsys.readouterr().out
        cfg = json.loads(echo)
        assert cfg["monte_carlo"]["seed"] == 3 and cfg["outputs"]["format"] == "json"
        again = write_config(tmp_path, cfg, "echo.json")
        assert main([argv[0], "--config", again, "--dry-run"]) == EXIT_OK
        assert capsys.readouterr().out == echo


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        code = main(["conditions", "--config", "/nonexistent/cfg.json"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["conditions", "--config", str(bad)])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_unknown_key_reported_with_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grids": {"n": [4], "epsilonn": [0.5]}})
        code = main(["conditions", "--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "$.grids.epsilonn: unknown key" in err

    @pytest.mark.parametrize(
        "doc,path",
        [
            ({"array": {"array": "iid",
                        "base": {"family": "uniform", "low": "a", "high": 1}}}, "$.array"),
            ({"array": {"array": "iid",
                        "base": {"family": "exponential-centered", "rate": [1.0]}}},
             "$.array"),
            ({"index": {"family": "poisson", "mean": [4]}}, "$.index"),
        ],
    )
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_wrongly_typed_value_is_config_error(self, tmp_path, capsys, doc, path, dry_run):
        cfg = write_config(tmp_path, {"grids": {"n": [4]}, **doc})
        code = main(["conditions", "--config", cfg, *(["--dry-run"] if dry_run else [])])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: {path}: wrongly typed value" in err
        assert "Traceback" not in err

    def test_invalid_row_is_numeric_failure(self, monkeypatch, capsys):
        def raise_invalid_row(*args):
            raise InvalidRowError("row n=4 of 'array' violates array conditions")

        monkeypatch.setattr("randsum.cli._counterexample_findings", raise_invalid_row)
        code = main(["counterexample"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err and "config error" not in err

    def test_moment_mismatch_is_numeric_failure(self, monkeypatch, capsys):
        def raise_moment_mismatch(*args):
            # the means differ by 1, so zeta_2 has no iterated-integral form
            return zeta(Normal(0.0, 1.0), Normal(1.0, 1.0), 2)

        monkeypatch.setattr("randsum.cli._counterexample_findings", raise_moment_mismatch)
        code = main(["counterexample"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err and "moment of order 1" in err


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchmarkTracer:
    """The benchmark's tracer patches names of the program; they must stay."""

    CONFIGS = {
        "conditions": {
            "array": {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
            "index": {"family": "poisson", "mean": "n"},
            "grids": {"n": [4, 8], "epsilon": [0.5], "delta": [1.0]},
            "outputs": {"format": "json"},
        },
        "distances": {
            "array": {"array": "shiryaev"},
            "index": {"family": "poisson", "mean": "n"},
            "grids": {"n": [4, 8]},
            "monte_carlo": {"M": 2000, "seed": 3},
            "distances": {"metrics": ["kolmogorov_row", "delta_mixture", "empirical_delta"]},
            "outputs": {"format": "json"},
        },
    }

    def run_both(self, tmp_path, out):
        written = {}
        for command, doc in self.CONFIGS.items():
            cfg = write_config(tmp_path, doc, f"{command}.json")
            target = tmp_path / out / command
            assert main([command, "--config", cfg, "--out", str(target)]) == EXIT_OK
            written[command] = {p.name: p.read_bytes() for p in target.iterdir()}
        return written

    def test_traced_run_writes_the_same_bytes_and_every_metric(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        plain = self.run_both(tmp_path, "plain")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            since = tracer.mark()
            traced = self.run_both(tmp_path, "traced")
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(since, tracer.entries_cached())
        sys.modules.pop("tracing", None)

        assert traced == plain
        # the distances table looks its functions up when called, so the
        # module wrappers see the calls
        assert "metrics.delta_mixture" in {span[0] for span in tracer.spans[since[0]:]}
        declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
        assert set(metrics) == {m["name"] for m in declared if not m["name"].startswith("bench.")}
        assert set(tracing.SELF_TIME) | set(tracing.SPAN_COUNT) <= set(metrics)
        assert metrics["cli.output_bytes"] == sum(
            len(data) for files in plain.values() for data in files.values()
        )
        for name in ("distributions.quad_calls", "distributions.draws", "arrays.validate_calls",
                     "conditions.report_calls", "conditions.randomized_calls",
                     "metrics.kolmogorov_calls", "metrics.atoms_max"):
            assert metrics[name] > 0, name
