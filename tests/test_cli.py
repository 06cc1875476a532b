import json
from dataclasses import replace

import pytest

from ftflow import cli
from ftflow.cli import main
from ftflow.experiments import preset


def invoke(args):
    return main(args)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict parsers do."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert invoke([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert invoke(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert invoke(["run", "--bogus", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "sources",
        [["--config", "cfg.json", "--preset", "fig2-p2"], ["--preset", "fig2-p2", "--objective", "ppower"]],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_sources_are_exclusive(self, capsys, command, sources):
        assert invoke([command, *sources]) == 1
        assert "not allowed with" in capsys.readouterr().err


class TestRun:
    def test_run_preset(self, tmp_path, capsys):
        code = invoke(["run", "--preset", "fig2-p2", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "settled_at" in out
        csv = tmp_path / "fig2-p2.csv"
        assert csv.exists()
        assert csv.read_text().startswith("t,theta_0,theta_1,v_0,v_1,f,V,Vdot,znorm")
        summary = json.loads((tmp_path / "fig2-p2.summary.json").read_text())
        assert summary["settled_at"] == pytest.approx(2.5, abs=1e-4)

    def test_run_with_flags(self, tmp_path, capsys):
        code = invoke(
            [
                "run",
                "--objective",
                "ppower",
                "--p",
                "2",
                "--alpha",
                "-0.8",
                "--t-max",
                "10",
                "--output-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "ppower.csv").exists()

    def test_flag_overrides_preset(self, tmp_path, capsys):
        code = invoke(
            [
                "run",
                "--preset",
                "fig2-p2",
                "--alpha",
                "-0.4",
                "--output-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        summary = json.loads((tmp_path / "fig2-p2.summary.json").read_text())
        # alpha = -0.4 reaches the origin at t = 5 on this objective; the
        # tolerance threshold is crossed just before that
        assert summary["settled_at"] == pytest.approx(5.0, abs=5e-3)

    def test_flags_apply_over_a_preset(self, tmp_path, capsys):
        args = ["run", "--preset", "fig2-p2", "--theta0", "0.5", "0", "--output-dir", str(tmp_path)]
        assert invoke(args) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "fig2-p2.summary.json").read_text())
        # alpha = -0.8 on f = |theta|^2 / 2 from |theta0| = r settles at 2.5 r^0.8
        assert summary["settled_at"] == pytest.approx(2.5 * 0.5**0.8, abs=1e-4)

    def test_sweep_preset_is_refused(self, tmp_path, capsys):
        assert invoke(["run", "--preset", "fig1-left", "--output-dir", str(tmp_path)]) == 2
        assert "ftflow sweep" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_run_from_config_file(self, tmp_path, capsys):
        from ftflow.experiments import preset

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset("fig2-p2").to_dict()))
        code = invoke(
            ["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]
        )
        capsys.readouterr()
        assert code == 0

    def test_unknown_objective_is_config_error(self, tmp_path, capsys):
        code = invoke(
            ["run", "--objective", "nope", "--output-dir", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 2

    def test_unknown_integrator_key_is_config_error(self, tmp_path, capsys):
        d = preset("fig2-p2").to_dict()
        d["integrator"]["rtol"] = 1e-8
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        code = invoke(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "unknown integrator keys ['rtol']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [("top", "v_0"), ("flow", "gama"), ("objective", "parms"), ("params", "dimm")],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, section, key):
        d = preset("fig2-p2").to_dict()
        sections = {"top": d, "flow": d["flow"], "objective": d["objective"]}
        sections["params"] = d["objective"]["params"]
        sections[section][key] = 1.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        code = invoke(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ((), [1, 2], "config must be an object"),
            (("flow",), [0.5], "flow must be an object"),
            (("integrator",), [1e-8], "integrator must be an object"),
            (("objective",), "ppower", "objective must be an object"),
            (("objective", "params"), [2.0], "objective params must be an object"),
            (("objective", "name"), 5, "unknown objective 5"),
            (("theta0",), 5, "theta0 must be an array"),
            (("sweep",), [[1]], "sweep override must be an object"),
            (("schema_version",), None, "schema_version must be a number, got NoneType"),
            (("flow", "alpha"), None, "flow alpha must be a number, got NoneType"),
            (("integrator", "t_max"), "50", "integrator t_max must be a number, got str"),
            (("objective", "params", "p"), None, "ppower param p must be a number, got NoneType"),
            (("objective", "params", "dim"), "2", "ppower param dim must be a number, got str"),
            (("label",), [1], "label must be a string, got list"),
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--alpha", "-0.3"]])
    def test_section_of_the_wrong_type_is_config_error(
        self, tmp_path, capsys, path, value, message, flags
    ):
        d = preset("fig2-p2").to_dict()
        if path:
            parent = d
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            d = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        code = invoke(["run", "--config", str(cfg_path), *flags, "--output-dir", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label", ["../escaped", "", "a/b", ".", "..", "a\\b", "a\0b"],
        ids=["parent", "empty", "subdir", "dot", "dotdot", "backslash", "nul"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_label_that_names_no_file_is_refused_before_integrating(
        self, tmp_path, capsys, monkeypatch, label, command
    ):
        def integrate(*args):
            raise AssertionError("integrated a config with a bad label")

        monkeypatch.setattr("ftflow.experiments.integrate", integrate)
        d = preset("fig2-p2").to_dict()
        if command == "sweep":
            d["sweep"] = [{"label": "fine"}, {"label": label}]
        else:
            d["label"] = label
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        code = invoke([command, "--config", str(cfg_path), "--output-dir", str(outdir)])
        assert code == 2
        assert f"label {label!r} must name a file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_start_reports_non_finite_in_standard_json(self, tmp_path, capsys):
        args = ["run", "--objective", "ppower", "--theta0", "1e200", "0"]
        assert invoke([*args, "--output-dir", str(tmp_path)]) == 0
        assert "final f-gap -" in capsys.readouterr().out
        summary = strict_json((tmp_path / "ppower.summary.json").read_text())
        assert summary["terminated_reason"] == "non_finite"
        assert summary["final_f_gap"] is None and summary["final_state_error"] is None

    @pytest.mark.parametrize("key", ["objective", "theta0", "flow"])
    @pytest.mark.parametrize("flags", [[], ["--alpha", "-0.3"]])
    def test_missing_section_is_named(self, tmp_path, capsys, key, flags):
        d = preset("fig2-p2").to_dict()
        del d[key]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        code = invoke(["run", "--config", str(cfg_path), *flags, "--output-dir", str(tmp_path)])
        assert code == 2
        assert f"error: config is missing '{key}'\n" in capsys.readouterr().err

    def test_infinite_kappa_is_config_error(self, tmp_path, capsys):
        code = invoke(["run", "--preset", "fig2-p2", "--kappa", "inf", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "kappa must be positive and finite" in capsys.readouterr().err

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = invoke(
            ["run", "--config", str(tmp_path / "absent.json"), "--output-dir", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 2


class TestSweep:
    def test_sweep_preset(self, tmp_path, capsys):
        code = invoke(["sweep", "--preset", "fig2", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 members" in out
        combined = json.loads((tmp_path / "fig2.sweep.json").read_text())
        assert [m["label"] for m in combined] == ["fig2-p1.5", "fig2-p2", "fig2-p3"]
        for member in combined:
            assert (tmp_path / f"{member['label']}.csv").exists()

    @pytest.mark.parametrize("name, flag", [("fig1-left", ["--alpha", "-0.3"]), ("fig2", ["--p", "3"])])
    def test_flag_on_a_member_override_is_refused(self, tmp_path, capsys, name, flag):
        # applied, it would leave labels such as fig1-left-a025 naming a value not run
        assert invoke(["sweep", "--preset", name, *flag, "--output-dir", str(tmp_path)]) == 2
        assert f"['{flag[0][2:]}']" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_flag_the_members_do_not_override_applies_to_all(self, tmp_path, capsys):
        args = ["sweep", "--preset", "fig1-left", "--beta", "0.7", "--output-dir", str(tmp_path)]
        assert invoke(args) == 0
        assert "3 members" in capsys.readouterr().out
        combined = json.loads((tmp_path / "fig1-left.sweep.json").read_text())
        assert [m["label"] for m in combined] == ["fig1-left-a025", "fig1-left-a05", "fig1-left-a075"]
        assert all(m["error"] is None for m in combined)

    @pytest.mark.parametrize(
        "override, code",
        # ObjectiveError; IntegrationError (theta0 has dim 2); ObjectiveError
        [({"p": 0.5}, 2), ({"dim": 3}, 3), ({"dim": 2.5}, 2)],
    )
    def test_failing_member_keeps_the_others(self, tmp_path, capsys, override, code):
        cfg = replace(
            preset("fig2"),
            sweep=(
                {"objective_params": {"p": 2.0}, "label": "good"},
                {"objective_params": override, "label": "bad"},
                {"objective_params": {"p": 3.0}, "label": "after"},
            ),
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert invoke(["sweep", "--config", str(path), "--output-dir", str(tmp_path)]) == code
        captured = capsys.readouterr()
        assert "3 members, 2 settled" in captured.out
        assert captured.err.startswith("error: ")
        combined = strict_json((tmp_path / "fig2.sweep.json").read_text())
        assert [m["label"] for m in combined] == ["good", "bad", "after"]
        assert [m["error"] is None for m in combined] == [True, False, True]
        assert strict_json((tmp_path / "bad.summary.json").read_text()) == combined[1]
        assert combined[1]["final_f_gap"] is None and combined[1]["final_state_error"] is None
        assert not (tmp_path / "bad.csv").exists()
        for label in ("good", "after"):
            assert (tmp_path / f"{label}.csv").exists()
            assert (tmp_path / f"{label}.summary.json").exists()


class TestCertify:
    def test_certified_configuration(self, tmp_path, capsys):
        code = invoke(
            [
                "certify",
                "--objective",
                "ppower",
                "--p",
                "3",
                "--alpha",
                "-0.8",
                "--beta",
                "0.5",
                "--gamma",
                "0.5",
                "--kappa",
                "1",
                "--output-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "certified" in out
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["admissibility"]["verdict"] == "certified"
        assert payload["schur"]

    def test_not_certified_configuration(self, tmp_path, capsys):
        code = invoke(
            [
                "certify",
                "--objective",
                "ppower",
                "--p",
                "3",
                "--alpha",
                "-0.5",
                "--output-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads((tmp_path / "certify.json").read_text())
        assert payload["admissibility"]["verdict"] == "not_certified"

    def test_agrees_with_run(self, tmp_path, capsys):
        # near alpha's admissible bound the verdict depends on the sampled
        # dominance order p, so both commands must draw the same samples
        flow = ["--objective", "rosenbrock", "--alpha", "-0.01", "--output-dir", str(tmp_path)]
        assert invoke(["certify", *flow]) == 0
        assert invoke(["run", *flow, "--t-max", "1"]) == 0
        capsys.readouterr()
        certified = json.loads((tmp_path / "certify.json").read_text())["admissibility"]
        summary = json.loads((tmp_path / "rosenbrock.summary.json").read_text())
        assert summary["admissibility"] == certified
        assert certified["verdict"] == "certified"


class TestGradcheckAndLemma:
    def test_gradcheck(self, tmp_path, capsys):
        code = invoke(
            [
                "gradcheck",
                "--objective",
                "rosenbrock",
                "--samples",
                "50",
                "--output-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        payload = json.loads((tmp_path / "gradcheck.json").read_text())
        assert payload["pass"] is True

    def test_failed_gradcheck_is_its_own_runtime_error(self, tmp_path, capsys, monkeypatch):
        # finite differences that disagree with every analytic gradient
        monkeypatch.setattr(cli, "fd_gradient", lambda obj, theta, h: obj.grad(theta) + 1.0)
        argv = ["gradcheck", "--objective", "rosenbrock", "--samples", "5"]
        argv += ["--output-dir", str(tmp_path)]
        with pytest.raises(cli.GradientCheckError, match="gradient check failed"):
            cli._cmd_gradcheck(cli._build_parser().parse_args(argv))
        assert invoke(argv) == 3
        assert "gradient check failed" in capsys.readouterr().err
        assert json.loads((tmp_path / "gradcheck.json").read_text())["pass"] is False

    def test_verify_lemma1_pass(self, capsys):
        code = invoke(["verify-lemma1", "--a", "2", "--delta", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no violation" in out

    def test_verify_lemma1_bad_input_is_runtime_error(self, capsys):
        code = invoke(["verify-lemma1", "--a", "0.5", "--delta", "1"])
        capsys.readouterr()
        assert code == 3


class TestRepro:
    def test_repro_fig2(self, tmp_path, capsys):
        code = invoke(["repro", "fig2", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "settling times" in out
        assert (tmp_path / "fig2.sweep.json").exists()

    def test_repro_requires_known_figure(self, capsys):
        assert invoke(["repro", "fig9"]) == 1
        capsys.readouterr()
