import io
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from ftflow.experiments import (
    CSV_BLOCK_ROWS,
    DOMINANCE_SEED,
    FLOW_DEFAULTS,
    PRESET_NAMES,
    SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentError,
    config_from_dict,
    expand,
    export_trajectory,
    flow_from_dict,
    load_config,
    preset,
    read_trajectory_csv,
    run,
    sweep,
    write_summary,
)
from ftflow.flow import FlowParams
from ftflow.integrate import IntegratorConfig, Trajectory

FAST = IntegratorConfig(
    rel_tol=1e-10, abs_tol=1e-13, t_max=50.0, settle_tol=1e-9, record_stride=0.02
)

PPOWER_CFG = ExperimentConfig(
    objective_name="ppower",
    objective_params={"p": 2.0, "dim": 2},
    theta0=(1.0, 0.0),
    flow=FlowParams(alpha=-0.8, beta=0.5, gamma=0.5, kappa=1.0),
    integrator=FAST,
    label="unit",
)


class TestConfig:
    def test_round_trip_through_dict(self):
        cfg = PPOWER_CFG
        again = config_from_dict(cfg.to_dict())
        assert again.objective_name == cfg.objective_name
        assert again.flow == cfg.flow
        assert again.theta0 == cfg.theta0
        assert again.integrator.settle_tol == cfg.integrator.settle_tol
        assert again.label == cfg.label

    def test_every_integrator_field_round_trips(self):
        integrator = IntegratorConfig(
            rel_tol=1e-9,
            abs_tol=1e-11,
            t_max=20.0,
            settle_tol=1e-8,
            record_stride=0.01,
        )
        for f in fields(IntegratorConfig):
            assert getattr(integrator, f.name) != f.default, f.name
        cfg = replace(PPOWER_CFG, integrator=integrator)
        again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.integrator == integrator

    def test_v0_round_trips_to_the_identical_run(self):
        cfg = replace(preset("fig2-p2"), v0=(0.0, 0.5))
        again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        (traj, summary), (traj_again, _) = run(cfg), run(again)
        assert traj.states.tobytes() == traj_again.states.tobytes()
        assert traj.states[0].tolist() == [1.0, 0.0, 0.0, 0.5]
        assert summary.settled_at == 2.7334050270573003
        assert len(traj.times) == 224

    @pytest.mark.parametrize("key", ["initial_step", "min_step", "max_step", "singular_tol"])
    def test_removed_integrator_key_is_config_error(self, key):
        # configs written when IntegratorConfig had these fields carry them
        d = PPOWER_CFG.to_dict()
        d["integrator"][key] = 1.0
        with pytest.raises(ExperimentError, match=key):
            config_from_dict(d)

    @pytest.mark.parametrize("section", ["flow", "integrator", "objective", "v0"])
    def test_section_of_the_wrong_type_is_config_error(self, section):
        d = PPOWER_CFG.to_dict()
        d[section] = 1.0
        with pytest.raises(ExperimentError, match=f"{section} must be an"):
            config_from_dict(d)
        with pytest.raises(ExperimentError, match="config must be an object"):
            config_from_dict([d])

    def test_flow_defaults(self):
        assert flow_from_dict({}) == FlowParams(**FLOW_DEFAULTS)
        assert flow_from_dict({"beta": 1.0, "gamma": 1.0}).conservative

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(PPOWER_CFG.to_dict()))
        assert load_config(path).label == "unit"

    @pytest.mark.parametrize(
        "section, key", [(None, "objective"), (None, "theta0"), (None, "flow"), ("objective", "name")]
    )
    def test_missing_section_is_named(self, section, key):
        d = PPOWER_CFG.to_dict()
        del (d[section] if section else d)[key]
        with pytest.raises(ExperimentError, match=f"^{section or 'config'} is missing '{key}'$"):
            config_from_dict(d)

    @pytest.mark.parametrize("label", [[1], 1, None])
    def test_label_of_the_wrong_type_is_config_error(self, label):
        d = PPOWER_CFG.to_dict()
        d["label"] = label
        with pytest.raises(ExperimentError, match="label must be a string"):
            config_from_dict(d)
        base = PPOWER_CFG.to_dict()
        base["sweep"] = [{"label": label}]
        with pytest.raises(ExperimentError, match="label must be a string"):
            expand(config_from_dict(base))

    def test_schema_version_guard(self):
        d = PPOWER_CFG.to_dict()
        d["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ExperimentError):
            config_from_dict(d)

    @pytest.mark.parametrize("version", [1, 1.0])
    def test_schema_version_equal_to_the_current_one_is_read(self, version):
        d = PPOWER_CFG.to_dict()
        d["schema_version"] = version
        assert config_from_dict(json.loads(json.dumps(d))) == PPOWER_CFG

    def test_initial_state_defaults_to_zero_momentum(self):
        state = PPOWER_CFG.initial_state()
        np.testing.assert_allclose(state.v, 0.0)


class TestExpand:
    def test_flow_and_label_overrides(self):
        cfg = ExperimentConfig(
            objective_name="ppower",
            objective_params={"p": 2.0},
            theta0=(1.0, 0.0),
            flow=FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0),
            sweep=({"alpha": -0.25, "label": "a"}, {"alpha": -0.75},),
            label="base",
        )
        members = expand(cfg)
        assert [m.label for m in members] == ["a", "base-1"]
        assert members[0].flow.alpha == -0.25
        assert members[1].flow.alpha == -0.75
        assert all(m.sweep == () for m in members)

    def test_objective_params_override(self):
        members = expand(preset("fig2"))
        assert [m.objective_params["p"] for m in members] == [1.5, 2.0, 3.0]

    def test_unknown_override_key(self):
        cfg = ExperimentConfig(
            objective_name="ppower",
            theta0=(1.0, 0.0),
            flow=FlowParams(alpha=-0.5, beta=0.5, gamma=0.5, kappa=1.0),
            sweep=({"bogus": 1.0},),
        )
        with pytest.raises(ExperimentError):
            expand(cfg)

    def test_empty_sweep(self):
        with pytest.raises(ExperimentError):
            expand(PPOWER_CFG)

    def test_member_preset_is_refused(self):
        # no CLI path reaches this refusal: `sweep` runs such a config as its own member
        with pytest.raises(ExperimentError, match="^config has no sweep overrides$"):
            expand(preset("fig2-p2"))


class TestRun:
    def test_run_summary_and_certificate(self):
        traj, summary = run(PPOWER_CFG)
        assert summary.label == "unit"
        assert summary.terminated_reason == "settled"
        assert summary.settled_at == pytest.approx(2.5, abs=1e-5)
        assert summary.final_f_gap <= 1e-15
        assert summary.final_state_error <= 1e-9
        assert summary.certificate is not None
        assert summary.certificate.a == pytest.approx(0.6, abs=0.05)
        assert summary.admissibility is not None
        assert summary.admissibility.verdict == "certified"
        assert summary.dominance_seed == DOMINANCE_SEED
        assert len(traj) > 10

    def test_summary_serializes(self, tmp_path):
        _, summary = run(PPOWER_CFG)
        path = tmp_path / "summary.json"
        write_summary(summary, path)
        loaded = json.loads(path.read_text())
        assert loaded["label"] == "unit"
        assert loaded["certificate"]["a"] == pytest.approx(0.6, abs=0.05)

    def test_missing_certificate_and_verdict_say_why(self, monkeypatch):
        _, summary = run(preset("conservative"))
        assert summary.certificate is None
        assert summary.certificate_error
        assert summary.admissibility_error is None

        def broken(*args, **kwargs):
            raise RuntimeError("no dominance estimate")

        monkeypatch.setattr("ftflow.experiments.estimate_dominance", broken)
        _, summary = run(PPOWER_CFG)
        assert summary.admissibility is None
        assert summary.admissibility_error == "RuntimeError: no dominance estimate"
        assert summary.certificate is not None and summary.certificate_error is None

    def test_sweep_captures_member_errors(self, tmp_path):
        cfg = ExperimentConfig(
            objective_name="ppower",
            objective_params={"p": 2.0, "dim": 2},
            theta0=(1.0, 0.0),
            flow=FlowParams(alpha=-0.8, beta=0.5, gamma=0.5, kappa=1.0),
            integrator=FAST,
            sweep=(
                {"label": "good"},
                {"objective_params": {"p": 0.5}, "label": "bad"},
            ),
            label="mixed",
        )
        summaries = list(sweep(cfg, outdir=tmp_path))
        assert [s.label for s in summaries] == ["good", "bad"]
        assert summaries[0].error is None
        assert summaries[0].settled_at is not None
        assert summaries[1].error is not None
        assert summaries[1].terminated_reason == "error"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.csv"]

    def test_theta0_of_the_wrong_length_is_config_error(self, tmp_path):
        cfg = replace(PPOWER_CFG, objective_params={"p": 2.0, "dim": 3})
        message = "theta0 has 2 entries, the objective's dim is 3"
        with pytest.raises(ExperimentError, match=f"^{message}$"):
            run(cfg)
        # a sweep member reports it in its summary
        (summary,) = sweep(replace(cfg, sweep=({"label": "short"},)), outdir=tmp_path)
        assert summary.error == f"ExperimentError: {message}"
        assert not list(tmp_path.iterdir())

    def test_pooled_sweep_matches_in_process_runs(self, tmp_path):
        # three members: on more than one usable CPU they go through the pool
        cfg = preset("fig2")
        summaries = list(sweep(cfg, outdir=tmp_path))
        assert len(summaries) == len(expand(cfg))
        for summary, member in zip(summaries, expand(cfg)):
            assert summary == run(member)[1]


class TestCsv:
    def test_header_and_round_trip(self, tmp_path):
        traj, _ = run(PPOWER_CFG)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        first_line = path.read_text().split("\n", 1)[0]
        assert first_line == "t,theta_0,theta_1,v_0,v_1,f,V,Vdot,znorm"
        cols = read_trajectory_csv(path)
        np.testing.assert_array_equal(cols["t"], traj.times)
        np.testing.assert_array_equal(cols["theta_0"], traj.thetas[:, 0])
        np.testing.assert_array_equal(cols["v_1"], traj.vs[:, 1])
        np.testing.assert_array_equal(cols["V"], traj.V)
        np.testing.assert_array_equal(cols["Vdot"], traj.Vdot)
        np.testing.assert_array_equal(cols["znorm"], traj.z_norm)

    def test_export_to_stream(self):
        traj, _ = run(PPOWER_CFG)
        buf = io.StringIO()
        export_trajectory(traj, buf)
        assert buf.getvalue().startswith("t,theta_0")

    def test_many_blocks_round_trip_bit_exact(self, tmp_path):
        traj = random_trajectory(CSV_BLOCK_ROWS * 2 + 77)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        buf = io.StringIO()
        export_trajectory(traj, buf)
        assert buf.getvalue() == path.read_text()
        cols = read_trajectory_csv(path)
        table = np.column_stack(
            (traj.times, traj.states, traj.f, traj.V, traj.Vdot, traj.z_norm)
        )
        assert np.column_stack(list(cols.values())).tobytes() == table.tobytes()

    def test_export_never_holds_the_whole_text(self, tmp_path):
        traj = random_trajectory(6000)
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            export_trajectory(traj, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


def random_trajectory(rows, n=2):
    """A trajectory of `rows` samples with values of every magnitude and
    both signed zeros."""
    rng = np.random.default_rng(rows)
    shape = (rows, 2 * n + 5)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    table[::7, 1], table[::11, 2] = 0.0, -0.0
    return Trajectory(
        times=table[:, 0].copy(),
        states=table[:, 1 : 2 * n + 1].copy(),
        dim=n,
        f=table[:, -4].copy(),
        V=table[:, -3].copy(),
        Vdot=table[:, -2].copy(),
        z_norm=table[:, -1].copy(),
        energy=None,
        settled_at=None,
        terminated_reason="horizon",
    )


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_load(self, name):
        cfg = preset(name)
        assert cfg.label == name
        cfg.objective()  # objective params must be constructible

    def test_fig1_left_members(self):
        members = expand(preset("fig1-left"))
        assert [m.flow.alpha for m in members] == [-0.25, -0.5, -0.75]

    def test_fig1_right_members(self):
        members = expand(preset("fig1-right"))
        structures = [(m.flow.beta, m.flow.gamma) for m in members]
        assert (1.0, 0.5) in structures and (0.5, 1.0) in structures

    def test_conservative_preset(self):
        cfg = preset("conservative")
        assert cfg.flow.conservative

    def test_unknown_preset(self):
        with pytest.raises(ExperimentError):
            preset("fig3")

    def test_lookup_returns_its_own_copy(self):
        preset("fig1-left").sweep[0]["alpha"] = -0.9
        preset("fig2").sweep[0]["objective_params"]["p"] = 9.0
        preset("fig2-p2").objective_params["p"] = 9.0
        assert preset("fig1-left-a025").flow.alpha == -0.25
        assert [m.objective_params["p"] for m in expand(preset("fig2"))] == [1.5, 2.0, 3.0]
        members = (preset(f"fig2-p{p}") for p in ("1.5", "2", "3"))
        assert [m.objective_params["p"] for m in members] == [1.5, 2.0, 3.0]
        for name in PRESET_NAMES:
            assert config_from_dict(preset(name).to_dict()) == preset(name)
