import pytest

from specgap import cli, ipeps, oracle
from specgap.cli import (
    EXIT_NO_WINDOW,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    parse_config_file,
)


def summary_dict(path):
    return dict(
        line.split("=", 1) for line in path.read_text().splitlines()
    )


class TestConfig:
    def test_file_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = tfim2d\nJ = 0.1\nD = 3  # comment\n")
        values = parse_config_file(str(cfg))
        assert values == {"model": "tfim2d", "J": "0.1", "D": "3"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = tfim2d\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_config_file(str(cfg))

    def test_unknown_model_usage_error(self, tmp_path):
        code = main(["run", "--model", "nonsense", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_invalid_schedule_usage_error(self, tmp_path):
        # default tau_max (32) below dtau: rejected by the schedule check
        code = main(["run", "--model", "tfim2d", "--dtau", "40",
                     "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert not (tmp_path / "tfim2d_summary.txt").exists()

    def test_vanishing_couplings_usage_error(self, tmp_path):
        code = main(["run", "--model", "tfim2d", "--J", "0", "--g", "0",
                     "--tau_max", "0.4", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert not (tmp_path / "tfim2d_summary.txt").exists()

    @pytest.mark.parametrize("model", ["tfim2d", "tfim3d", "haldane",
                                       "oracle-random"])
    def test_negative_seed_usage_error(self, tmp_path, model):
        code = main(["run", "--model", model, "--seed", "-1",
                     "--tau_max", "0.4", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert not (tmp_path / f"{model}_summary.txt").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("field, value",
                             [("J", "0.3"), ("g", "0.5"), ("scheme", "gates")])
    @pytest.mark.parametrize("model", ["haldane", "oracle-random"])
    def test_unread_field_usage_error(self, tmp_path, model, field, value,
                                      source):
        args = ["run", "--model", model, "--D", "4", "--tau_max", "0.4",
                "--outdir", str(tmp_path)]
        if source == "flag":
            args += [f"--{field}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{field} = {value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_USAGE
        assert not (tmp_path / f"{model}_summary.txt").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("field, value",
                             [("dtau", "-0.1"), ("D", "0"), ("tau_max", "0")])
    @pytest.mark.parametrize("model", ["tfim2d", "tfim3d", "haldane",
                                       "oracle-random"])
    def test_nonpositive_value_usage_error(self, tmp_path, model, field,
                                           value, source):
        # a non-positive value is an error, not a request for the default
        settings = {"D": "2", "tau_max": "0.4", field: value}
        if source == "flag":
            args = [a for k, v in settings.items() for a in (f"--{k}", v)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
            args = ["--config", str(cfg)]
        code = main(["run", "--model", model, "--outdir", str(tmp_path)] + args)
        assert code == EXIT_USAGE
        assert not (tmp_path / f"{model}_summary.txt").exists()

    @pytest.mark.parametrize("flag, value", [
        ("dtau", "nan"), ("tau_max", "inf"), ("J", "nan"), ("g", "inf"),
    ])
    def test_non_finite_value_usage_error(self, tmp_path, capsys, flag, value):
        # rejected before any evolution runs, not a numeric failure (exit 3)
        settings = {"D": "2", "tau_max": "0.4", flag: value}
        args = [a for k, v in settings.items() for a in (f"--{k}", v)]
        code = main(["run", "--model", "tfim2d", "--outdir", str(tmp_path)] + args)
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "tfim2d_summary.txt").exists()

    @pytest.mark.parametrize("tag", ["sub/t", "."])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_path_tag_usage_error(self, tmp_path, monkeypatch, command, tag):
        def never(*args, **kwargs):
            raise AssertionError("evolution started")

        monkeypatch.setattr(cli, "run_evolution_peps", never)
        argv = [command, "--model", "tfim2d", "--D", "2", "--tau_max", "0.4",
                "--outdir", str(tmp_path / "out"), "--tag", tag]
        if command == "sweep":
            argv += ["--param", "J", "--values", "0.1,0.2"]
        assert main(argv) == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--bogus", "1"],
        ["run", "--D", "abc"],
        ["sweep", "--model", "tfim2d"],
        ["run", "--measure_every", "2"],
    ])
    def test_argument_error_is_usage_error(self, tmp_path, argv):
        # exit 2 means "no linear window"; a bad command line is a usage error
        code = main(argv + ["--tau_max", "0.4", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0

    def test_scheme_defaults_resolved(self):
        cfg = RunConfig(model="tfim2d", scheme="gates").resolve()
        assert cfg.dtau == 0.05
        cfg = RunConfig(model="tfim2d", scheme="mpo").resolve()
        assert cfg.dtau == 0.2


class TestRun:
    def test_field_only_run_writes_outputs(self, tmp_path):
        code = main([
            "run", "--model", "tfim2d", "--J", "0", "--g", "1",
            "--D", "2", "--dtau", "0.05", "--tau_max", "16",
            "--outdir", str(tmp_path), "--tag", "j0",
        ])
        assert code == EXIT_OK
        trace = (tmp_path / "j0_trace.csv").read_text().splitlines()
        assert trace[0] == "tau,C"
        assert len(trace) > 50
        deriv = (tmp_path / "j0_deriv.csv").read_text().splitlines()
        assert deriv[0] == "tau,dCdtau"
        summary = summary_dict(tmp_path / "j0_summary.txt")
        assert abs(float(summary["gap"]) - 2.0) < 1e-3
        # the exact line stays in one window up to tau_max
        assert float(summary["window_hi"]) == 16.0
        assert summary["window_open"] == "1"
        # the echoed config carries every resolved default
        assert summary["cfg_model"] == "tfim2d"
        assert summary["cfg_J"] == "0.0"
        assert summary["cfg_scheme"] == "mpo"
        assert summary["cfg_dtau"] == "0.05"
        assert summary["cfg_seed"] == "0"

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "run", "--model", "tfim2d", "--J", "0.2", "--g", "1",
            "--D", "2", "--dtau", "0.2", "--tau_max", "6",
            "--seed", "5", "--tag", "rep",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(a)]) == EXIT_OK
        assert main(args + ["--outdir", str(b)]) == EXIT_OK
        assert (a / "rep_trace.csv").read_bytes() == (b / "rep_trace.csv").read_bytes()
        assert (a / "rep_deriv.csv").read_bytes() == (b / "rep_deriv.csv").read_bytes()

    @pytest.mark.parametrize("failure", ["numeric", "usage"])
    def test_failed_rerun_leaves_no_stale_files(self, tmp_path, monkeypatch,
                                                failure):
        # a rerun of a tag that fails once its config resolves must not
        # leave the earlier run's files behind as if they were its result
        args = ["run", "--model", "tfim2d", "--D", "2", "--tau_max", "6",
                "--seed", "5", "--outdir", str(tmp_path), "--tag", "rerun"]
        assert main(args) == EXIT_OK
        files = [tmp_path / f"rerun{suffix}"
                 for suffix in ("_trace.csv", "_deriv.csv", "_summary.txt")]
        assert all(f.exists() for f in files)
        if failure == "numeric":
            def broken(*_args, **_kwargs):
                raise RuntimeError("bond environment collapsed to zero")

            monkeypatch.setattr(ipeps, "apply_axis_mpo", broken)
            expected = EXIT_NUMERIC
        else:
            # a step longer than the run: the schedule rejects it
            args += ["--dtau", "40"]
            expected = EXIT_USAGE
        assert main(args) == expected
        assert not any(f.exists() for f in files)

    def test_run_stops_once_its_window_closed(self, tmp_path):
        code = main([
            "run", "--model", "tfim2d", "--J", "0.2", "--g", "1",
            "--D", "2", "--dtau", "0.2", "--tau_max", "32",
            "--outdir", str(tmp_path), "--tag", "d2",
        ])
        assert code == EXIT_OK
        summary = summary_dict(tmp_path / "d2_summary.txt")
        assert int(summary["n_samples"]) < 161
        assert summary["window_open"] == "0"

    def test_no_window_exit_code(self, tmp_path):
        code = main([
            "run", "--model", "tfim2d", "--J", "0.2", "--g", "1",
            "--D", "2", "--dtau", "0.2", "--tau_max", "1.0",
            "--outdir", str(tmp_path), "--tag", "short",
        ])
        assert code == EXIT_NO_WINDOW
        assert summary_dict(tmp_path / "short_summary.txt")["window_open"] == "nan"

    def test_oracle_random_run(self, tmp_path):
        code = main([
            "run", "--model", "oracle-random", "--D", "10", "--seed", "3",
            "--dtau", "0.1", "--tau_max", "40",
            "--outdir", str(tmp_path), "--tag", "oracle",
        ])
        assert code == EXIT_OK
        summary = summary_dict(tmp_path / "oracle_summary.txt")
        gap = float(summary["gap"])
        exact = float(summary["info_exact_gap"])
        assert abs(gap - exact) < 5e-3 * exact
        # the dense oracle reads neither couplings nor a scheme
        for name in ("J", "g", "scheme"):
            assert f"cfg_{name}" not in summary

    def test_oracle_random_honours_D(self, tmp_path, monkeypatch):
        shapes = []
        decompose = oracle.spectral_decompose

        def recording(h):
            shapes.append(h.shape)
            return decompose(h)

        monkeypatch.setattr(oracle, "spectral_decompose", recording)
        code = main([
            "run", "--model", "oracle-random", "--D", "2", "--dtau", "0.1",
            "--tau_max", "30", "--outdir", str(tmp_path), "--tag", "two",
        ])
        assert code == EXIT_OK
        assert shapes == [(2, 2)]
        summary = summary_dict(tmp_path / "two_summary.txt")
        assert summary["cfg_D"] == "2"

    def test_oracle_random_D1_usage_error(self, tmp_path):
        code = main([
            "run", "--model", "oracle-random", "--D", "1", "--dtau", "0.1",
            "--tau_max", "30", "--outdir", str(tmp_path), "--tag", "one",
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "one_summary.txt").exists()

    def test_oracle_random_above_cap_usage_error(self, tmp_path, monkeypatch):
        # a small cap stands in for the real one, which would allocate ~1 GB
        monkeypatch.setattr(oracle, "ORACLE_DIM_CAP", 8)
        code = main([
            "run", "--model", "oracle-random", "--D", "9", "--dtau", "0.1",
            "--tau_max", "30", "--outdir", str(tmp_path), "--tag", "big",
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "big_summary.txt").exists()

    def test_csv_rows_parse_as_floats(self, tmp_path):
        code = main([
            "run", "--model", "oracle-random", "--D", "10", "--seed", "3",
            "--dtau", "0.1", "--tau_max", "40",
            "--outdir", str(tmp_path), "--tag", "csv",
        ])
        assert code == EXIT_OK
        for name, header in (("csv_trace.csv", "tau,C"),
                             ("csv_deriv.csv", "tau,dCdtau")):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == header
            rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
            assert len(rows) > 50
            assert all(len(row) == 2 for row in rows)
            taus = [row[0] for row in rows]
            assert taus == sorted(taus)


class TestSweep:
    def test_single_point_grid_matches_run(self, tmp_path):
        base = [
            "--model", "tfim2d", "--J", "0", "--g", "1", "--D", "2",
            "--dtau", "0.05", "--tau_max", "16", "--outdir", str(tmp_path),
        ]
        assert main(["run"] + base + ["--tag", "single"]) == EXIT_OK
        assert main(
            ["sweep"] + base + ["--tag", "grid", "--param", "J", "--values", "0"]
        ) == EXIT_OK
        run_summary = summary_dict(tmp_path / "single_summary.txt")
        sweep_csv = (tmp_path / "grid_sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "param,gap,err,quality"
        assert sweep_csv[1].split(",")[1] == run_summary["gap"]

    def test_empty_grid_usage_error(self, tmp_path):
        code = main([
            "sweep", "--model", "tfim2d", "--outdir", str(tmp_path),
            "--param", "J", "--values", "",
        ])
        assert code == EXIT_USAGE

    def test_bad_param_usage_error(self, tmp_path):
        code = main([
            "sweep", "--model", "tfim2d", "--outdir", str(tmp_path),
            "--param", "seed", "--values", "1,2",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("model", ["haldane", "oracle-random"])
    @pytest.mark.parametrize("param", ["J", "g"])
    def test_coupling_sweep_on_fixed_model_usage_error(self, tmp_path, model,
                                                       param):
        code = main([
            "sweep", "--model", model, "--outdir", str(tmp_path),
            "--tag", "fixed", "--param", param, "--values", "0.1,0.2",
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "fixed_sweep.csv").exists()

    def test_values_that_share_a_tag_usage_error(self, tmp_path):
        # 0.2 and 0.2000001 both print as 0.2 under :g, so their points
        # would write the same files
        code = main([
            "sweep", "--model", "tfim2d", "--D", "2", "--tau_max", "0.6",
            "--outdir", str(tmp_path), "--tag", "clash",
            "--param", "J", "--values", "0.2,0.2000001",
        ])
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_failed_point_becomes_nan_row(self, tmp_path):
        # dtau 40 exceeds the default tau_max 32: the point is a usage error
        code = main([
            "sweep", "--model", "tfim2d", "--outdir", str(tmp_path),
            "--tag", "bad", "--param", "dtau", "--values", "40",
        ])
        assert code == EXIT_USAGE
        rows = (tmp_path / "bad_sweep.csv").read_text().splitlines()
        assert rows == ["param,gap,err,quality", "40.0,nan,nan,exit-1"]

    def test_failed_point_ignores_stale_summary(self, tmp_path):
        stale = tmp_path / "old_dtau40_summary.txt"
        stale.write_text("gap=1.23\nerr=0.01\nquality=clean\n")
        code = main([
            "sweep", "--model", "tfim2d", "--outdir", str(tmp_path),
            "--tag", "old", "--param", "dtau", "--values", "40",
        ])
        assert code == EXIT_USAGE
        assert not stale.exists()
        rows = (tmp_path / "old_sweep.csv").read_text().splitlines()
        assert rows[1] == "40.0,nan,nan,exit-1"

    def test_nonpositive_D_point_becomes_exit_1_row(self, tmp_path):
        # the usage error of D=0 outranks the no-window exit of D=2
        for values, rest in (("0", []), ("0,2", ["no-linear-window"])):
            outdir = tmp_path / f"grid{len(rest)}"
            code = main([
                "sweep", "--model", "tfim2d", "--tau_max", "0.4", "--outdir",
                str(outdir), "--tag", "d0", "--param", "D", "--values", values,
            ])
            assert code == EXIT_USAGE
            rows = (outdir / "d0_sweep.csv").read_text().splitlines()
            assert rows[:2] == ["param,gap,err,quality", "0.0,nan,nan,exit-1"]
            assert [row.split(",")[3] for row in rows[2:]] == rest
            assert not (outdir / "d0_D0_summary.txt").exists()

    def test_non_integer_D_usage_error(self, tmp_path):
        code = main([
            "sweep", "--model", "tfim2d", "--tau_max", "1", "--outdir",
            str(tmp_path), "--tag", "dd", "--param", "D", "--values", "2,2.5",
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "dd_sweep.csv").exists()
