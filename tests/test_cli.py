"""CLI subcommands, exit codes and config handling."""

import json

import pytest

from spheremin.cli import (
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_VERIFICATION,
    main,
)
from spheremin.families import FAMILIES


def family_args(name):
    """Flags selecting a valid instance of any table entry."""
    spec = FAMILIES[name]
    if spec.solver is None:
        return ["--family", name]
    return ["--family", name, "--k", "2", f"--{spec.input_param}", "0.5"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_vase(capsys):
    code, out, _ = run(
        ["solve", "--family", "vase", "--k", "2", "--a", "0.5"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["solved"]["parameter"] == "rho"
    assert payload["solved"]["value"] == pytest.approx(1.1094003924504583)
    assert not payload["solved"]["mismatch"]


def test_solve_double_vase_reference_value(capsys):
    code, out, _ = run(
        ["solve", "--family", "double_vase", "--k", "6", "--b", "0.25"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["solved"]["value"] - 3.97667) < 5e-6


def test_solve_catenoid_is_parameter_error(capsys):
    code, _, err = run(["solve", "--family", "catenoid"], capsys)
    assert code == EXIT_PARAMS
    assert "invalid parameters" in err


def test_missing_family_is_parameter_error(capsys):
    code, _, err = run(["solve", "--k", "2", "--a", "0.5"], capsys)
    assert code == EXIT_PARAMS


def test_invalid_domain_is_parameter_error(capsys):
    code, _, _ = run(
        ["solve", "--family", "vase", "--k", "2", "--a", "1.5"], capsys
    )
    assert code == EXIT_PARAMS


def test_verify_solved_vase_passes(capsys):
    code, out, _ = run(
        ["verify", "--family", "vase", "--k", "2", "--a", "0.5"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["failures"] == []
    assert all(p["closed"] for p in payload["period"]["punctures"])
    kinds = [e["kind"] for e in payload["ends"]]
    assert kinds.count("catenoid_non_vertical") == 2


def test_verify_rho_override_fails(capsys):
    code, out, _ = run(
        ["verify", "--family", "vase", "--k", "2", "--a", "0.5",
         "--rho", "1.0"],
        capsys,
    )
    assert code == EXIT_VERIFICATION
    payload = json.loads(out)
    assert not payload["passed"]
    assert any("period" in f for f in payload["failures"])


def test_verify_catenoid(capsys):
    code, out, _ = run(["verify", "--family", "catenoid"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["passed"]


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "vase", "k": 2, "a": 0.5}))
    code, out, _ = run(["solve", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["solved"]["parameter"] == "rho"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "vase", "k": 2, "a": 0.9}))
    code, out, _ = run(
        ["solve", "--config", str(cfg), "--a", "0.5"], capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["a"] == 0.5


def test_export_obj_with_sidecar(tmp_path, capsys):
    out_path = tmp_path / "cat.obj"
    code, out, _ = run(
        ["export", "--family", "catenoid", "--out", str(out_path),
         "--nr", "16", "--ntheta", "32"],
        capsys,
    )
    assert code == EXIT_OK
    assert out_path.exists()
    meta = json.loads((tmp_path / "cat.obj.json").read_text())
    assert meta["family"]["family"] == "catenoid"
    assert "median |H|" in out


def test_export_ply(tmp_path, capsys):
    out_path = tmp_path / "vase.ply"
    code, _, _ = run(
        ["export", "--family", "vase", "--k", "2", "--a", "0.5",
         "--format", "ply", "--out", str(out_path),
         "--nr", "16", "--ntheta", "32"],
        capsys,
    )
    assert code == EXIT_OK
    assert out_path.read_bytes().startswith(b"ply\n")


def test_export_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.obj", tmp_path / "b.obj"]
    for p in paths:
        code, _, _ = run(
            ["export", "--family", "catenoid", "--out", str(p),
             "--nr", "16", "--ntheta", "32"],
            capsys,
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["report", "--family", "vase", "--k-min", "2", "--k-max", "3",
         "--values", "0.3,0.5", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("family,k,param,")
    assert len(lines) == 5  # header + 2 k values x 2 params


def test_report_rejects_catenoid(capsys):
    code, _, _ = run(
        ["report", "--family", "catenoid", "--out", "/tmp/x.csv"], capsys
    )
    assert code == EXIT_PARAMS


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- every table entry ---------------------------------------------------


@pytest.mark.parametrize("name", list(FAMILIES))
def test_solve_each_family(name, capsys):
    code, out, err = run(["solve", *family_args(name)], capsys)
    spec = FAMILIES[name]
    if spec.solver is None:
        assert code == EXIT_PARAMS
        assert "nothing to solve" in err
        return
    assert code == EXIT_OK
    solved = json.loads(out)["solved"]
    assert solved["parameter"] == spec.solved_param
    assert not solved["mismatch"]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_verify_each_family(name, capsys):
    code, out, _ = run(["verify", *family_args(name)], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["tolerance"] == FAMILIES[name].period_tol


@pytest.mark.parametrize("fmt", ["obj", "ply"])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_export_each_family(name, fmt, tmp_path, capsys):
    out_path = tmp_path / f"mesh.{fmt}"
    code, out, _ = run(
        ["export", *family_args(name), "--format", fmt, "--out", str(out_path),
         "--nr", "8", "--ntheta", "8"],
        capsys,
    )
    assert code == EXIT_OK
    assert out_path.read_bytes().startswith(b"ply\n" if fmt == "ply" else b"v ")
    meta = json.loads((tmp_path / f"mesh.{fmt}.json").read_text())
    assert meta["family"]["family"] == name
    assert "max period defect" in out


# -- --config precedence -------------------------------------------------


def test_config_overrides_default_and_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "ply"}))
    out_path = tmp_path / "cat.mesh"
    argv = ["export", "--family", "catenoid", "--config", str(cfg),
            "--out", str(out_path), "--nr", "8", "--ntheta", "8"]
    code, _, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out_path.read_bytes().startswith(b"ply\n")
    code, _, _ = run(argv + ["--format", "obj"], capsys)
    assert code == EXIT_OK
    assert out_path.read_bytes().startswith(b"v ")


def test_config_k_max_reaches_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "vase", "k_max": 3}))
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["report", "--config", str(cfg), "--out", str(out_path)], capsys
    )
    assert code == EXIT_OK
    assert len(out_path.read_text().splitlines()) == 1 + 2 * 5
    assert "10 rows" in out


def test_unknown_config_key_is_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "vase", "k": 2, "a": 0.5,
                               "nr": 16}))
    code, _, err = run(["solve", "--config", str(cfg)], capsys)
    assert code == EXIT_PARAMS
    assert "unknown config key 'nr'" in err


# -- flags are honoured or rejected --------------------------------------


def test_verify_rho_rejected_without_rho(capsys):
    code, out, err = run(
        ["verify", "--family", "double_vase", "--k", "6", "--b", "0.25",
         "--rho", "1.0"],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "--rho" in err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--rho", "--tol"])
def test_nonpositive_or_nonfinite_rho_tol_rejected(flag, value, capsys):
    code, out, err = run(
        ["verify", "--family", "vase", "--k", "2", "--a", "0.5",
         f"{flag}={value}"],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "double_vase", "--k", "6", "--b", "0.25", "--a", "3"],
        ["--family", "vase", "--k", "2", "--a", "0.5", "--b", "0.3"],
        ["--family", "catenoid", "--k", "2"],
    ],
)
def test_parameter_the_family_does_not_take_rejected(argv, capsys):
    code, _, err = run(["solve", *argv], capsys)
    assert code == EXIT_PARAMS
    assert "does not take" in err


def test_export_tol_gates_the_export(tmp_path, capsys):
    out_path = tmp_path / "cat.obj"
    argv = ["export", "--family", "catenoid", "--tol", "1e-30",
            "--out", str(out_path), "--nr", "8", "--ntheta", "8"]
    code, _, err = run(argv, capsys)
    assert code == EXIT_VERIFICATION
    assert "verification failed" in err
    assert not out_path.exists()
    code, out, _ = run(argv + ["--force"], capsys)
    assert code == EXIT_OK
    assert out_path.exists()
    meta = json.loads((tmp_path / "cat.obj.json").read_text())
    assert meta["family"] == {"family": "catenoid", "forced": True}


# -- bad input exits 2, not a traceback ------------------------------------


def test_empty_report_sweep_is_parameter_error(tmp_path, capsys):
    code, _, err = run(
        ["report", "--family", "vase", "--k-min", "5", "--k-max", "3",
         "--out", str(tmp_path / "sweep.csv")],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert "empty sweep" in err


def test_non_numeric_report_values_is_parameter_error(tmp_path, capsys):
    code, _, err = run(
        ["report", "--family", "vase", "--values", "x",
         "--out", str(tmp_path / "sweep.csv")],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert "--values" in err


def test_malformed_config_is_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{bad")
    code, out, err = run(["solve", "--config", str(cfg)], capsys)
    assert code == EXIT_PARAMS
    assert out == ""
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--rmin", "nan"), ("--rmax", "inf"), ("--rmax", "nan"),
     ("--exclusion-radius", "nan"), ("--exclusion-radius", "inf")],
)
def test_nonfinite_export_window_rejected(flag, value, tmp_path, capsys):
    out_path = tmp_path / "cat.obj"
    code, out, _ = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         f"{flag}={value}", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert not out_path.exists()
