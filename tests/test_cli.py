"""CLI subcommands, exit codes and config handling."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spheremin import cli
from spheremin.cli import (
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_RUNTIME,
    EXIT_VERIFICATION,
    main,
)
from spheremin.errors import DegenerateTriangle
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


def test_solve_closed_form_mismatch_exits_3(monkeypatch, capsys):
    # a printed radical that disagrees with the quadratic's root is a
    # verification failure, not a flag on an exit-0 result
    import spheremin.families as families

    closed_form = families.double_vase_closed_form_a
    monkeypatch.setattr(families, "double_vase_closed_form_a",
                        lambda k, b: 1.01 * closed_form(k, b))
    code, out, err = run(
        ["solve", "--family", "double_vase", "--k", "2", "--b", "0.5"], capsys
    )
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert "closed form" in err


def test_solve_vase_closed_form_mismatch_exits_3(monkeypatch, capsys):
    # the root sqrt(-Q/P) moved 1% off the printed radical
    import spheremin.families as families

    coefficients = families._vase_coefficients

    def shifted(k, ak):
        P, Q = coefficients(k, ak)
        return P / 1.0201, Q

    monkeypatch.setattr(families, "_vase_coefficients", shifted)
    code, out, err = run(
        ["solve", "--family", "vase", "--k", "2", "--a", "0.5"], capsys
    )
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert "closed form" in err


@pytest.mark.parametrize("k, b", [(2, 1e-4), (6, 5e-4), (32, 5e-4)])
def test_solve_double_vase_root_out_of_range_exits_2(k, b, capsys):
    # a ~ 1/b runs past 1e3: no root in the solver's range, before any
    # data is built
    code, out, err = run(
        ["solve", "--family", "double_vase", "--k", str(k), "--b", str(b)], capsys
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "outside [1e-3, 1e3]" in err


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


def test_verify_rho_whose_gauss_map_overflows_fails_the_period(capsys):
    # G = rho (1 - a^2) = 7.5e299 at the catenoid ends z^2 = 1, whose
    # squared modulus overflows: their limit normal is that of G = inf
    code, out, _ = run(
        ["verify", "--family", "vase", "--k", "2", "--a", "0.5",
         "--rho", "1e300"],
        capsys,
    )
    assert code == EXIT_VERIFICATION
    payload = json.loads(out)
    assert not payload["passed"]
    assert any("period" in f for f in payload["failures"])
    assert [e["limit_normal"] for e in payload["ends"]
            if e["kind"] == "catenoid_non_vertical"] == [[0.0, 0.0, 1.0]] * 2


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


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_switch_must_be_a_json_boolean(value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"force": value, "tol": 1e-30}))
    out_path = tmp_path / "cat.obj"
    argv = ["export", "--family", "catenoid", "--config", str(cfg),
            "--out", str(out_path), "--nr", "8", "--ntheta", "8"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_PARAMS
    assert out == ""
    assert "'force'" in err
    assert not out_path.exists()


def test_config_switch_json_booleans(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out_path = tmp_path / "cat.obj"
    argv = ["export", "--family", "catenoid", "--config", str(cfg),
            "--out", str(out_path), "--nr", "8", "--ntheta", "8"]
    cfg.write_text(json.dumps({"force": False, "tol": 1e-30}))
    assert run(argv, capsys)[0] == EXIT_VERIFICATION
    assert not out_path.exists()
    cfg.write_text(json.dumps({"force": True, "tol": 1e-30}))
    assert run(argv, capsys)[0] == EXIT_OK
    assert out_path.exists()


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


def test_forced_export_solves_once(monkeypatch, tmp_path, capsys):
    spec = FAMILIES["vase"]
    calls = []

    def counting_solver(k, a):
        calls.append((k, a))
        return spec.solver(k, a)

    monkeypatch.setitem(FAMILIES, "vase",
                        dataclasses.replace(spec, solver=counting_solver))
    code, _, _ = run(
        ["export", "--family", "vase", "--k", "2", "--a", "0.5", "--nr", "8",
         "--ntheta", "8", "--tol", "1e-30", "--force",
         "--out", str(tmp_path / "v.obj")],
        capsys,
    )
    assert code == EXIT_OK
    assert calls == [(2, 0.5)]


def test_tiny_surface_exports_its_faces(tmp_path, capsys):
    # this surface spans about 7e-17: an absolute area cut dropped every face
    out_path = tmp_path / "dv.obj"
    code, out, _ = run(
        ["export", "--family", "double_vase", "--k", "8", "--b", "0.00856",
         "--nr", "16", "--ntheta", "32", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    assert "512 vertices, 960 faces" in out
    assert math.isfinite(float(out.rsplit("median |H| ", 1)[1]))


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_failed_curvature_check_writes_no_file(fmt, monkeypatch, tmp_path, capsys):
    def degenerate(mesh):
        raise DegenerateTriangle("a face angle exceeds 179 degrees")

    monkeypatch.setattr(cli, "estimate_mean_curvature", degenerate)
    out_path = tmp_path / f"c.{fmt}"
    code, _, err = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         "--format", fmt, "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_RUNTIME
    assert "179 degrees" in err
    assert list(tmp_path.iterdir()) == []


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


def test_export_window_without_faces_is_parameter_error(tmp_path, capsys):
    out_path = tmp_path / "cat.obj"
    code, out, err = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         "--rmin", "1e-300", "--rmax", "1e-299", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "no face" in err
    assert list(tmp_path.iterdir()) == []


def test_export_base_point_in_exclusion_disk_is_parameter_error(tmp_path, capsys):
    out_path = tmp_path / "cat.obj"
    code, out, err = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         "--exclusion-radius", "5", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "exclusion disk" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "vase", "--k", "110", "--a", "0.001"],
        ["solve", "--family", "vase", "--k", "110", "--a", "0.001"],
        ["verify", "--family", "double_vase", "--k", "110", "--b", "0.001"],
        ["solve", "--family", "double_vase", "--k", "110", "--b", "0.001"],
    ],
)
def test_underflowing_power_is_parameter_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_PARAMS
    assert out == ""
    assert "underflows" in err


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; successive `main` calls with
    other subcommands and flags, the --config re-parse and the exit-2
    paths (a flag the family does not take, a missing required flag)
    give what each gives in a process of its own."""
    (tmp_path / "cfg.json").write_text(json.dumps({"family": "vase", "k": 3, "a": 0.4}))
    argvs = [
        ["export", "--family", "vase", "--k", "2", "--a", "0.5"],  # no --out
        ["solve", "--family", "vase", "--k", "2", "--a", "0.5"],
        ["verify", "--family", "double_vase", "--k", "2", "--b", "0.5", "--a", "0.3"],
        ["verify", "--family", "double_vase", "--k", "3", "--b", "0.4", "--tol", "1e-8"],
        ["solve", "--config", "cfg.json", "--a", "0.6"],
        ["solve", "--config", "cfg.json"],
    ]
    monkeypatch.chdir(tmp_path)
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "spheremin.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [c for c, _, _ in in_process] == [EXIT_PARAMS, EXIT_OK, EXIT_PARAMS,
                                             EXIT_OK, EXIT_OK, EXIT_OK]
    assert in_process == fresh
