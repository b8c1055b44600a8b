"""CLI subcommands, exit codes and config handling."""

import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import warnings
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
from spheremin.algebra import INF, monomial, shifted_power
from spheremin.errors import DegenerateTriangle, SphereminError
from spheremin.families import FAMILIES, construct, solve_vase_rho, vase_weierstrass_data
from spheremin.weierstrass import DegreeAudit, WeierstrassData


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
    # a ~ 1/b runs past 1e3, outside the double vase's domain: refused
    # before any data is built
    code, out, err = run(
        ["solve", "--family", "double_vase", "--k", str(k), "--b", str(b)], capsys
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "outside [1e-3, 1e3]" in err


@pytest.mark.parametrize("command", ["solve", "verify", "export"])
@pytest.mark.parametrize("args, message", [
    # the punctures b and 1/b coincide: once an uncaught ValueError
    (["--family", "double_vase", "--k", "3", "--b", "0.9999999999"], "not pairwise distinct"),
    # z^3 - a^3 and z^3 - 1 share their roots: once an overflow warning and exit 3
    (["--family", "vase", "--k", "3", "--a", "0.99999999999999"], "share the root"),
    (["--family", "vase", "--k", "3", "--a", "0.9999999999"], "share the root"),
    # the solved a meets 1/b: the gate once failed here, exit 3
    (["--family", "double_vase", "--k", "2", "--b", "0.99999"], "share the root"),
    # the parameters refuse both, naming b, where the root table or the
    # puncture check once refused them naming factors or points
    (["--family", "double_vase", "--k", "12", "--b", "0.999999"],
     "b and 1/a are the same point at k=12, b = 0.999999"),
    (["--family", "double_vase", "--k", "3", "--b", "0.9999999999"],
     "b and 1/b are the same point at k=3, b = 0.9999999999"),
])
def test_two_factors_of_one_k_at_one_root_exit_2(command, args, message, tmp_path, capsys):
    out = ["--out", str(tmp_path / "m.obj")] if command == "export" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run([command, *args, *out], capsys)
    assert code == EXIT_PARAMS
    assert message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12, 16, 24, 32])
def test_vase_near_a_1_names_a(k, capsys):
    # the parameters refuse a within same_point of 1, naming a and k, where
    # the root table once refused the factors z^k - a^k and z^k - 1
    for j in range(9, 14):
        a = 1.0 - 10.0 ** -j
        code, out, err = run(["verify", "--family", "vase", "--k", str(k), "--a", repr(a)],
                             capsys)
        assert code == EXIT_PARAMS
        assert out == ""
        assert f"vase a and 1 are the same point at k={k}, a = {a}:" in err


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


def test_config_out_reaches_export_and_report(tmp_path, capsys, monkeypatch):
    """`out` in the config gives export and report their output path, as
    --out does, and writes the same bytes; a flag --out overrides it, and
    with no output path anywhere both exit 2 naming --out."""
    monkeypatch.chdir(tmp_path)
    mesh = ["export", "--family", "vase", "--k", "2", "--a", "0.5", "--nr", "8", "--ntheta", "16"]
    sweep = ["report", "--family", "vase", "--k-max", "3", "--values", "0.3,0.5"]
    (tmp_path / "mesh.json").write_text(json.dumps({"out": "by_config.obj"}))
    (tmp_path / "sweep.json").write_text(json.dumps({"out": "by_config.csv"}))
    for argv, cfg, suffix in ((mesh, "mesh.json", ".obj"), (sweep, "sweep.json", ".csv")):
        assert run(argv + ["--out", "by_flag" + suffix], capsys)[0] == EXIT_OK
        code, out, _ = run(argv + ["--config", cfg], capsys)
        assert code == EXIT_OK and out.startswith("wrote by_config" + suffix)
        assert (tmp_path / ("by_config" + suffix)).read_bytes() == (
            tmp_path / ("by_flag" + suffix)).read_bytes()
        code, out, _ = run(argv + ["--config", cfg, "--out", "over" + suffix], capsys)
        assert code == EXIT_OK and out.startswith("wrote over" + suffix)
        code, out, err = run(argv, capsys)
        assert (code, out) == (EXIT_PARAMS, "") and "--out" in err
    assert (tmp_path / "by_config.obj.json").read_bytes() == (
        tmp_path / "by_flag.obj.json").read_bytes()


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
    # the vase's period defect at its solved rho, about 1e-16, fails a
    # tolerance of 1e-30 (the catenoid's residues are exact)
    cfg = tmp_path / "cfg.json"
    out_path = tmp_path / "vase.obj"
    argv = ["export", "--family", "vase", "--k", "2", "--a", "0.5", "--config", str(cfg),
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
    # the vase's period defect at its solved rho, about 1e-16, fails a
    # tolerance of 1e-30 (the catenoid's residues are exact)
    out_path = tmp_path / "vase.obj"
    argv = ["export", "--family", "vase", "--k", "2", "--a", "0.5", "--tol", "1e-30",
            "--out", str(out_path), "--nr", "8", "--ntheta", "8"]
    code, _, err = run(argv, capsys)
    assert code == EXIT_VERIFICATION
    assert "verification failed" in err
    assert not out_path.exists()
    code, out, _ = run(argv + ["--force"], capsys)
    assert code == EXIT_OK
    assert out_path.exists()
    meta = json.loads((tmp_path / "vase.obj.json").read_text())
    assert meta["family"] == {"family": "vase", "forced": True}


def test_verify_names_the_worst_of_the_open_punctures(capsys):
    # at twice its scale the vase's three unit roots are open; z = 1, the
    # first of them, has the largest defect (0.604, the others 0.523)
    code, out, _ = run(["verify", "--family", "vase", "--k", "3", "--a", "0.5", "--rho", "2"],
                       capsys)
    assert code == EXIT_VERIFICATION
    payload = json.loads(out)
    assert [p["closed"] for p in payload["period"]["punctures"]] == [True, True] + [False] * 3
    assert payload["failures"][0] == ("period condition fails at (1+0j) "
                                      "(defect 6.042e-01 > 1.0e-09)")


def test_export_names_the_first_of_tied_worst_punctures(tmp_path, capsys):
    # at tol 1e-30 the solved vase(3, 0.5) fails at two unit roots whose
    # defects are both 2**-54 exactly: the first of them is named
    out_path = tmp_path / "vase.obj"
    code, _, err = run(["export", "--family", "vase", "--k", "3", "--a", "0.5", "--tol", "1e-30",
                        "--out", str(out_path), "--nr", "8", "--ntheta", "8"], capsys)
    assert code == EXIT_VERIFICATION
    assert err == ("verification failed: period condition fails at "
                   "(-0.4999999999999998+0.8660254037844387j) (defect 5.551e-17 > 1.0e-30)\n")
    assert not out_path.exists()


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


def _corrupt_vase():
    # the vase's dh without its factor z^2 - a^2: G's zeros at +-a are regular points
    rho = solve_vase_rho(2, 0.5).value
    G = (rho, [monomial(1), shifted_power(2, 0.25)])
    dh = (-1.0, [monomial(-1), shifted_power(2, 1.0, -2)])
    return WeierstrassData(G, dh, (0j, INF, *shifted_power(2, 1.0).roots()))


def _enneper():
    # G = z, dh = z dz: regular, closed, and (G: -1, dh: -3) at infinity
    z = (1.0, [monomial(1)])
    return WeierstrassData(z, z, (INF,))


@pytest.mark.parametrize("case, fails", [
    ("solved vase", False), ("open vase", True), ("regularity violation", True),
    ("degree audit", True), ("enneper", True),
])
def test_constructor_verify_and_export_decide_alike(case, fails, monkeypatch, tmp_path, capsys):
    """One audit decides for all three paths: the constructor raises
    exactly when `verify` and `export` exit 3, on the same first failure,
    and a refused export writes no file.  Each case's data replace the
    catenoid's, in the vase's export window."""
    rho = solve_vase_rho(2, 0.5).value
    data = {
        "solved vase": lambda: vase_weierstrass_data(2, 0.5, rho),
        "open vase": lambda: vase_weierstrass_data(2, 0.5, 2.0 * rho),
        "regularity violation": _corrupt_vase,
        "degree audit": lambda: vase_weierstrass_data(2, 0.5, rho),
        "enneper": _enneper,
    }[case]
    if case == "degree audit":
        from spheremin import periods

        monkeypatch.setattr(periods, "degree_audit", lambda data: DegreeAudit(1, 0, 0, 2))
    spec = dataclasses.replace(FAMILIES["catenoid"], build=lambda _: data(), r_min=0.45,
                               r_max=2.2, base_point=lambda _: 0.75 + 0j)
    monkeypatch.setitem(FAMILIES, "catenoid", spec)
    try:
        construct(spec)
        raised = None
    except SphereminError as exc:
        raised = str(exc)
    assert (raised is not None) == fails
    code, out, _ = run(["verify", "--family", "catenoid"], capsys)
    assert code == (EXIT_VERIFICATION if fails else EXIT_OK)
    assert json.loads(out)["failures"][:1] == ([raised] if fails else [])
    mesh = tmp_path / "surface.obj"
    code, _, err = run(["export", "--family", "catenoid", "--nr", "8", "--ntheta", "16",
                        "--out", str(mesh)], capsys)
    assert code == (EXIT_VERIFICATION if fails else EXIT_OK)
    assert mesh.exists() != fails
    if fails:
        assert err == f"verification failed: {raised}\n"


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


@pytest.mark.parametrize("rmin, rmax", [("1", "1.0000000000001"), ("0.5", "0.5000000000001")])
def test_export_window_whose_faces_have_no_area_is_parameter_error(rmin, rmax, tmp_path, capsys):
    # the faces lie outside the exclusion disks, and the zero-area drop
    # removes every one of them
    out_path = tmp_path / "cat.obj"
    code, out, err = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         "--rmin", rmin, "--rmax", rmax, "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "no face of nonzero area" in err and rmax in err
    assert list(tmp_path.iterdir()) == []


def test_thin_window_with_area_exports_its_faces(tmp_path, capsys):
    code, out, _ = run(
        ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8",
         "--rmin", "1", "--rmax", "1.000000001", "--out", str(tmp_path / "cat.obj")],
        capsys,
    )
    assert code == EXIT_OK
    assert "64 vertices, 112 faces" in out


@pytest.mark.parametrize("argv, message", [
    # extent**2 overflowed a Python float, an uncaught OverflowError
    (["--family", "catenoid", "--rmin", "1e-160", "--rmax", "1e+160"], "[1e-160, 1e+160]"),
    # |G|^2 overflows: NaN normals, written with exit 0
    (["--family", "vase", "--k", "2", "--a", "0.5", "--rmax", "1e+60"], "[0.45, 1e+60]"),
    # finite in doubles, inf in the PLY's float32 table
    (["--family", "vase", "--k", "2", "--a", "0.5", "--rmax", "1e45", "--format", "ply"],
     "does not fit float32"),
])
def test_export_window_beyond_the_floats_is_parameter_error(argv, message, tmp_path, capsys):
    out_path = tmp_path / "wide.mesh"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["export", *argv, "--nr", "8", "--ntheta", "8", "--out", str(out_path)], capsys
        )
    assert code == EXIT_PARAMS
    assert out == ""
    assert message in err
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


# -- output paths --------------------------------------------------------

VASE_16 = ["export", "--family", "vase", "--k", "2", "--a", "0.5", "--nr", "16", "--ntheta", "32"]


def test_reexport_replaces_the_mesh_and_sidecar(tmp_path, capsys):
    """Exporting over a larger mesh gives the bytes of an export to a new
    path, and a reader holding the old files still reads the old bytes."""
    assert run(VASE_16 + ["--out", str(tmp_path / "new.obj")], capsys)[0] == EXIT_OK
    out = tmp_path / "m.obj"
    finer = ["--nr", "32", "--ntheta", "64", "--out", str(out)]
    assert run(VASE_16 + finer, capsys)[0] == EXIT_OK
    old = {p: p.read_bytes() for p in (out, tmp_path / "m.obj.json")}
    held = {p: open(p, "rb") for p in old}
    try:
        assert run(VASE_16 + ["--out", str(out)], capsys)[0] == EXIT_OK
        assert {p: fh.read() for p, fh in held.items()} == old
    finally:
        for fh in held.values():
            fh.close()
    for suffix in ("", ".json"):
        assert (tmp_path / ("m.obj" + suffix)).read_bytes() == (
            tmp_path / ("new.obj" + suffix)).read_bytes()


def test_symlinked_out_stays_a_symlink(tmp_path, capsys):
    assert run(VASE_16 + ["--out", str(tmp_path / "new.obj")], capsys)[0] == EXIT_OK
    target, link = tmp_path / "target.obj", tmp_path / "link.obj"
    target.write_bytes(b"old\n" * 10_000)
    link.symlink_to(target)
    assert run(VASE_16 + ["--out", str(link)], capsys)[0] == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "new.obj").read_bytes()


def test_out_to_a_character_device(capsys):
    code, out, _ = run(["solve", "--family", "vase", "--k", "2", "--a", "0.5",
                        "--out", os.devnull], capsys)
    assert code == EXIT_OK and json.loads(out)["solved"]["parameter"] == "rho"
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)


def main_without_root(argv, cwd):
    """`main(argv)` in a forked child working in `cwd`, as the user nobody
    when the tests run as root, who may write any file; its exit code."""
    pid = os.fork()
    if pid == 0:
        code = 100
        try:
            os.chdir(cwd)
            if os.geteuid() == 0:
                os.setgroups([])
                os.setgid(65534)
                os.setuid(65534)
            code = main(argv)
        finally:
            os._exit(code)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize("argv", [
    ["solve", "--family", "vase", "--k", "2", "--a", "0.5"],
    ["export", "--family", "catenoid", "--nr", "8", "--ntheta", "8"],
    ["report", "--family", "vase", "--k-max", "2", "--values", "0.5"],
])
def test_read_only_output_is_refused(argv, tmp_path):
    """A read-only output in a directory the user may write exits 1 and keeps
    its bytes and mode: it is not unlinked and written anew."""
    tmp_path.chmod(0o777)
    out = tmp_path / "out"
    out.write_bytes(b"old\n")
    out.chmod(0o444)
    if os.geteuid() == 0:  # the child's own file, so that only its mode refuses
        os.chown(out, 65534, 65534)
    assert main_without_root(argv + ["--out", "out"], tmp_path) == EXIT_RUNTIME
    assert out.read_bytes() == b"old\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o444
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("argv, fill, left", [
    (["solve", "--family", "vase", "--k", "2", "--a", "0.5", "--out", "s.json"],
     ".json", []),
    (["verify", "--family", "catenoid", "--out", "v.json"], ".json", []),
    (["report", "--family", "vase", "--k-max", "2", "--values", "0.5", "--out", "r.csv"],
     ".csv", []),
    (VASE_16 + ["--out", "m.obj"], ".obj", []),
    (VASE_16 + ["--format", "ply", "--out", "m.ply"], ".ply", []),
    (VASE_16 + ["--out", "m.obj"], ".json", ["m.obj"]),
])
def test_a_full_disk_leaves_no_partial_output(argv, fill, left, tmp_path, capsys,
                                              monkeypatch, full_disk):
    """A write that fills the disk part-way exits 1 and leaves no partial
    file: a failed mesh writes no sidecar, and a failed sidecar leaves the
    whole mesh."""
    monkeypatch.chdir(tmp_path)
    full_disk(fill)
    code, _, err = run(argv, capsys)
    assert code == EXIT_RUNTIME and "No space left on device" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == left
