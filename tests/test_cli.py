import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rdsi
import rdsi.cli
from conftest import ladder_instance
from rdsi.cli import main
from rdsi.sphere import cap_ratio


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def binary_instance_file(tmp_path, name="inst.json", de=None):
    return write_json(
        tmp_path / name,
        {
            "x_size": 2,
            "y_size": 2,
            "xhat_size": 2,
            "pxy": [0.375, 0.125, 0.125, 0.375],
            "dd": [0.0, 1.0, 1.0, 0.0],
            "de": de if de is not None else [0.0, 1.0, 1.0, 0.0],
        },
    )


def ext_instance_file(tmp_path, targets=(0.1, 0.05)):
    dd = np.array([[0.0, 1.0], [1.0, 0.0]])
    de = np.array([[0.0, 1.0], [1.0, 0.0]])
    dk = np.zeros((2, 2, 2, 2))
    dk[0] = np.repeat(dd[:, :, None], 2, axis=2)
    dk[1] = np.tile(de[None, :, :], (2, 1, 1))
    return write_json(
        tmp_path / "ext.json",
        {
            "x_size": 2,
            "y_size": 2,
            "xhat_d_size": 2,
            "xhat_e_size": 2,
            "k": 2,
            "pxy": [0.375, 0.125, 0.125, 0.375],
            "dk": dk.ravel().tolist(),
            "targets": list(targets),
        },
    )


def reduce_u_witness_file(tmp_path):
    """A K = 2 witness with |U| = 4 over the binary extended instance."""
    rng = np.random.default_rng(3)
    pz = rng.random((2, 2)) + 0.1
    pz /= pz.sum(axis=1, keepdims=True)
    pu = rng.random((2, 2, 4)) + 0.1
    pu /= pu.sum(axis=2, keepdims=True)
    payload = json.loads(open(ext_instance_file(tmp_path)).read())
    payload.update(
        {
            "targets": [1.0, 1.0],
            "z_size": 2,
            "u_size": 4,
            "pz_given_x": pz.ravel().tolist(),
            "pu_given_xz": pu.ravel().tolist(),
            "phi": rng.integers(0, 2, (2, 2)).ravel().tolist(),
            "psi3": rng.integers(0, 2, (2, 2, 4)).ravel().tolist(),
        }
    )
    return write_json(tmp_path / "witness.json", payload)


def run(args, capsys):
    status = main(args)
    return status, capsys.readouterr().out


def fresh_python(*args):
    """stdout of a new interpreter run with ``args``, importing this rdsi."""
    path = [os.path.dirname(os.path.dirname(rdsi.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDiscreteSolve:
    def test_valid_instance(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        argv = ["discrete-solve", "--input", inst,
                "--config", "dd_target=0.1", "--config", "de_target=0.05"]
        status, out = run(argv + ["--config", "z_size=3"], capsys)
        assert status == 0
        report = json.loads(out)
        assert "rate" in report and report["rate"] > 0
        assert report["spec_version"] == "1"
        assert report["seed"] == 0
        assert report["witness"]["z_size"] >= 1
        # z_size 3 sits below the binary library's 4 columns and |X| + 3,
        # but the certified full-library witness fits in 3 columns
        assert (report["diagnostics"]["path"], report["label"]) == ("library", "exact")
        # the witness does not fit in 2: a scan, not certified
        status, out = run(argv + ["--config", "z_size=2"], capsys)
        assert status == 0
        report = json.loads(out)
        assert (report["diagnostics"]["path"], report["label"]) == ("scan", "upper_bound")

    @pytest.mark.parametrize(
        "dd, de, z_size, path",
        [
            ("0.1", "0.05", "3", "library"),
            ("0.1", "0.05", "2", "scan"),
            ("0.5", "0.5", "3", "constant"),
        ],
    )
    def test_multipliers_one_per_target(self, tmp_path, capsys, dd, de, z_size, path):
        # the certified bound's plane: rate - gap + multipliers . (t - t')
        inst = binary_instance_file(tmp_path)
        status, out = run(
            ["discrete-solve", "--input", inst, "--config", f"dd_target={dd}",
             "--config", f"de_target={de}", "--config", f"z_size={z_size}"],
            capsys,
        )
        assert status == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["path"] == path
        multipliers = diagnostics["multipliers"]
        assert len(multipliers) == 2 and min(multipliers) >= 0.0
        if path == "constant":
            assert multipliers == [0.0, 0.0]
        else:
            assert multipliers[0] > 0.0

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        status, out = run(
            ["discrete-solve", "--input", str(bad), "--config", "dd_target=0.1",
             "--config", "de_target=0.1"],
            capsys,
        )
        assert status == 2
        assert json.loads(out)["error"]["kind"] == "parse"

    def test_pxy_mass_must_be_one(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        payload = json.loads(open(inst).read())
        payload["pxy"] = [0.3, 0.15, 0.15, 0.3]
        status, out = run(
            ["discrete-solve", "--input", write_json(tmp_path / "mass.json", payload),
             "--config", "dd_target=0.1", "--config", "de_target=0.1"],
            capsys,
        )
        assert status == 2
        assert "mass 0.9 != 1" in json.loads(out)["error"]["message"]

    def test_assumption_violation(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path, de=[1.0, 1.0, 1.0, 1.0])
        status, out = run(
            ["discrete-solve", "--input", inst, "--config", "dd_target=0.1",
             "--config", "de_target=0.1"],
            capsys,
        )
        assert status == 3
        assert json.loads(out)["error"]["kind"] == "assumption"

    def test_cap_exceeded(self, tmp_path, capsys):
        # |Xhat|^|Y| = 27 decoder columns; z_size=4 sits below the cardinality
        # bound |X| + 3 = 5, so C(27, 4) = 17,550 candidates are enumerated
        de = 1.0 - np.eye(3)
        inst = write_json(
            tmp_path / "inst.json",
            {
                "x_size": 2, "y_size": 3, "xhat_size": 3,
                "pxy": [0.2, 0.15, 0.1, 0.05, 0.2, 0.3],
                "dd": [0.0, 1.0, 0.5, 1.0, 0.0, 0.5],
                "de": de.ravel().tolist(),
            },
        )
        status, out = run(
            ["discrete-solve", "--input", inst, "--config", "dd_target=0.01",
             "--config", "de_target=0.01", "--config", "z_size=4",
             "--config", "enumeration_cap=5"],
            capsys,
        )
        assert status == 5
        assert json.loads(out)["error"]["kind"] == "cap"

    def test_unknown_config_key(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        status, out = run(
            ["discrete-solve", "--input", inst, "--config", "dd_target=0.1",
             "--config", "de_target=0.05", "--config", "z_sise=3"],
            capsys,
        )
        assert status == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and "z_sise" in error["message"]
        # a key another subcommand reads is still unknown here
        status, out = run(["wz", "--input", inst, "--config", "dd_target=0.1",
                           "--config", "de_target=0.05"], capsys)
        assert status == 2
        status, _ = run(["reduce-u", "--input", inst, "--config", "z_size=3"], capsys)
        assert status == 2
        # |U| = 1 always suffices: ext-solve has no u_size key
        ext = ext_instance_file(tmp_path)
        status, out = run(["ext-solve", "--input", ext, "--config", "u_size=2"], capsys)
        assert status == 2
        assert "u_size" in json.loads(out)["error"]["message"]
        # the inner solve's iteration stages and tolerances are fixed: no
        # inner_max_iters or inner_tolerance key
        for key, value in (("inner_max_iters", "5"), ("inner_tolerance", "1e-7")):
            for sub in ("discrete-solve", "ext-solve"):
                status, out = run([sub, "--input", inst, "--config", f"{key}={value}"], capsys)
                assert status == 2
                assert key in json.loads(out)["error"]["message"]

    def test_baselines_accept_z_size(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        for sub in ("wz", "cr"):
            status, _ = run(
                [sub, "--input", inst, "--config", "dd_target=0.1", "--config", "z_size=3"],
                capsys,
            )
            assert status == 0

    def test_missing_input(self, capsys):
        status, out = run(["discrete-solve", "--config", "dd_target=0.1",
                           "--config", "de_target=0.1"], capsys)
        assert status == 2


class TestBaselineCommands:
    def test_wz(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        status, out = run(["wz", "--input", inst, "--config", "dd_target=0.1"], capsys)
        assert status == 0
        assert json.loads(out)["rate"] == pytest.approx(0.4112, abs=1e-3)

    def test_cr(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        status, out = run(["cr", "--input", inst, "--config", "dd_target=0.1"], capsys)
        assert status == 0
        assert json.loads(out)["rate"] == pytest.approx(0.4123, abs=1e-3)


class TestSweep:
    def test_csv_shape(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        status, out = run(
            ["discrete-sweep", "--input", inst,
             "--config", "dd_grid=0.1,0.3", "--config", "de_grid=0.0,0.2",
             "--config", "z_size=2"],
            capsys,
        )
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "dd,de,rate,achieved_dd,achieved_de,status"
        assert len(lines) == 5
        assert all(line.endswith(",ok") for line in lines[1:])


class TestGaussianCurve:
    def test_single_cell(self, capsys):
        status, out = run(
            ["gaussian-curve", "--config", "var_x=1", "--config", "var_u=1",
             "--config", "dd=0.25", "--config", "de=0.01"],
            capsys,
        )
        assert status == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["r_gaussian"]) == pytest.approx(
            0.5 * math.log2(0.5 * 1.05 / 0.24), abs=1e-9
        )
        assert row["case_id"] == "4"

    def test_de_zero_column_matches_cr(self, capsys):
        status, out = run(
            ["gaussian-curve", "--config", "var_x=1.3", "--config", "var_u=0.7",
             "--config", "dd=0.05,0.21,0.4", "--config", "de=0"],
            capsys,
        )
        assert status == 0
        for line in out.strip().split("\n")[1:]:
            row = dict(zip(["dd", "de", "case_id", "r_gaussian", "r_wz", "r_cr", "a", "b", "var_w", "error"], line.split(",")))
            assert row["r_gaussian"] == row["r_cr"]  # exact, stringwise

    def test_case_boundary_continuity_in_output(self, capsys):
        # de = 0.04 puts the branch boundary at dd = 0.2
        status, out = run(
            ["gaussian-curve", "--config", "var_x=1", "--config", "var_u=1",
             "--config", "dd=0.1999999,0.2000001", "--config", "de=0.04"],
            capsys,
        )
        assert status == 0
        lines = out.strip().split("\n")[1:]
        rows = [line.split(",") for line in lines]
        cases = {r[2] for r in rows}
        assert len(cases) == 2  # classification flips across the boundary
        rates = [float(r[3]) for r in rows]
        assert abs(rates[0] - rates[1]) <= 1e-6

    def test_domain_error_recorded_per_row(self, capsys):
        status, out = run(
            ["gaussian-curve", "--config", "var_x=1", "--config", "var_u=1",
             "--config", "dd=-0.5,0.25", "--config", "de=0.01"],
            capsys,
        )
        assert status == 0
        lines = out.strip().split("\n")[1:]
        assert "must be positive" in lines[0]
        assert lines[1].split(",")[-1] == ""


class TestSphereSim:
    ARGS = [
        "sphere-sim", "--config", "var_x=1", "--config", "var_u=0.5",
        "--config", "a=0.5", "--config", "b=0.1", "--config", "var_w=1.0",
        "--config", "delta=0.04", "--config", "n=8,10", "--config", "trials=6",
    ]

    def test_two_rows_and_columns(self, capsys):
        status, out = run(self.ARGS, capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,trials,seed,a,b,var_w,delta,epsilon,rate_nominal")
        assert len(lines) == 3

    def test_json_rows_carry_decoded_distortions(self, capsys):
        status, out = run(self.ARGS + ["--format", "json"], capsys)
        assert status == 0
        report = json.loads(out)
        assert not {"decoded_dd", "decoded_de"} & set(report["columns"])
        for row in report["rows"]:
            for key in ("decoded_dd", "decoded_de"):
                assert row[key] is None or row[key] >= 0.0
        _, csv_out = run(self.ARGS, capsys)
        assert "decoded" not in csv_out

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run(self.ARGS, capsys)
        _, out2 = run(self.ARGS, capsys)
        assert out1 == out2

    def test_output_bytes_pinned(self, capsys):
        # the sha256 of this run's CSV: the codebook search is exact, so a
        # speed-up of the simulation must not move a byte
        status, out = run(
            ["sphere-sim", "--seed", "3", "--config", "var_x=1", "--config", "var_u=1",
             "--config", "dd=0.25", "--config", "de=0.0625", "--config", "delta=0.1",
             "--config", "n=12,16", "--config", "trials=50"],
            capsys,
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a2c34d6fa0f6b89cbdf310e195cd3ff39b5141fa09ce6d922924e1bc4ad8276f"
        )

    def test_infeasible_epsilon(self, capsys):
        status, out = run(self.ARGS + ["--config", "epsilon=0.3"], capsys)
        assert status == 4
        assert json.loads(out)["error"]["kind"] == "infeasible"

    def test_no_coding_case_rejected(self, capsys):
        status, out = run(
            ["sphere-sim", "--config", "var_x=1", "--config", "var_u=1",
             "--config", "dd=0.6", "--config", "de=0.36",
             "--config", "delta=0.05", "--config", "n=8", "--config", "trials=2"],
            capsys,
        )
        assert status == 3


class TestExtSolveAndReduce:
    def test_ext_solve(self, tmp_path, capsys):
        inst = ext_instance_file(tmp_path)
        status, out = run(
            ["ext-solve", "--input", inst, "--config", "z_size=2"], capsys
        )
        assert status == 0
        report = json.loads(out)
        assert report["rate"] > 0
        assert len(report["achieved"]) == 2
        # z_size 2 is below the 4-column library and misses the witness: a
        # scan, not certified
        assert (report["diagnostics"]["path"], report["label"]) == ("scan", "upper_bound")
        # z_size 3 is below the library too, but the witness fits in it
        status, out = run(
            ["ext-solve", "--input", inst, "--config", "z_size=3"], capsys
        )
        assert status == 0
        report = json.loads(out)
        assert (report["diagnostics"]["path"], report["label"]) == ("library", "exact")
        status, out = run(["ext-solve", "--input", inst], capsys)
        assert status == 0
        report = json.loads(out)
        assert (report["diagnostics"]["path"], report["label"]) == ("library", "exact")
        assert 0.0 <= report["diagnostics"]["gap"] <= 1e-7
        multipliers = report["diagnostics"]["multipliers"]
        assert len(multipliers) == 2 and min(multipliers) >= 0.0

    def test_ext_solve_rejects_a_negative_pxy_entry(self, tmp_path, capsys):
        payload = json.loads(open(ext_instance_file(tmp_path)).read())
        payload["pxy"] = [0.5, -0.1, 0.1, 0.5]
        status, out = run(
            ["ext-solve", "--input", write_json(tmp_path / "negative.json", payload)], capsys
        )
        assert status == 2
        assert "negative entry at (0, 1)" in json.loads(out)["error"]["message"]

    def test_ext_solve_z_size_range(self, tmp_path, capsys):
        # z_size must lie in [1, |X| + K + 1]; 0 is rejected by the config
        inst = ext_instance_file(tmp_path)
        for value, message in (("0", "at least 1"), ("6", "[1, 5]")):
            status, out = run(["ext-solve", "--input", inst, "--config", f"z_size={value}"], capsys)
            assert status == 2
            assert message in json.loads(out)["error"]["message"]
        status, _ = run(["ext-solve", "--input", inst, "--config", "z_size=5"], capsys)
        assert status == 0

    def test_reduce_u(self, tmp_path, capsys):
        witness = reduce_u_witness_file(tmp_path)
        status, out = run(["reduce-u", "--input", witness], capsys)
        assert status == 0
        report = json.loads(out)
        assert report["u_tilde_size"] <= 2

    def test_format_json(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        status, out = run(
            ["discrete-sweep", "--input", inst, "--format", "json",
             "--config", "dd_grid=0.3", "--config", "de_grid=0.3",
             "--config", "z_size=2"],
            capsys,
        )
        assert status == 0
        report = json.loads(out)
        assert report["rows"][0]["status"] == "ok"


class TestConfigValues:
    """A --config value of the wrong kind is a parse error (exit 2), never a
    traceback or a silently truncated number."""

    # a later --config entry for the same key replaces an earlier one
    SIM = ["sphere-sim", "--config", "var_x=1", "--config", "var_u=0.5",
           "--config", "a=0.5", "--config", "b=0.1", "--config", "var_w=1.0",
           "--config", "delta=0.04", "--config", "n=8", "--config", "trials=2"]

    def assert_parse_error(self, args, capsys, key):
        status, out = run(args, capsys)
        assert status == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and key in error["message"]

    def test_non_numeric_value(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        args = ["discrete-solve", "--input", inst, "--config", "dd_target=abc",
                "--config", "de_target=0.1"]
        self.assert_parse_error(args, capsys, "dd_target")

    def test_list_for_a_scalar(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        args = ["wz", "--input", inst, "--config", "dd_target=0.1,0.2"]
        self.assert_parse_error(args, capsys, "dd_target")

    @pytest.mark.parametrize(
        "sub, pair",
        [
            ("discrete-solve", "z_size=2.7"),
            ("discrete-solve", "enumeration_cap=10.5"),
            ("sphere-sim", "trials=2.5"),
            ("sphere-sim", "n=8,4.9"),
        ],
    )
    def test_non_integral_count(self, tmp_path, capsys, sub, pair):
        if sub == "sphere-sim":
            args = self.SIM + ["--config", pair]
        else:
            inst = binary_instance_file(tmp_path)
            args = [sub, "--input", inst, "--config", "dd_target=0.1",
                    "--config", "de_target=0.05", "--config", pair]
        self.assert_parse_error(args, capsys, pair.split("=")[0])

    @pytest.mark.parametrize("value", ["nan", "inf", "1" + "0" * 400], ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize(
        "sub, pairs, bad",
        [
            ("discrete-solve", ["de_target=0.05"], "dd_target"),
            ("discrete-solve", ["dd_target=0.1"], "de_target"),
            ("discrete-sweep", ["dd_grid=0.1"], "de_grid"),
            ("wz", [], "dd_target"),
            ("cr", [], "dd_target"),
        ],
    )
    def test_non_finite_value(self, tmp_path, capsys, sub, pairs, bad, value):
        args = [sub, "--input", binary_instance_file(tmp_path)]
        for pair in pairs + [f"{bad}=0.0,{value}" if bad == "de_grid" else f"{bad}={value}"]:
            args += ["--config", pair]
        status = main(args)
        captured = capsys.readouterr()
        assert status == 2 and captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "parse" and bad in error["message"]

    def test_integral_float_counts_pass(self, capsys):
        args = self.SIM + ["--config", "n=8,1e1", "--config", "trials=2.0"]
        status, out = run(args, capsys)
        assert status == 0
        rows = [line.split(",")[:2] for line in out.strip().split("\n")[1:]]
        assert rows == [["8", "2"], ["10", "2"]]


class TestSeedFlag:
    @pytest.mark.parametrize("sub", ["sphere-sim", "discrete-solve"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_seed_must_be_nonnegative_integer(self, tmp_path, capsys, sub, seed):
        # numpy's SeedSequence takes no negative seed: an argument error
        # before anything runs, never a traceback or an echoed -1
        if sub == "sphere-sim":
            args = TestConfigValues.SIM
        else:
            args = [sub, "--input", binary_instance_file(tmp_path),
                    "--config", "dd_target=0.1", "--config", "de_target=0.05"]
        with pytest.raises(SystemExit) as exc:
            main(args + [f"--seed={seed}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--seed" in captured.err and "nonnegative integer" in captured.err
        status, out = run(args + ["--seed", "7", "--format", "json"], capsys)
        assert status == 0 and json.loads(out)["seed"] == 7


class TestOutputFile:
    def test_writes_file(self, tmp_path, capsys):
        inst = binary_instance_file(tmp_path)
        out_path = tmp_path / "result.json"
        status = main(
            ["wz", "--input", inst, "--config", "dd_target=0.2",
             "--output", str(out_path)]
        )
        assert status == 0
        assert "rate" in json.loads(out_path.read_text())


class TestStartup:
    """Importing rdsi loads nothing from scipy; each function loads on first call.

    These run in a new interpreter: the test session itself has scipy loaded.
    """

    COLD = """
import contextlib, io, json, sys
import rdsi, rdsi.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    rdsi.cli.main(["gaussian-curve", "--config", "var_x=1", "--config", "var_u=1",
                   "--config", "dd=0.25,0.6", "--config", "de=0,0.01"])
loaded["gaussian-curve"] = scipy_modules()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = rdsi.cli.main(["discrete-solve", "--input", sys.argv[1],
                            "--config", "dd_target=" + sys.argv[2],
                            "--config", "de_target=" + sys.argv[3]])
loaded["discrete-solve"] = scipy_modules()
print(json.dumps({"loaded": loaded, "status": status, "report": json.loads(out.getvalue())}))
"""

    def test_cold_import_loads_no_scipy(self, tmp_path):
        src, spec, dd_t, de_t = ladder_instance(3, 3, 3)
        inst = write_json(
            tmp_path / "3x3x3.json",
            {"x_size": 3, "y_size": 3, "xhat_size": 3, "pxy": src.pxy.ravel().tolist(),
             "dd": spec.dd.ravel().tolist(), "de": spec.de.ravel().tolist()},
        )
        result = json.loads(fresh_python("-c", self.COLD, inst, repr(dd_t), repr(de_t)))
        loaded = result["loaded"]
        assert loaded["import"] == []
        assert loaded["gaussian-curve"] == []
        assert result["status"] == 0
        assert result["report"]["diagnostics"]["path"] == "library"
        assert "scipy.optimize" not in loaded["discrete-solve"]

    def test_parser_is_built_on_first_use_only(self, tmp_path, capsys):
        # importing builds no parser; main builds one and reuses it, and a
        # --config list from one call does not leak into the next
        probe = "import rdsi.cli; print(rdsi.cli._build_parser.cache_info().currsize)"
        assert fresh_python("-c", probe) == "0\n"
        assert rdsi.cli._build_parser() is rdsi.cli._build_parser()
        inst = binary_instance_file(tmp_path)
        status, _ = run(["wz", "--input", inst, "--config", "dd_target=0.1"], capsys)
        assert status == 0
        status, out = run(["wz", "--input", inst], capsys)
        assert status == 2
        assert "dd_target" in json.loads(out)["error"]["message"]

    def test_cold_import_loads_no_thread_pool(self):
        # the codebook's thread pool is imported on the first multi-chunk scan
        probe = "import sys, rdsi.cli; print('concurrent.futures' in sys.modules)"
        assert fresh_python("-c", probe) == "False\n"

    def test_first_calls_match_in_process(self, tmp_path, capsys):
        # sphere-sim loads no scipy function; cap_ratio is betainc's first
        # call, reduce-u that of linprog and nnls
        sim = TestSphereSim.ARGS
        _, sim_out = run(sim, capsys)
        assert fresh_python("-m", "rdsi", *sim) == sim_out
        witness = reduce_u_witness_file(tmp_path)
        _, reduce_out = run(["reduce-u", "--input", witness], capsys)
        assert fresh_python("-m", "rdsi", "reduce-u", "--input", witness) == reduce_out
        cap = "from rdsi.sphere import cap_ratio; print(repr(cap_ratio(7, 0.3)))"
        assert fresh_python("-c", cap) == repr(cap_ratio(7, 0.3)) + "\n"
