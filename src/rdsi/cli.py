"""Command-line front end.

Subcommands: discrete-solve, discrete-sweep, gaussian-curve, sphere-sim,
ext-solve, reduce-u, wz, cr.  Common flags: --input, --output, --seed,
--config KEY=VALUE (repeatable), --format {csv,json}.

Exit statuses: 0 success, 2 parse, 3 assumption/domain, 4 infeasible
configuration, 5 resource cap.  Failures emit a machine-readable error
object.  Outputs are deterministic given (input, seed, config): floats in
CSV are serialized with 12 significant digits and a '.' decimal separator,
JSON reports carry a spec_version field, and the seed is always echoed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import SPEC_VERSION
from .errors import AssumptionError, InfeasibleError, InvalidInstanceError, RdsiError
from .extended import solve_rate_ext
from .gaussian import (
    GaussianProblem,
    NoCodingScheme,
    SchemeParams,
    classify_case,
    r_cr_gaussian,
    r_gaussian,
    r_wz_gaussian,
    scheme_params,
)
from .caratheodory import reduce_aux_u
from .model import DistortionSpec, ExtendedInstance, JointSource, require_valid_source
from .solver import SolveConfig, r_cr, r_wz, solve_rate, tradeoff_sweep
from .sphere import SimConfig, max_epsilon, run_simulation


def _fmt(value) -> str:
    """12-significant-digit float formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.12g}"


def _parse_config_value(raw: str):
    if "," in raw:
        return [_parse_config_value(part) for part in raw.split(",") if part != ""]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


class _Config:
    def __init__(self, pairs, allowed):
        self.values = {}
        for pair in pairs or []:
            if "=" not in pair:
                raise InvalidInstanceError(f"--config entries must be KEY=VALUE, got {pair!r}")
            key, raw = pair.split("=", 1)
            self.values[key.strip()] = _parse_config_value(raw.strip())
        unknown = sorted(set(self.values) - set(allowed))
        if unknown:
            raise InvalidInstanceError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(allowed)) or 'none'}"
            )

    def get(self, key, default=None, required=False):
        if key in self.values:
            return self.values[key]
        if required:
            raise InvalidInstanceError(f"missing required config key {key!r}")
        return default

    def get_float(self, key, default=None, required=False):
        v = self.get(key, default, required)
        return None if v is None else _number(key, v)

    def get_int(self, key, default=None, required=False):
        v = self.get(key, default, required)
        return None if v is None else _integer(key, v)

    def get_list(self, key, required=False, integral=False):
        v = self.get(key, required=required)
        if v is None:
            return None
        cast = _integer if integral else _number
        return [cast(key, x) for x in (v if isinstance(v, list) else [v])]


def _number(key, value) -> float:
    """A parsed config value as a finite float; a string, a list, nan, inf
    or an integer beyond the float range is rejected."""
    if not (isinstance(value, (int, float)) and abs(value) <= sys.float_info.max):
        raise InvalidInstanceError(f"config key {key!r} needs a finite number, got {value!r}")
    return float(value)


def _integer(key, value) -> int:
    """A parsed config value as an int; integral floats such as 1e3 pass."""
    if isinstance(value, int):
        return value
    if not _number(key, value).is_integer():
        raise InvalidInstanceError(f"config key {key!r} needs an integer, got {value!r}")
    return int(value)


def _load_json(path):
    if path is None:
        raise InvalidInstanceError("this subcommand requires --input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"malformed JSON in {path}: {exc}") from exc


def _reshape(data, name, shape):
    arr = np.asarray(data, dtype=float).ravel()
    want = int(np.prod(shape))
    if arr.size != want:
        raise InvalidInstanceError(
            f"field {name!r} has {arr.size} entries, expected {want}"
        )
    return arr.reshape(shape)


def _need(data, key):
    if key not in data:
        raise InvalidInstanceError(f"instance file is missing field {key!r}")
    return data[key]


def load_instance(path):
    """Discrete instance file -> (JointSource, DistortionSpec)."""
    data = _load_json(path)
    nx = int(_need(data, "x_size"))
    ny = int(_need(data, "y_size"))
    nhat = int(_need(data, "xhat_size"))
    src = JointSource(nx, ny, _reshape(_need(data, "pxy"), "pxy", (nx, ny)))
    require_valid_source(src)
    spec = DistortionSpec(
        xhat_size=nhat,
        dd=_reshape(_need(data, "dd"), "dd", (nx, nhat)),
        de=_reshape(_need(data, "de"), "de", (nhat, nhat)),
    )
    return src, spec


def load_extended_instance(path):
    data = _load_json(path)
    nx = int(_need(data, "x_size"))
    ny = int(_need(data, "y_size"))
    nd = int(_need(data, "xhat_d_size"))
    ne = int(_need(data, "xhat_e_size"))
    kk = int(_need(data, "k"))
    src = JointSource(nx, ny, _reshape(_need(data, "pxy"), "pxy", (nx, ny)))
    require_valid_source(src)
    ext = ExtendedInstance(
        xhat_d_size=nd,
        xhat_e_size=ne,
        k=kk,
        dk=_reshape(_need(data, "dk"), "dk", (kk, nx, nd, ne)),
        targets=np.asarray(_need(data, "targets"), dtype=float),
    )
    return src, ext, data


_SOLVE_KEYS = ("z_size", "enumeration_cap")


def _solve_config(cfg: _Config) -> SolveConfig:
    return SolveConfig(
        z_size=cfg.get_int("z_size"),
        enumeration_cap=cfg.get_int("enumeration_cap", 1_000_000),
    )


def _json_report(payload: dict, seed: int) -> str:
    payload = dict(payload)
    payload["spec_version"] = SPEC_VERSION
    payload["seed"] = seed
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) if not isinstance(row.get(c), str) else row[c] for c in columns))
    return "\n".join(lines) + "\n"


def _tabular(rows, columns, fmt, seed):
    if fmt == "json":
        return _json_report({"rows": rows, "columns": columns}, seed)
    return _csv(rows, columns)


def _diagnostics(point) -> dict:
    return {
        "iterations": point.iterations, "gap": point.gap, "path": point.path,
        "multipliers": list(point.multipliers),
    }


def cmd_discrete_solve(args, cfg: _Config) -> str:
    src, spec = load_instance(args.input)
    point = solve_rate(
        src, spec,
        cfg.get_float("dd_target", required=True),
        cfg.get_float("de_target", required=True),
        _solve_config(cfg),
    )
    report = {
        "subcommand": "discrete-solve",
        "dd_target": point.dd_target,
        "de_target": point.de_target,
        "rate": point.rate,
        "achieved_dd": point.achieved_dd,
        "achieved_de": point.achieved_de,
        "label": point.label,
        "witness": {
            "z_size": point.witness.z_size,
            "pz_given_x": point.witness.pz_given_x.tolist(),
            "phi": point.witness.phi.tolist(),
            "psi": point.witness.psi.tolist(),
        },
        "diagnostics": _diagnostics(point),
    }
    return _json_report(report, args.seed)


def cmd_discrete_sweep(args, cfg: _Config) -> str:
    src, spec = load_instance(args.input)
    dd_grid = cfg.get_list("dd_grid", required=True)
    de_grid = cfg.get_list("de_grid", required=True)
    cells = tradeoff_sweep(src, spec, dd_grid, de_grid, _solve_config(cfg))
    rows = []
    for row in cells:
        for cell in row:
            rows.append(
                {
                    "dd": cell.dd_target,
                    "de": cell.de_target,
                    "rate": cell.point.rate if cell.point else None,
                    "achieved_dd": cell.point.achieved_dd if cell.point else None,
                    "achieved_de": cell.point.achieved_de if cell.point else None,
                    "status": cell.status,
                }
            )
    return _tabular(rows, ["dd", "de", "rate", "achieved_dd", "achieved_de", "status"], args.format, args.seed)


def cmd_wz(args, cfg: _Config) -> str:
    src, spec = load_instance(args.input)
    rate = r_wz(src, spec, cfg.get_float("dd_target", required=True), _solve_config(cfg))
    return _json_report({"subcommand": "wz", "rate": rate}, args.seed)


def cmd_cr(args, cfg: _Config) -> str:
    src, spec = load_instance(args.input)
    rate = r_cr(src, spec, cfg.get_float("dd_target", required=True), _solve_config(cfg))
    return _json_report({"subcommand": "cr", "rate": rate}, args.seed)


_CURVE_COLUMNS = ["dd", "de", "case_id", "r_gaussian", "r_wz", "r_cr", "a", "b", "var_w", "error"]


def cmd_gaussian_curve(args, cfg: _Config) -> str:
    var_x = cfg.get_float("var_x", required=True)
    var_u = cfg.get_float("var_u", required=True)
    dd_grid = cfg.get_list("dd", required=True)
    de_grid = cfg.get_list("de", required=True)
    rows = []
    for dd in dd_grid:
        for de in de_grid:
            row = {c: None for c in _CURVE_COLUMNS}
            row.update({"dd": dd, "de": de, "error": ""})
            try:
                problem = GaussianProblem(var_x, var_u, dd, de)
                row["case_id"] = classify_case(problem)
                row["r_gaussian"] = r_gaussian(problem)
                row["r_wz"] = r_wz_gaussian(var_x, var_u, dd)
                row["r_cr"] = r_cr_gaussian(var_x, var_u, dd)
                params = scheme_params(problem)
                if isinstance(params, SchemeParams):
                    row.update({"a": params.a, "b": params.b, "var_w": params.var_w})
            except (AssumptionError, InfeasibleError) as exc:
                row["error"] = str(exc).replace(",", ";")
            rows.append(row)
    return _tabular(rows, _CURVE_COLUMNS, args.format, args.seed)


_SIM_COLUMNS = [
    "n", "trials", "seed", "a", "b", "var_w", "delta", "epsilon", "rate_nominal",
    "empirical_dd", "empirical_de", "freq_src", "freq_enc", "freq_dec1", "freq_dec2", "freq_any",
]


def cmd_sphere_sim(args, cfg: _Config) -> str:
    var_x = cfg.get_float("var_x", required=True)
    var_u = cfg.get_float("var_u", required=True)
    if cfg.get("a") is not None:
        params = SchemeParams(
            a=cfg.get_float("a", required=True),
            b=cfg.get_float("b", required=True),
            var_w=cfg.get_float("var_w", required=True),
            case_id=3,
        )
    else:
        problem = GaussianProblem(
            var_x, var_u, cfg.get_float("dd", required=True), cfg.get_float("de", required=True)
        )
        params = scheme_params(problem)
        if isinstance(params, NoCodingScheme):
            raise AssumptionError(
                f"case {params.case_id} needs no coding; nothing to simulate"
            )
    delta = cfg.get_float("delta", required=True)
    epsilon = cfg.get_float("epsilon")
    if epsilon is None:
        epsilon = 0.5 * max_epsilon(var_x, var_u, params, delta)
    trials = cfg.get_int("trials", 100)
    n_list = cfg.get_list("n", required=True, integral=True)
    rows = []
    for n in n_list:
        sim_cfg = SimConfig(
            n=n, var_x=var_x, var_u=var_u, params=params,
            delta=delta, epsilon=epsilon, trials=trials, seed=args.seed,
        )
        result = run_simulation(sim_cfg)
        rows.append(
            {
                "n": n, "trials": trials, "seed": args.seed,
                "a": params.a, "b": params.b, "var_w": params.var_w,
                "delta": delta, "epsilon": epsilon,
                "rate_nominal": sim_cfg.rate_nominal,
                "empirical_dd": result.empirical_dd,
                "empirical_de": result.empirical_de,
                "freq_src": result.freq_src,
                "freq_enc": result.freq_enc,
                "freq_dec1": result.freq_dec1,
                "freq_dec2": result.freq_dec2,
                "freq_any": result.freq_any,
            }
        )
        # JSON rows only: the CSV keeps _SIM_COLUMNS; null if no trial decoded
        decoded = {"decoded_dd": result.decoded_dd, "decoded_de": result.decoded_de}
        rows[-1].update({k: None if math.isnan(v) else v for k, v in decoded.items()})
    return _tabular(rows, _SIM_COLUMNS, args.format, args.seed)


def cmd_ext_solve(args, cfg: _Config) -> str:
    src, ext, _ = load_extended_instance(args.input)
    point = solve_rate_ext(src, ext, _solve_config(cfg))
    report = {
        "subcommand": "ext-solve",
        "targets": point.targets.tolist(),
        "rate": point.rate,
        "achieved": point.achieved.tolist(),
        "label": point.label,
        "witness": {
            "phi": point.phi.tolist(),
            "psi3": point.psi3.tolist(),
            "p_uz_given_x": point.p_uz_given_x.tolist(),
        },
        "diagnostics": _diagnostics(point),
    }
    return _json_report(report, args.seed)


def cmd_reduce_u(args, cfg: _Config) -> str:
    src, ext, data = load_extended_instance(args.input)
    nz = int(_need(data, "z_size"))
    nu = int(_need(data, "u_size"))
    nx, ny = src.x_size, src.y_size
    pz = _reshape(_need(data, "pz_given_x"), "pz_given_x", (nx, nz))
    pu = _reshape(_need(data, "pu_given_xz"), "pu_given_xz", (nx, nz, nu))
    phi = np.asarray(_need(data, "phi"), dtype=np.int64).reshape(ny, nz)
    psi3 = np.asarray(_need(data, "psi3"), dtype=np.int64).reshape(nx, nz, nu)
    pu_new, psi_new = reduce_aux_u(src, ext, pz, pu, phi, psi3)
    report = {
        "subcommand": "reduce-u",
        "u_size": nu,
        "u_tilde_size": int(pu_new.shape[2]),
        "pu_given_xz": pu_new.tolist(),
        "psi_tilde": psi_new.tolist(),
    }
    return _json_report(report, args.seed)


# subcommand -> (handler, the --config keys it reads)
_COMMANDS = {
    "discrete-solve": (cmd_discrete_solve, ("dd_target", "de_target") + _SOLVE_KEYS),
    "discrete-sweep": (cmd_discrete_sweep, ("dd_grid", "de_grid") + _SOLVE_KEYS),
    "gaussian-curve": (cmd_gaussian_curve, ("var_x", "var_u", "dd", "de")),
    "sphere-sim": (
        cmd_sphere_sim,
        ("var_x", "var_u", "a", "b", "var_w", "dd", "de", "delta", "epsilon", "trials", "n"),
    ),
    "ext-solve": (cmd_ext_solve, _SOLVE_KEYS),
    "reduce-u": (cmd_reduce_u, ()),
    "wz": (cmd_wz, ("dd_target",) + _SOLVE_KEYS),
    "cr": (cmd_cr, ("dd_target",) + _SOLVE_KEYS),
}


def _seed(text: str) -> int:
    """--seed: a nonnegative integer, as numpy's SeedSequence needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"needs a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsi",
        description="Rate-distortion trade-offs with decoder side information "
        "under an encoder-side reconstruction constraint.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default=None, help="instance file (JSON)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--config", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, keys = _COMMANDS[args.subcommand]
    try:
        text = command(args, _Config(args.config, keys))
    except RdsiError as exc:
        error = {"error": {"kind": exc.kind, "message": str(exc)}}
        _emit(_json_report(error, args.seed), args.output)
        return exc.exit_status
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
