"""Command-line front end: parameter ingestion, CSV/JSON emission.

Commands: gate, absorber, enhance, design, tables, curve, demo.  Every
artifact starts with a provenance block (version, seed, config hash) and
formats floats at 12 significant digits so regression diffs stay
meaningful.  Identical (config, seed) produce byte-identical output.

Exit codes: 0 success, 2 invalid arguments or units, or inputs whose
evaluation overflows, divides by zero or exhausts memory, 3 infeasible
design search, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, absorber, enhancement, gate, numerics, optimizer
from .numerics import UnitError, convert, unit_kind

FORMATS = ("csv", "json")


@dataclass(frozen=True)
class Param:
    """Declared command parameter: expected unit kind and CLI reading."""

    kind: str                 # a unit kind, or 'int', 'flag', 'choice'
    cli_unit: str = ""        # unit a bare CLI number is read in
    natural_unit: str = ""    # unit handed to the compute layer
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


_ATOM_PARAMS = {
    "wavelength": Param("length", "nm", "nm", 500.0, help="target-photon wavelength [nm]"),
    "delta": Param("angular_frequency", "1/s", "eV", 3e12, help="target detuning [1/s]"),
    "delta_control": Param("angular_frequency", "1/s", "eV", 3e13, help="control detuning [1/s]"),
    "dipole_length": Param("length", "nm", "1/eV", 6.0 * numerics.BOHR_RADIUS_NM,
                           help="dipole coupling length [nm]"),
    "area": Param("area", "nm^2", "1/eV^2", None,
                  help="beam cross-section [nm^2]; default diffraction limit"),
    "f": Param("dimensionless", default=1.0, help="coupling ratio g12/g23"),
    "lambda_scheme": Param("flag", default=False, help="long-lived middle level variant"),
}

PARAMS: dict[str, dict[str, Param]] = {
    "demo": {
        "N": Param("int", required=True, help="number of position measurements"),
    },
    "gate": {
        "branches": Param("int", default=3),
        "N": Param("int", required=True, help="segment count"),
        "kappa": Param("dimensionless", help="rate ratio; sets balanced rates"),
        "xi1": Param("dimensionless", help="one-photon decay exponent (overrides kappa)"),
        "xi2": Param("dimensionless", help="two-photon decay exponent (overrides kappa)"),
        "epsilon": Param("dimensionless", help="beam-splitter angle [rad]; default per geometry"),
        "control": Param("flag", default=False, help="control photon present"),
    },
    "absorber": dict(_ATOM_PARAMS),
    "enhance": {
        "mechanism": Param("choice", default="multipass",
                           choices=("multipass", "dicke", "random_phase", "pump")),
        "n": Param("int", default=16, help="multipass: number of passes"),
        "k1L": Param("dimensionless", default=2.0 * math.pi * 0.318309886,
                     help="multipass: one-photon phase k1*L [rad]"),
        "k2L": Param("dimensionless", default=2.0 * math.pi * (1.0 - 0.318309886),
                     help="multipass: k2*L [rad]"),
        "tau": Param("dimensionless", default=1e-3),
        "g13": Param("dimensionless", default=1.0),
        "g12": Param("dimensionless", default=1.0),
        "g11": Param("dimensionless", default=1.0),
        "S": Param("int", default=10000, help="dicke/random_phase/pump: emitter count"),
        "s": Param("int", default=0, help="dicke: coherent excitations"),
        "trials": Param("int", default=200, help="random_phase: Monte-Carlo trials"),
        "box": Param("dimensionless", default=1000.0, help="random_phase: box edge"),
        "dkx": Param("dimensionless", default=1.0),
        "dky": Param("dimensionless", default=1.37),
        "dkz": Param("dimensionless", default=2.11),
        "intensity": Param("intensity", "W/cm^2", "eV^4", 1e10, help="pump intensity [W/cm^2]"),
        "delta_prime": Param("angular_frequency", "1/s", "eV", 3e14, help="pump detuning [1/s]"),
        "wavelength": Param("length", "nm", "nm", 500.0),
        "delta": Param("angular_frequency", "1/s", "eV", 3e12),
    },
    "design": {
        "p_target": Param("dimensionless", required=True, help="error budget in (0,1)"),
        "strategy": Param("choice", default="all",
                          choices=("all", "min_n", "balanced", "min_kappa")),
        "kappa_max": Param("dimensionless", default=1e6),
        "n_max": Param("int", default=200),
    },
    "tables": dict(_ATOM_PARAMS),
    "curve": {
        "kappa": Param("dimensionless", default=1e3),
        "N": Param("int", default=1000),
        "xi2_max": Param("dimensionless", default=0.14),
        "samples": Param("int", default=141),
        "branches": Param("int", default=2),
    },
}

_CONFIG_KEYS = {"command", "parameters", "format", "output", "seed"}

# Quantities must be finite (NaN or inf gave NaN rows or tracebacks), except
# the decay exponents and their ratio: the gate model checks those itself and
# takes +inf, the perfect absorber (or no one-photon loss).
_CHECKED_BY_MODEL = frozenset({"xi1", "xi2", "kappa"})


class CliError(Exception):
    """Invalid arguments, units or config (exit code 2)."""


def _coerce(command: str, name: str, value, unit: str | None):
    """Validate one parameter against its declaration; return compute value."""
    spec = PARAMS[command][name]
    if spec.kind == "flag":
        return bool(value)
    if spec.kind == "choice":
        if value not in spec.choices:
            raise CliError(f"parameter {name!r} must be one of {spec.choices}")
        return value
    if spec.kind == "int":
        if unit not in (None, "", "dimensionless"):
            raise CliError(f"parameter {name!r} expects a dimensionless integer, got unit {unit!r}")
        number = float(value)
        if not math.isfinite(number) or number != int(number):
            raise CliError(f"parameter {name!r} must be an integer")
        return int(number)
    # numeric quantity
    if unit is None:
        unit = spec.cli_unit or ""
    try:
        kind = unit_kind(unit)
    except UnitError as exc:
        raise CliError(f"parameter {name!r}: {exc}") from None
    if kind != spec.kind:
        raise CliError(f"parameter {name!r} expects kind {spec.kind!r}, got {kind!r} ({unit!r})")
    target = spec.natural_unit or unit
    number = convert(float(value), unit, target)
    # a wavelength of 0 has no frequency; NaN or inf lengths give no atom
    if kind == "length" and not 0.0 < number < math.inf:
        raise CliError(f"parameter {name!r} must be a positive finite length")
    if not math.isfinite(number) and name not in _CHECKED_BY_MODEL:
        raise CliError(f"parameter {name!r} must be finite")
    return number


def _effective_parameters(command: str, raw: dict) -> dict:
    for name in raw:
        if name not in PARAMS[command]:
            raise CliError(f"unknown parameter {name!r} for command {command!r}")
    out = {}
    for name, spec in PARAMS[command].items():
        if name in raw:
            value, unit = raw[name]
            out[name] = _coerce(command, name, value, unit)
        elif spec.required:
            raise CliError(f"missing required parameter {name!r} for {command!r}")
        elif spec.default is None:
            out[name] = None
        else:
            # defaults are declared in the CLI unit and converted like input
            out[name] = _coerce(command, name, spec.default, None)
    return out


def load_config(path: str) -> dict:
    """Parse a JSON run config (strict keys, {value, unit} parameters)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key {key!r}")
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise CliError("config 'parameters' must be an object")
    raw = {}
    for name, entry in params.items():
        if not isinstance(entry, dict) or "value" not in entry:
            raise CliError(f"parameter {name!r} must be a {{value, unit}} object")
        for key in entry:
            if key not in ("value", "unit"):
                raise CliError(f"parameter {name!r}: unknown key {key!r}")
        raw[name] = (entry["value"], entry.get("unit", None))
    doc["parameters"] = raw
    return doc


def _canonical_config(command: str, params: dict, fmt: str, output, seed: int) -> dict:
    """Effective config in the file schema (parameters in CLI units)."""
    entries = {}
    for name, spec in PARAMS[command].items():
        value = params[name]
        if value is None:
            continue
        if spec.kind == "flag":
            entries[name] = {"value": int(value), "unit": ""}
        elif spec.kind in ("choice", "int"):
            entries[name] = {"value": value, "unit": ""}
        else:
            cli_value = convert(value, spec.natural_unit or "", spec.cli_unit or "")
            entries[name] = {"value": float(f"{cli_value:.12g}"), "unit": spec.cli_unit or ""}
    return {
        "command": command,
        "parameters": entries,
        "format": fmt,
        "output": output,
        "seed": seed,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# unit of every output column that has one; the others are dimensionless
_COLUMN_UNITS = {
    "epsilon": "rad",
    **dict.fromkeys(("g12", "g23", "g13_bound", "g11", "g_eff"), "natural"),
    **dict.fromkeys((
        "survival", "p_error_exact", "p_error_leading", "p_target",
        "p1_exact", "p2_exact", "p1_approx", "p2_approx", "p1_segment", "p2_segment",
        "p_2gamma", "p_1gamma", "p_1gamma_simplified", "p_1gamma_absorption",
        "p_1gamma_scatter",
    ), "probability"),
}


def _json_text(doc) -> str:
    """doc as JSON text.  JSON has no inf or NaN: a non-finite float is
    written as the string the CSV has for it, "inf", "-inf" or "nan"."""
    def finite(value):
        if isinstance(value, float) and not math.isfinite(value):
            return _fmt(value)
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, list):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(doc), sort_keys=True, indent=1, allow_nan=False) + "\n"


def emit(rows, fmt, output, provenance) -> str:
    """Serialize rows; the columns are the keys of the first row, in order."""
    columns = list(rows[0]) if rows else []
    units = {n: _COLUMN_UNITS.get(n, "dimensionless") for n in columns}
    if fmt == "csv":
        lines = [f"# zenogate {provenance['version']}"]
        lines.append(f"# seed={provenance['seed']}")
        lines.append(f"# config_hash={provenance['config_hash']}")
        lines.append("# units: " + ",".join(f"{n}={u}" for n, u in units.items()))
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[n]) for n in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "provenance": provenance,
            "units": units,
            "rows": [
                {n: (float(f"{row[n]:.12g}") if isinstance(row[n], float) else row[n])
                 for n in columns}
                for row in rows
            ],
        }
        text = _json_text(doc)
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _atom_from_params(p: dict) -> absorber.AtomSpec:
    omega1 = convert(p["wavelength"], "nm", "eV")
    area = p["area"]
    if area is None:
        area = absorber.diffraction_limited_area(p["wavelength"])
    return absorber.AtomSpec.from_photon(
        omega1=omega1,
        detuning=p["delta"],
        detuning_control=p["delta_control"],
        dipole_length=p["dipole_length"],
        beam_area=area,
        coupling_ratio=p["f"],
        lambda_scheme=p["lambda_scheme"],
    )


def _run_demo(p, seed):
    return [{"segments": p["N"], "survival": gate.zeno_demo_survival(p["N"])}]


def _run_gate(p, seed):
    branches, n = p["branches"], p["N"]
    geom = gate.GateGeometry(branches, n, p["epsilon"])
    if p["xi1"] is not None or p["xi2"] is not None:
        if p["xi1"] is None or p["xi2"] is None:
            raise CliError("xi1 and xi2 must be given together")
        rates = gate.AbsorberRates(p["xi1"], p["xi2"])
    elif p["kappa"] is not None:
        rates, _ = gate.optimal_rates(p["kappa"], n, branches)
    else:
        raise CliError("give either kappa or both xi1 and xi2")
    p1, p2 = gate.exact_errors(geom, rates)
    a1, a2 = gate.leading_errors(geom, rates.one_photon, rates.two_photon)
    exact, approx = (p2, a2) if p["control"] else (p1, a1)
    return [{
        "branches": branches, "segments": n, "epsilon": geom.angle,
        "xi_1gamma": rates.one_photon, "xi_2gamma": rates.two_photon,
        # the truncations exceed 1 where the rates leave their regime (a
        # perfect absorber, no absorber): clipped as in error_curve
        "control": p["control"], "p_error_exact": exact, "p_error_leading": min(approx, 1.0),
    }]


def _run_absorber(p, seed):
    spec = _atom_from_params(p)
    coup = absorber.coupling_constants(spec)
    p2 = absorber.two_photon_absorption_prob(spec)
    p1 = absorber.one_photon_scattering_prob(spec)
    p1s = absorber.one_photon_scattering_prob(spec, include_control=False, include_a2_term=False)
    return [{
        "p_2gamma": p2, "p_1gamma": p1, "p_1gamma_simplified": p1s,
        "kappa0": absorber.absorption_ratio(spec),
        "kappa0_measured": absorber.measured_absorption_ratio(spec),
        "g12": coup.g12, "g23": coup.g23, "g13_bound": coup.g13_bound,
        "g11": coup.g11, "g_eff": coup.g_eff,
    }]


def _run_enhance(p, seed):
    mech = p["mechanism"]
    if mech == "multipass":
        spec = enhancement.MultiPassSpec(
            passes=p["n"], k1=p["k1L"], k2=p["k2L"] , path_length=1.0,
            tau=p["tau"], g13=p["g13"], g12=p["g12"], g11=p["g11"],
        )
        probs = enhancement.multipass_probabilities(spec)
        return [{
            "passes": p["n"], "p_2gamma": probs.two_photon,
            "p_1gamma_absorption": probs.one_photon_absorption,
            "p_1gamma_scatter": probs.one_photon_scatter,
        }]
    if mech == "dicke":
        two, bound = enhancement.dicke_enhancement(p["S"], p["s"])
        return [{"emitters": p["S"], "excited": p["s"],
                 "two_photon_factor": two, "scatter_factor_bound": bound}]
    if mech == "random_phase":
        mean, err = enhancement.random_phase_sum(
            p["S"], np.array([p["dkx"], p["dky"], p["dkz"]]), p["box"], seed, p["trials"]
        )
        return [{"emitters": p["S"], "trials": p["trials"],
                 "mean_sq_sum": mean, "stderr": err}]
    # pump
    atom = absorber.AtomSpec.from_photon(
        omega1=convert(p["wavelength"], "nm", "eV"),
        detuning=p["delta"],
    )
    pump = enhancement.PumpSpec.balanced(atom, p["intensity"], p["delta_prime"],
                                         emitter_count=p["S"])
    state = enhancement.pump_steady_state(pump)
    return [{"s_over_S": state.excited_fraction,
             "coherent_amplitude": abs(state.coherent_amplitude),
             "pump_safe": state.pump_safe}]


def _design_rows(points):
    rows = []
    for pt in points:
        rows.append({
            "p_target": pt.p_target, "segments": pt.segments, "kappa": pt.kappa,
            "xi_1gamma": pt.rates.one_photon, "xi_2gamma": pt.rates.two_photon,
            "p1_exact": pt.p1_exact, "p2_exact": pt.p2_exact,
            "p2_segment": pt.p2_segment, "p1_segment": pt.p1_segment,
            "enhancement": pt.enhancement if pt.enhancement is not None else 0,
        })
    return rows


def _run_design(p, seed):
    config = optimizer.SearchConfig(kappa_max=p["kappa_max"], n_max=p["n_max"])
    strategy = None if p["strategy"] == "all" else p["strategy"]
    points = optimizer.search_feasible_nk(p["p_target"], strategy, config=config)
    return _design_rows(points)


def _run_tables(p, seed):
    spec = _atom_from_params(p)
    tables = optimizer.generate_tables(spec)
    rows = []
    for tid, points in (
        (1, tables.feasibility), (2, tables.small_n),
        (3, tables.balanced), (4, tables.small_kappa),
    ):
        for row in _design_rows(points):
            rows.append({"table": tid, **row})
    return rows


def _run_curve(p, seed):
    points = optimizer.error_curve(p["kappa"], p["N"], p["xi2_max"], p["samples"], p["branches"])
    return [pt._asdict() for pt in points]   # the CurvePoint fields, in order


_RUNNERS = {
    "demo": _run_demo,
    "gate": _run_gate,
    "absorber": _run_absorber,
    "enhance": _run_enhance,
    "design": _run_design,
    "tables": _run_tables,
    "curve": _run_curve,
}


def _add_global_flags(parser: argparse.ArgumentParser, default) -> None:
    parser.add_argument("--config", default=default,
                        help="JSON run config; flags override file values")
    parser.add_argument("--format", choices=FORMATS, default=default)
    parser.add_argument("--output", default=default, help="path; default stdout")
    parser.add_argument("--seed", type=int, default=default)
    parser.add_argument("--print-config", action="store_true", default=default,
                        help="print the effective config and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenogate",
        description="Quantum-Zeno two-photon gate simulator and design toolkit",
        allow_abbrev=False,
    )
    _add_global_flags(parser, None)
    sub = parser.add_subparsers(dest="command")
    for command, params in PARAMS.items():
        sp = sub.add_parser(command, allow_abbrev=False)
        # the global flags are taken after the subcommand too; a flag given
        # only before it keeps its value, since the copies set no default
        _add_global_flags(sp, argparse.SUPPRESS)
        for name, spec in params.items():
            flag = "--" + name.replace("_", "-")
            if spec.kind == "flag":
                sp.add_argument(flag, dest=name, action="store_const", const=True,
                                default=None, help=spec.help)
            elif spec.kind == "choice":
                sp.add_argument(flag, dest=name, choices=spec.choices, default=None,
                                help=spec.help)
            else:
                sp.add_argument(flag, dest=name, type=str, default=None, help=spec.help)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    file_cfg = load_config(args.config) if args.config else {}
    command = args.command or file_cfg.get("command")
    if not command:
        raise CliError("no command given (argument or config 'command')")
    if command not in PARAMS:
        raise CliError(f"unknown command {command!r}")

    raw = dict(file_cfg.get("parameters", {}))
    if args.command:
        for name in PARAMS[command]:
            value = getattr(args, name, None)
            if value is not None:
                raw[name] = (value, None)  # CLI values are in the declared CLI unit
    params = _effective_parameters(command, raw)

    fmt = args.format or file_cfg.get("format") or "csv"
    if fmt not in FORMATS:
        raise CliError(f"format must be one of {FORMATS}")
    output = args.output if args.output is not None else file_cfg.get("output")
    seed = args.seed if args.seed is not None else int(file_cfg.get("seed", 0))
    if not 0 <= seed < 2**64:
        raise CliError("seed must be an unsigned 64-bit integer")

    effective = _canonical_config(command, params, fmt, output, seed)
    if args.print_config:
        sys.stdout.write(_json_text(effective))
        return 0

    config_hash = hashlib.sha256(
        json.dumps(effective, sort_keys=True).encode()
    ).hexdigest()[:12]
    provenance = {"version": __version__, "seed": seed, "config_hash": config_hash}

    emit(_RUNNERS[command](params, seed), fmt, output, provenance)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help / usage errors
        return int(exc.code or 0)
    except optimizer.InfeasibleDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliError, UnitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ArithmeticError, MemoryError) as exc:  # inputs beyond float range or memory
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
