"""Seeded op mixes of the three workloads, their executors and output checks.

A workload is an endless stream of blocks.  Block b depends only on the
seed and b, never on how many blocks a run gets through.  Every block holds
the same op kinds in the same numbers.  Each continuous input follows a
shifted Kronecker sequence over the blocks, frac(shift + b * step), with
the shift drawn from the seed, and discrete choices rotate from a seeded
offset: any run of consecutive blocks spreads the inputs evenly over their
ranges, so two seeds differ in their draws but hardly in the work a run
does.  Shuffles, flags, output formats and the points picked for reference
checks come from a per-block generator.

sweep   4 x error_curve (2,000 samples), 4 x exact_crossing, 4 x a loop of
        1,000 three-branch exact_errors calls over a kappa grid; kappa
        log-uniform in [1e2, 1e4], N log-spread over [10, 1e5], 2 or 3 branches.
design  8 x search_feasible_nk with the exact model (each strategy and
        n_max in {200, 400} once), 3 x with exact_free (min_n or min_kappa,
        balanced, all), 1 x generate_tables for a seeded atom; P uniform in
        [0.05, 0.5].
cli     11 x `python -m zenogate.cli`: demo, gate, absorber, enhance
        multipass / dicke / random_phase (twice) / pump, design, tables,
        curve; seeded values around the shipped defaults, csv or json, three
        ops per block read from a --config file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import reference as ref
from zenogate import absorber, gate, optimizer

WORKLOADS = ("sweep", "design", "cli")
KAPPA_GRID = [10.0 ** (2.0 + 2.0 * j / 999) for j in range(1000)]


@dataclass
class Op:
    kind: str
    args: dict
    argv: list = field(default_factory=list)   # cli ops only


@dataclass
class Outcome:
    """Result of one op after its checks: 'ok', 'refused' or 'failed'."""

    status: str
    deferred: list = field(default_factory=list)   # (check, args) run after timing
    detail: str = ""
    excursions: int = 0   # probabilities outside [0, 1] by no more than ref.TOL


@dataclass
class Refused:
    """A documented refusal returned by an op in place of a result."""

    message: str


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"zenogate-bench:{workload}:{seed}:{block}")


def _primes(count: int) -> list[int]:
    out, n = [], 2
    while len(out) < count:
        if all(n % q for q in out):
            out.append(n)
        n += 1
    return out


# Fractional parts of square roots of distinct primes: rationally independent
# steps, so the streams of one op are jointly equidistributed.
_STEPS = [math.sqrt(p) % 1.0 for p in _primes(64)]


class Draws:
    """The inputs of block b of one workload and seed.

    Stream j gives frac(shift_j + (b*of + k) * step_j) for the k-th of `of`
    draws per block, with shift_j drawn from the seed; cycle() rotates
    through a list from a seeded offset; rng is the block's own generator.
    """

    def __init__(self, workload: str, seed: int, block: int):
        shifts = random.Random(f"zenogate-bench:{workload}:{seed}:shifts")
        self._shift = [shifts.random() for _ in _STEPS]
        self.block = block
        self.rng = block_rng(workload, seed, block)

    def uniform(self, j: int, lo: float, hi: float, k: int = 0, of: int = 1) -> float:
        x = (self._shift[j] + (self.block * of + k) * _STEPS[j]) % 1.0
        return lo + (hi - lo) * x

    def log_uniform(self, j: int, lo: float, hi: float) -> float:
        return 10.0 ** self.uniform(j, math.log10(lo), math.log10(hi))

    def integer(self, j: int, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return min(hi, lo + int(self.uniform(j, 0.0, hi - lo + 1)))

    def cycle(self, j: int, choices: tuple):
        return choices[(int(self._shift[j] * len(choices)) + self.block) % len(choices)]


def make_block(workload: str, seed: int, block: int, workdir: str | None = None) -> list[Op]:
    d = Draws(workload, seed, block)
    if workload == "sweep":
        ops = sweep_block(d)
    elif workload == "design":
        ops = design_block(d)
    else:
        ops = cli_block(d, workdir, f"b{block}")
    d.rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- sweep

def sweep_block(d: Draws) -> list[Op]:
    ops = []
    for slot, kind in enumerate(("curve", "crossing", "loop")):
        for i, branches in enumerate((2, 2, 3, 3)):
            j = 2 * (4 * slot + i)
            args = {"segments": int(round(10.0 ** d.uniform(j, 1.0, 5.0))),
                    "kappa": 10.0 ** d.uniform(j + 1, 2.0, 4.0)}
            if kind == "curve":
                args.update(branches=branches, samples=2000,
                            ref_points=d.rng.sample(range(2000), 2))
            elif kind == "crossing":
                args.update(branches=branches)
            else:
                args.update(branches=3, ref_points=d.rng.sample(range(1000), 2))
                del args["kappa"]
            ops.append(Op(kind, args))
    return ops


def _loop(n: int) -> list:
    geom = gate.GateGeometry(3, n)
    return [gate.exact_errors(geom, gate.optimal_rates(k, n, 3)[0]) for k in KAPPA_GRID]


def sweep_execute(op: Op):
    a = op.args
    if op.kind == "curve":
        return optimizer.error_curve(a["kappa"], a["segments"], 0.14, a["samples"], a["branches"])
    if op.kind == "crossing":
        try:
            return optimizer.exact_crossing(a["kappa"], a["segments"], a["branches"])
        except ValueError as exc:
            if "no crossing bracketed" not in str(exc):
                raise
            return Refused(str(exc))
    return _loop(a["segments"])


def sweep_check(op: Op, result) -> Outcome:
    a = op.args
    n, br = a["segments"], a["branches"]
    if op.kind == "crossing":
        if isinstance(result, Refused):
            return Outcome("refused", [(ref.refusal_truthful, (br, n, a["kappa"]))])
        xi2, p = result
        ok, excursions = ref.range_check([p])
        if not ok:
            return Outcome("failed", detail=f"crossing probability {p}")
        return Outcome("ok", [(ref.crossing_correct, (br, n, a["kappa"], float(xi2), float(p)))],
                       excursions=excursions)
    if op.kind == "curve":
        if len(result) != a["samples"]:
            return Outcome("failed", detail="curve length")
        ok, excursions = ref.range_check(
            p for pt in result for p in (pt.p1_exact, pt.p2_exact, pt.p1_approx, pt.p2_approx))
        if not ok:
            return Outcome("failed", detail="curve probability out of range")
        deferred = []
        for i in a["ref_points"]:
            x2 = 0.14 * i / (a["samples"] - 1)
            pt = result[i]
            if abs(pt.xi_2gamma - x2) > 1e-15:
                return Outcome("failed", detail="curve abscissa")
            deferred.append((ref.matches, (br, n, x2 / a["kappa"], x2,
                                           float(pt.p1_exact), float(pt.p2_exact))))
        return Outcome("ok", deferred, excursions=excursions)
    if len(result) != len(KAPPA_GRID):
        return Outcome("failed", detail="loop length")
    ok, excursions = ref.range_check(p for pair in result for p in pair)
    if not ok:
        return Outcome("failed", detail="loop probability out of range")
    deferred = []
    for j in a["ref_points"]:
        x1, x2 = ref.balanced_rates(KAPPA_GRID[j], n, 3)
        p1, p2 = result[j]
        deferred.append((ref.matches, (3, n, x1, x2, float(p1), float(p2))))
    return Outcome("ok", deferred, excursions=excursions)


# ---------------------------------------------------------------- design

def design_block(d: Draws) -> list[Op]:
    ops = []
    # one stream per model, so the P values of a run spread over [0.05, 0.5]
    # as a whole and not per slot
    exact = [(s, m) for s in ("min_n", "balanced", "min_kappa", "all") for m in (200, 400)]
    for k, (strategy, n_max) in enumerate(exact):
        ops.append(Op("search", {"p_target": d.uniform(0, 0.05, 0.5, k, len(exact)),
                                 "strategy": strategy, "n_max": n_max, "model": "exact"}))
    free = (d.cycle(1, ("min_n", "min_kappa")), "balanced", "all")
    for k, strategy in enumerate(free):
        ops.append(Op("search", {"p_target": d.uniform(2, 0.05, 0.5, k, len(free)),
                                 "strategy": strategy, "n_max": d.cycle(3 + k, (200, 400)),
                                 "model": "exact_free"}))
    detuning = 10.0 ** d.uniform(6, 12.0, 13.0)
    ops.append(Op("tables", {"wavelength_nm": d.uniform(7, 400.0, 800.0), "detuning": detuning,
                             "detuning_control": detuning * d.uniform(8, 5.0, 20.0)}))
    return ops


def design_execute(op: Op):
    a = op.args
    if op.kind == "tables":
        spec = absorber.optical_example(a["wavelength_nm"], a["detuning"], a["detuning_control"])
        return optimizer.generate_tables(spec)
    strategy = None if a["strategy"] == "all" else a["strategy"]
    return optimizer.search_feasible_nk(
        a["p_target"], strategy, error_model=a["model"],
        config=optimizer.SearchConfig(n_max=a["n_max"]),
    )


def design_check(op: Op, result) -> Outcome:
    a = op.args
    if op.kind == "tables":
        points = result.feasibility
        if len(points) != 9 or any(not isinstance(p.enhancement, int) or p.enhancement < 1
                                   for p in points):
            return Outcome("failed", detail="tables shape or enhancement")
    else:
        points = result
        if len(points) != (3 if a["strategy"] == "all" else 1):
            return Outcome("failed", detail="design point count")
        if any(not 1 <= p.segments <= a["n_max"] for p in points):
            return Outcome("failed", detail="design N outside [1, n_max]")
    ok, excursions = ref.range_check(
        x for p in points for x in (p.p1_exact, p.p2_exact, p.p1_segment, p.p2_segment))
    if not ok:
        return Outcome("failed", detail="design probability out of range")
    return Outcome("ok", [(ref.design_point_certified, (p,)) for p in points],
                   excursions=excursions)


# ---------------------------------------------------------------- cli

# CLI unit of each parameter the mix sets (the unit a bare flag value is read in)
_CLI_UNITS = {"wavelength": "nm", "delta": "1/s", "delta_control": "1/s",
              "delta_prime": "1/s", "intensity": "W/cm^2"}
_CLI_TEMPLATES = ("demo", "gate", "absorber", "multipass", "dicke", "random_phase",
                  "random_phase", "pump", "design", "tables", "curve")


def _cli_params(d: Draws, template: str, j: int) -> tuple[str, dict]:
    """(subcommand, parameters in CLI units) around the shipped defaults.

    Streams j, j+1, ... carry the template's continuous inputs.
    """
    if template == "demo":
        return "demo", {"N": d.integer(j, 1, 1000)}
    if template == "gate":
        return "gate", {"branches": d.cycle(j, (2, 3)), "N": d.integer(j + 1, 10, 200),
                        "kappa": d.log_uniform(j + 2, 300.0, 5000.0),
                        "control": d.rng.random() < 0.5}
    if template in ("absorber", "tables"):
        delta = d.log_uniform(j, 1e12, 1e13)
        params = {"wavelength": d.uniform(j + 1, 400.0, 700.0), "delta": delta,
                  "delta_control": delta * d.uniform(j + 2, 5.0, 20.0)}
        if template == "absorber":
            params.update(f=d.uniform(j + 3, 0.5, 2.0), lambda_scheme=d.rng.random() < 0.5)
        return template, params
    if template == "multipass":
        k1l = 2.0 * math.pi * d.uniform(j, 0.2, 0.45)
        return "enhance", {"mechanism": "multipass", "n": d.integer(j + 1, 8, 32),
                           "k1L": k1l, "k2L": 2.0 * math.pi - k1l,
                           "tau": d.log_uniform(j + 2, 3e-4, 3e-3)}
    if template == "dicke":
        s_total = d.integer(j, 1000, 20000)
        return "enhance", {"mechanism": "dicke", "S": s_total,
                           "s": int(d.uniform(j + 1, 0.0, 0.1) * s_total)}
    if template == "random_phase":
        return "enhance", {"mechanism": "random_phase", "S": d.integer(j, 7000, 13000),
                           "trials": d.integer(j + 1, 150, 250),
                           "box": d.uniform(j + 2, 500.0, 2000.0)}
    if template == "pump":
        return "enhance", {"mechanism": "pump", "intensity": d.log_uniform(j, 3e9, 3e10),
                           "delta_prime": d.log_uniform(j + 1, 1e14, 1e15),
                           "S": d.integer(j + 2, 1, 10000),
                           "wavelength": d.uniform(j + 3, 400.0, 700.0),
                           "delta": d.log_uniform(j + 4, 1e12, 1e13)}
    if template == "design":
        return "design", {"p_target": d.uniform(j, 0.1, 0.5),
                          "strategy": d.cycle(j + 1, ("all", "min_n", "balanced", "min_kappa")),
                          "n_max": d.cycle(j + 2, (200, 400))}
    return "curve", {"kappa": d.log_uniform(j, 300.0, 3000.0), "N": d.integer(j + 1, 100, 10000),
                     "samples": d.integer(j + 2, 100, 200), "xi2_max": d.uniform(j + 3, 0.1, 0.2),
                     "branches": d.cycle(j + 4, (2, 3))}


def cli_block(d: Draws, workdir: str, tag: str) -> list[Op]:
    """One block of CLI ops; config-file ops get their file written in workdir."""
    ops = []
    from_config = set(d.rng.sample(range(len(_CLI_TEMPLATES)), 3))
    for i, template in enumerate(_CLI_TEMPLATES):
        command, params = _cli_params(d, template, 5 * i)
        fmt = d.rng.choice(("csv", "json"))
        seed = d.rng.randrange(1000)
        if i in from_config:
            doc = {"command": command, "format": fmt, "seed": seed, "parameters": {
                name: {"value": int(v) if isinstance(v, bool) else v,
                       "unit": _CLI_UNITS.get(name, "")}
                for name, v in params.items() if v is not False}}
            path = os.path.join(workdir, f"{tag}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = ["--config", path]
        else:
            argv = [command]
            for name, v in params.items():
                flag = "--" + name.replace("_", "-")
                if isinstance(v, bool):
                    argv += [flag] if v else []
                else:
                    argv += [flag, str(v)]
            argv += ["--format", fmt, "--seed", str(seed)]
        ops.append(Op(command, {"format": fmt, "seed": seed}, argv))
    return ops


def cli_subprocess(op: Op, env: dict, cwd: str):
    proc = subprocess.run([sys.executable, "-m", "zenogate.cli", *op.argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess(op: Op):
    """Run the CLI in this process through zenogate.cli.main, stdout captured."""
    from zenogate import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op.argv))
    return code, out.getvalue(), err.getvalue()


def _parse_artifact(text: str, fmt: str):
    """(provenance, {column: unit}, rows as dicts) of a CLI artifact."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["provenance"], doc["units"], doc["rows"]
    lines = text.splitlines()
    if not (lines[0].startswith("# zenogate ") and lines[1].startswith("# seed=")
            and lines[2].startswith("# config_hash=") and lines[3].startswith("# units: ")):
        raise ValueError("csv provenance block missing")
    prov = {"version": lines[0][len("# zenogate "):], "seed": int(lines[1][len("# seed="):]),
            "config_hash": lines[2][len("# config_hash="):]}
    units = dict(item.split("=", 1) for item in lines[3][len("# units: "):].split(","))
    header = lines[4].split(",")
    if header != list(units):
        raise ValueError("csv header does not match the units line")
    rows = []
    for line in lines[5:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError("csv row width")
        rows.append({h: float(v) for h, v in zip(header, fields)})
    return prov, units, rows


def cli_check(op: Op, result) -> Outcome:
    code, out, err = result
    if code != 0:
        return Outcome("failed", detail=f"exit {code}: {err.strip()[:200]}")
    try:
        prov, units, rows = _parse_artifact(out, op.args["format"])
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return Outcome("failed", detail=f"unparsable output: {exc}")
    if set(prov) != {"version", "seed", "config_hash"} or prov["seed"] != op.args["seed"]:
        return Outcome("failed", detail="provenance block")
    if not rows:
        return Outcome("failed", detail="no rows")
    if not all(math.isfinite(row[name]) for row in rows for name in units):
        return Outcome("failed", detail="non-finite value")
    ok, excursions = ref.range_check(
        row[name] for row in rows for name, unit in units.items() if unit == "probability")
    if not ok:
        return Outcome("failed", detail="probability out of range")
    return Outcome("ok", excursions=excursions)
