"""Property tests of the exact-error kernels and of the CLI over drawn inputs."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenogate import cli, gate
from zenogate.gate import AbsorberRates, GateGeometry

# decay exponents: no absorber, a perfect one, and the log-spread range that
# the design search and the curves use
DECAYS = st.sampled_from((0.0, math.inf)) | st.floats(-8.0, 1.0).map(lambda e: 10.0**e)
# N and the beam-splitter angle of one element (None: the default angle)
GEOMETRIES = st.tuples(st.integers(1, 100_000), st.none() | st.floats(1e-6, 3.0))


# Drawing dominates this test's time, per example and per element alike.
# Batches of up to 64 elements let 3,500 examples check 22,889 elements;
# 10,000 examples of up to 3 checked 22,151.
@settings(max_examples=3_500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    branches=st.sampled_from((2, 3)),
    uniform=st.booleans(),
    elements=st.lists(st.tuples(GEOMETRIES, DECAYS, DECAYS), min_size=1, max_size=64),
)
def test_batch_equals_scalar_bit_for_bit(branches, uniform, elements):
    # one geometry for the whole batch, or one per element
    geometries = [GateGeometry(branches, n, angle) for (n, angle), _, _ in elements]
    if uniform:
        geometries = [geometries[0]] * len(elements)
    x1 = [e[1] for e in elements]
    x2 = [e[2] for e in elements]
    p1, p2 = gate.exact_errors_batch(geometries[0] if uniform else geometries, x1, x2)
    for i, geometry in enumerate(geometries):
        scalar = gate.exact_errors(geometry, AbsorberRates(x1[i], x2[i]))
        # the same bits: equal doubles, with -0.0 and 0.0 told apart
        assert [np.float64(v).tobytes() for v in scalar] == [p1[i].tobytes(), p2[i].tobytes()]


# CLI numbers: 0 and inf, log-spread positive values and small signed ones
NUMBERS = (st.sampled_from((0.0, math.inf)) | st.floats(-4.0, 6.0).map(lambda e: 10.0**e)
           | st.floats(-2.0, 2.0)).map(repr)
SEGMENTS = st.integers(-1, 10_000).map(str)
BRANCHES = st.sampled_from(("2", "3"))


def scaled(default):
    """default times 10^e: e within 3 decades, or anywhere in float range"""
    exponents = st.floats(-3.0, 3.0) | st.floats(-300.0, 300.0)
    return exponents.map(lambda e: repr(default * 10.0**e))


# the atom of absorber and tables, around the CLI defaults (area: the
# diffraction limit (500 nm / 2)^2)
ATOM = {"--wavelength": scaled(500.0), "--delta": scaled(3e12), "--delta-control": scaled(3e13),
        "--dipole-length": scaled(0.3175), "--area": scaled(62_500.0), "--f": scaled(1.0)}
COUNTS = st.integers(-1, 10**12).map(str)


@st.composite
def cli_argv(draw):
    """argv of gate, curve, demo, absorber, tables or enhance with each
    mechanism; each optional flag is given a drawn value or left out."""
    def optional(argv, options):
        for flag, values in options.items():
            if draw(st.booleans()):
                argv += [flag, draw(values)]
        return argv

    command = draw(st.sampled_from(("gate", "curve", "demo", "absorber", "tables", "multipass",
                                    "dicke", "random_phase", "pump")))
    if command == "gate":
        argv = optional(["gate", "--N", draw(SEGMENTS)], {"--branches": BRANCHES,
                                                           "--epsilon": NUMBERS})
        # kappa, both decays, or one decay alone (exit 2)
        for flag in draw(st.sampled_from((["--kappa"], ["--xi1", "--xi2"], ["--xi1"]))):
            argv += [flag, draw(NUMBERS)]
        return argv + draw(st.sampled_from(([], ["--control"])))
    if command == "curve":
        return optional(["curve"], {"--kappa": NUMBERS, "--N": SEGMENTS, "--xi2-max": NUMBERS,
                                    "--samples": st.integers(0, 200).map(str),
                                    "--branches": BRANCHES})
    if command == "demo":
        return ["demo", "--N", draw(SEGMENTS)]
    if command in ("absorber", "tables"):
        return optional([command], ATOM) + draw(st.sampled_from(([], ["--lambda-scheme"])))
    if command == "dicke":
        return optional(["enhance", "--mechanism", "dicke"], {"--S": COUNTS, "--s": COUNTS})
    if command == "random_phase":
        return optional(["enhance", "--mechanism", "random_phase"], {
            "--S": st.integers(-1, 2_000).map(str), "--trials": st.integers(-1, 20).map(str),
            "--box": scaled(1000.0), "--dkx": scaled(1.0), "--dky": scaled(1.37),
            "--dkz": scaled(2.11)})
    if command == "pump":
        return optional(["enhance", "--mechanism", "pump"], {
            "--S": COUNTS, "--intensity": scaled(1e10), "--delta-prime": scaled(3e14),
            "--wavelength": scaled(500.0), "--delta": scaled(3e12)})
    return optional(["enhance", "--mechanism", "multipass"], {
        "--n": st.integers(-1, 64).map(str), "--tau": NUMBERS, "--k1L": NUMBERS,
        "--k2L": NUMBERS, "--g13": NUMBERS, "--g12": NUMBERS, "--g11": NUMBERS})


def reject_non_json(token):
    # json.loads takes NaN, Infinity and -Infinity, which JSON does not have
    raise ValueError(f"not JSON: {token}")


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_cli_exits_cleanly_with_probabilities_in_range(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the multipass perturbative-regime warning
        code = cli.main(argv + ["--format", "json"])
    assert code in (0, 2, 3, 4)
    if code == 0:
        doc = json.loads(out.getvalue(), parse_constant=reject_non_json)
        for row in doc["rows"]:
            for name, unit in doc["units"].items():
                if unit == "probability":
                    # within the benchmark's tolerance of [0, 1]
                    assert math.isfinite(row[name]) and -1e-9 <= row[name] <= 1.0 + 1e-9, \
                        (name, row[name])
            if "s_over_S" in row:   # the pumped excited fraction, a number in [0, 1]
                s = row["s_over_S"]
                assert isinstance(s, float) and math.isfinite(s) and 0.0 <= s <= 1.0, s
