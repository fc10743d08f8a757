"""Command-line frontend: verification suites, curve generation, model
comparison, the speedup benchmark, and the small closed-form calculators.
An argument @FILE stands for FILE's lines, one argument per line, and a
later argument wins over an earlier one.

Exit codes: 0 success, 1 tolerance/consistency failure (including a
result that overflows or is not finite), 2 usage error, printed as one
line (argparse's own errors, any value a command rejects, and an @FILE
that cannot be read or holds an empty line or a NUL byte), 3 I/O error.
All subcommands are deterministic under a fixed seed; JSON reports carry
a schema_version field and are byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import membrane_material as mm
from . import scenarios as sc
from .lattice import make_frame

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its errors raised as UsageError, which run prints as
    one line; add_subparsers gives every subcommand parser this class."""

    def error(self, message):
        raise UsageError(message)

    def _read_args_from_files(self, arg_strings, reading=()):
        """argparse's @FILE expansion, one argument per line, files naming
        files, with each fault a UsageError that names its argument file: a
        file that cannot be opened or decoded, an empty line or a line with
        a NUL byte in it, or a file that names itself; reading holds the
        real paths of the files being read."""
        out = []
        for arg in arg_strings:
            if not arg.startswith("@"):
                out.append(arg)
                continue
            name = arg[1:]
            try:
                real = os.path.realpath(name)
                with open(name) as fh:
                    lines = fh.read().splitlines()
            except (OSError, ValueError) as e:  # not text, or a NUL in name
                why = getattr(e, "strerror", None) or e
                raise UsageError(
                    f"cannot read argument file {name!r}: {why}") from None
            if real in reading:
                raise UsageError(f"argument file {name!r} names itself, "
                                 f"directly or through another file")
            if "" in lines:
                raise UsageError(f"empty line {lines.index('') + 1} in "
                                 f"argument file {name!r}")
            for n, line in enumerate(lines, 1):
                if "\0" in line:
                    raise UsageError(f"NUL byte in line {n} of argument "
                                     f"file {name!r}")
            out += self._read_args_from_files(lines, (*reading, real))
        return out


def _finite(text: str) -> float:
    """The type of every float flag: a finite number."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _seed(text: str) -> int:
    """The type of --seed: an integer >= 0."""
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


_ascii = json.encoder.encode_basestring_ascii


def _json_node(node, pad: str) -> str:
    """node as json.dumps(node, sort_keys=True, indent=2, allow_nan=False)
    writes it, in one pass, pad being the line break and indent before
    node: the same text, and json's ValueError for a float that is not
    finite and TypeError for a value json cannot write. A key that is not
    a str raises TypeError, and a cycle is not checked: every payload is a
    tree the command builds."""
    kind = type(node)
    if kind is float:
        if math.isfinite(node):
            return float.__repr__(node)
        raise ValueError("Out of range float values are not JSON compliant: "
                         f"{node!r}")
    if kind is dict:
        if not node:
            return "{}"
        inner = pad + "  "
        body = f",{inner}".join([f"{_ascii(k)}: {_json_node(v, inner)}"
                                 for k, v in sorted(node.items())])
        return f"{{{inner}{body}{pad}}}"
    if kind is str:
        return _ascii(node)
    if kind is tuple or kind is list:
        if not node:
            return "[]"
        inner = pad + "  "
        body = f",{inner}".join([_json_node(v, inner) for v in node])
        return f"[{inner}{body}{pad}]"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if node is None:
        return "null"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):  # a subclass, such as np.float64
        return _json_node(float(node), pad)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _non_finite_path(node, path=""):
    """The path, such as reports[0].checks.stress_fd.max, of the first
    float in node that is not finite, in the order _json_node writes them;
    None if there is none."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, v)
                 for k, v in sorted(node.items())]
    elif isinstance(node, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(node)]
    else:
        return (path if isinstance(node, float) and not math.isfinite(node)
                else None)
    for where, v in items:
        if (found := _non_finite_path(v, where)) is not None:
            return found
    return None


def _json_text(payload: dict) -> str:
    """The report of payload, with its schema_version, as json.dumps(...,
    sort_keys=True, indent=2, allow_nan=False) writes it, and a newline; a
    float that is not finite raises ArithmeticError naming its path."""
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    try:
        return _json_node(payload, "\n") + "\n"
    except ValueError as e:  # run's handler names the command
        raise ArithmeticError(f"{e} at {_non_finite_path(payload)}") from None


def _emit(args, payload: dict) -> None:
    """Write the JSON report to --out, if given, then print the same text;
    a failed write prints nothing."""
    text = _json_text(payload)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _protocol_from(args) -> sc.DeformationProtocol:
    lo, hi = args.range
    return sc.DeformationProtocol(args.protocol, math.radians(args.theta_deg),
                                  lo, hi, args.steps)


def cmd_verify(args) -> int:
    models = (list(sc.VERIFY_TOLERANCES) if args.model == "all"
              else [args.model])
    reports = []
    for model in models:
        kw = {"n_samples": args.samples, "seed": args.seed}
        if model != "bending":
            kw["params"] = mm.material_preset(args.param_set)
        reports.append(sc.verify_derivatives(model, **kw))
    ok = all(r["pass"] for r in reports)
    _emit(args, {"command": "verify", "pass": ok, "reports": reports})
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_curve(args) -> int:
    protocol = _protocol_from(args)
    params = mm.material_preset(args.param_set)
    frame = make_frame(0.0)
    points = sc.run_curve(protocol, args.model, params, frame)
    sc.write_curve_csv(args.out, points, args.model, params.name,
                       args.theta_deg)
    lam, peak = sc.peak_of_curve(points)
    in_range = "yes" if protocol.in_fitted_range() else "no"
    sys.stdout.write(f"wrote {len(points)} rows to {args.out}; "
                     f"peak sigma11 {peak:.6g} N/m at lambda {lam:.6g}; "
                     f"max stretch ratio {protocol.max_stretch_ratio():.6g}, "
                     f"in fitted range: {in_range}\n")
    return EXIT_OK


PAPER_COMPARE = {
    ("uniaxial-constrained", 0.0, "GGA"): {"sigma11": 0.019, "sigma22": 0.199},
    ("uniaxial-constrained", 30.0, "GGA"): {"sigma11": 0.019, "sigma22": 0.194},
    ("pure-shear", 0.0, "GGA"): {"sigma11": 0.35, "sigma22": 0.42},
    ("pure-shear", 0.0, "LDA"): {"sigma11": 0.12, "sigma22": 0.22},
}
# the one sweep each protocol's figures describe, from lambda = 1 in more
# than one step to this end: pure shear's is stretch ratio 1.3
PAPER_END = {"uniaxial-constrained": 1.25, "pure-shear": math.sqrt(1.3)}


def cmd_compare(args) -> int:
    protocol = _protocol_from(args)
    params = mm.material_preset(args.param_set)
    frame = make_frame(0.0)
    diffs = sc.compare_models(protocol, params, frame)
    in_range = protocol.in_fitted_range()
    # inside the fitted range, the end within its 1e-12 slack
    (lo, hi), end = args.range, PAPER_END.get(args.protocol, math.nan)
    ref = (PAPER_COMPARE.get((args.protocol, args.theta_deg, args.param_set))
           if in_range and args.steps > 1 and lo == 1.0
           and abs(hi - end) <= 1e-12 * end else None)
    payload = {
        "command": "compare",
        "protocol": {"kind": args.protocol, "theta_deg": args.theta_deg,
                     "range": list(args.range), "steps": args.steps},
        "param_set": args.param_set,
        "measured_max_percent": diffs,
        "max_stretch_ratio": protocol.max_stretch_ratio(),
        "in_fitted_range": in_range,
        "reference_percent": ref,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        report = sc.benchmark_models(mm.material_preset(args.param_set),
                                     n_evals=args.n_evals, seed=args.seed)
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_TOLERANCE
    _emit(args, {"command": "bench", **report})
    return EXIT_OK


def cmd_contact(args) -> int:
    if not (0 < args.r_min < args.r_max and 2 <= args.steps <= sc.MAX_STEPS):
        raise UsageError("need 0 < r-min < r-max and 2 <= steps <= "
                         f"{sc.MAX_STEPS}")
    cp = sc.ContactParams(h0=args.h0, gamma=args.gamma)
    radii = np.linspace(args.r_min, args.r_max, args.steps)
    psi0, tr0 = sc.contact_potential(cp.h0, cp)
    rx = sc.traction_extremum(cp)
    if not all(map(math.isfinite, (psi0, tr0, rx))):
        raise ArithmeticError(f"psi {psi0}, traction {tr0}, extremum {rx} "
                              f"at h0 = {cp.h0} nm")
    if args.out:
        sc.write_contact_csv(args.out, radii, cp)
    sys.stdout.write(
        f"psi(h0={cp.h0}) = {psi0:.6g} N/m, traction(h0) = {tr0:.3g}; "
        f"traction extremum at r = {rx:.9g} nm"
        + (f"; wrote {len(radii)} rows to {args.out}\n" if args.out else "\n"))
    return EXIT_OK


def cmd_beam(args) -> int:
    b = sc.BeamParams(args.modulus, args.r_m, args.length,
                      math.radians(args.theta_w_deg))
    f_w, f_a = sc.beam_force(b, args.delta)
    payload = {"command": "beam", "F_w_nN": f_w, "F_A_nN": f_a,
               "I_y_nm4": b.i_y, "delta_nm": args.delta}
    _emit(args, payload)
    return EXIT_OK


def cmd_cone(args) -> int:
    apex = sc.apex_angle(args.declination)
    payload = {"command": "cone", "declination_deg": args.declination,
               "apex_angle_deg": apex}
    _emit(args, payload)
    return EXIT_OK


def _add_common(sp, with_seed=True, require_out=False):
    sp.add_argument("--param-set", default="GGA", choices=list(mm.PARAM_SETS))
    if with_seed:
        sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--out", required=require_out)


def _add_protocol(sp):
    proto = sc.DeformationProtocol  # the flag defaults are its field defaults
    sp.add_argument("--protocol", default="uniaxial-constrained",
                    choices=list(sc.PROTOCOL_KINDS))
    sp.add_argument("--theta-deg", type=_finite, default=0.0,
                    help="pull direction from the armchair axis, degrees")
    sp.add_argument("--range", type=_finite, nargs=2, metavar=("LO", "HI"),
                    default=(proto.start, proto.end))
    sp.add_argument("--steps", type=int, default=proto.steps)


def _new_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gmem",
        description="Anisotropic hyperelastic membrane and bending models "
                    "for hexagonal 2D crystals, with built-in verification.",
        epilog="Arguments can also be read from a file: @FILE stands for "
               "the file's lines, one argument per line. A later argument "
               "wins over an earlier one.",
        fromfile_prefix_chars="@")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.subcommand_parsers = sub.choices

    sp = sub.add_parser("verify", help="finite-difference derivative checks")
    sp.add_argument("--model", default="all",
                    choices=[*sc.VERIFY_TOLERANCES, "all"])
    sp.add_argument("--samples", type=int, default=200)
    _add_common(sp)

    sp = sub.add_parser("curve", help="stress curve sweep to CSV")
    sp.add_argument("--model", default="metric", choices=list(sc.MODEL_NAMES))
    _add_protocol(sp)
    _add_common(sp, with_seed=False, require_out=True)

    sp = sub.add_parser("compare", help="metric-vs-log sweep differences")
    _add_protocol(sp)
    _add_common(sp, with_seed=False)

    sp = sub.add_parser("bench", help="stress+tangent throughput ratio")
    sp.add_argument("--n-evals", type=int, default=100_000)
    _add_common(sp)

    sp = sub.add_parser("contact", help="adhesion potential calculator")
    sp.add_argument("--r-min", type=_finite, default=0.3)
    sp.add_argument("--r-max", type=_finite, default=1.2)
    sp.add_argument("--steps", type=int, default=46)
    sp.add_argument("--h0", type=_finite, default=0.34)
    sp.add_argument("--gamma", type=_finite, default=0.14)
    sp.add_argument("--out")

    sp = sub.add_parser("beam", help="axially loaded tube force calculator")
    sp.add_argument("--modulus", type=_finite, required=True,
                    help="2D modulus, N/m")
    sp.add_argument("--r-m", type=_finite, required=True,
                    help="mean radius, nm")
    sp.add_argument("--length", type=_finite, required=True,
                    help="length, nm")
    sp.add_argument("--theta-w-deg", type=_finite, required=True)
    sp.add_argument("--delta", type=_finite, default=0.1,
                    help="axial end shortening, nm")
    sp.add_argument("--out")

    sp = sub.add_parser("cone", help="fold-cone apex angle")
    sp.add_argument("--declination", type=_finite, required=True,
                    help="angular declination in degrees")
    sp.add_argument("--out")
    return ap


_PARSER = _new_parser()


def build_parser() -> argparse.ArgumentParser:
    """The parser shared by every run in this process."""
    return _PARSER


def run(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except RecursionError as e:  # argument files nested past the stack
            raise UsageError(f"cannot read argument file: {e}") from None
        # the shared parser holds no functions: cmd_<command> is found here
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as e:  # a UsageError, or a value a command rejects
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except ArithmeticError as e:
        sys.stderr.write(f"error: {args.command} result is not finite: {e}\n")
        return EXIT_TOLERANCE
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
