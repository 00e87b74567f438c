"""Batch experiment runner for parameter sweeps.

Experiments are described by INI config files and dispatched to the
library modules; results are written as CSV (UTF-8, '.' decimal,
scientific notation with 17 significant digits) or JSON, plus a
``.meta.json`` sidecar echoing the config, library version, and wall
time.  Identical config and seed produce byte-identical data files;
only the sidecar's timestamp/walltime fields may differ.  A file that is
already there is rewritten in place and cut to the new length, keeping
its inode and mode.

Validation asks the library: a rule that a library function enforces is
its named ``_check_*`` (or the ``ValueError`` it raises), called at each
grid point, and the violation is the library's message at the first point
that breaks it.  Size rules belong to the code that builds each array:
``cvlimit`` caps windows, not N, and ``encodings`` bounds search stacks.
Only the config grammar (sections, keys, values, an empty grid), gate
target names, ``targets``, ``passes`` and ``resolution`` are checked here.

Config grammar::

    [experiment]
    name = convergence-coherent   ; one of the registered experiments
    seed = 0x55355243             ; optional, 64-bit, default shown

    [parameters]                  ; experiment-specific, see README
    alpha = 1.0
    n_list = 100, 316, 1000
    n_max = 30

    [output]                      ; optional section
    format = csv                  ; csv (default) or json
    filename = coherent           ; stem, default = experiment name

Values are taken as written: ``%`` is an ordinary character (there is no
interpolation), and ``#`` or ``;`` after whitespace starts a comment.

Usage::

    ssrc run --config sweep.ini [--out DIR] [--seed U64]
    ssrc validate --config sweep.ini
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import datetime
import json
import math
import os
import pathlib
import re
import stat
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import __version__, cvlimit, encodings, synthesis
from .hilbert import basis_state, make_basis
from .prng import DEFAULT_SEED, SplitMix64


class ConfigError(ValueError):
    """Invalid experiment configuration; carries all violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


# ---------------------------------------------------------------------------
# Parameter parsing


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in re.split(r"[,\s]+", text.strip()) if t]


def _finite(value, text: str):
    if not cmath.isfinite(value):
        raise ValueError(f"{text.strip()} is not finite")
    return value


def _parse_float(text: str) -> float:
    return _finite(float(text), text)


def _parse_complex(text: str) -> complex:
    return _finite(complex(text.strip().replace(" ", "")), text)


def _parse_seed(text: str) -> int:
    value = int(text.strip(), 0)
    if not 0 <= value < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    parameters: dict
    raw_parameters: dict
    seed: int
    fmt: str
    filename: str


@dataclass(frozen=True)
class _ExperimentSpec:
    """Registry entry: parameter schema, extra validation, runner."""

    params: dict[str, Callable[[str], object]]
    defaults: dict[str, object]
    check: Callable[[dict], list[str]]
    run: Callable[[dict, int], tuple[list[str], list[list], dict]]


def _asks(check: Callable[..., object], *args) -> list[str]:
    """The message of the ``ValueError`` that the library's ``check`` raises
    on ``args``, or nothing."""
    try:
        check(*args)
    except ValueError as exc:
        return [str(exc)]
    return []


def _each(n_list: list[int], check: Callable[[int], None]) -> list[str]:
    """The library's message at the first grid point that breaks ``check``."""
    return next(filter(None, (_asks(check, n) for n in n_list)), [])


def _seed_at(seed: int, n: int) -> int:
    """The seed of grid point N: a substream of the experiment seed."""
    return SplitMix64(seed).derive(n).next_u64()


# ---------------------------------------------------------------------------
# Runners (columns, rows, derived)


def _convergence(columns: list[str], report: cvlimit.ConvergenceReport):
    """Rows (n, value[, 1 - value]) and the rate fit of a cvlimit sweep."""
    rows = [[n, v, 1.0 - v][: len(columns)]
            for n, v in zip(report.n_list, report.values)]
    return columns, rows, {"rate": report.rate,
                           "r_squared": report.r_squared}


def _run_coherent(p: dict, seed: int):
    return _convergence(
        ["n", "infidelity", "fidelity"],
        cvlimit.coherent_convergence(p["alpha"], p["n_list"], p["n_max"]))


def _check_coherent(p: dict, vacuum_ok: bool = True) -> list[str]:
    n_list = p["n_list"]
    return (_asks(cvlimit._check_increasing, n_list)
            + _each(n_list, lambda n: cvlimit._check_amplitude(
                p["alpha"], n, vacuum_ok=vacuum_ok))
            + _each(n_list, lambda n: cvlimit._check_window(p["n_max"], n)))


def _run_displacement(p: dict, seed: int):
    return _convergence(
        ["n", "residual"],
        cvlimit.displacement_convergence(
            p["alpha"], p["k"], p["n_list"], p["n_max"]))


def _check_displacement(p: dict) -> list[str]:
    # displacement_residual rejects |alpha|^2 = N = 0
    return _check_coherent(p, vacuum_ok=False) + _asks(
        cvlimit._check_displacement_k, p["k"], p["n_max"])


def _run_squeezed(p: dict, seed: int):
    return _convergence(
        ["n_pairs", "infidelity", "fidelity"],
        cvlimit.squeezed_convergence(
            p["r"], p["phi"], p["n_list"], p["n_max"]))


def _check_squeezed(p: dict) -> list[str]:
    n_list = p["n_list"]
    return (_asks(cvlimit._check_increasing, n_list)
            + _asks(cvlimit._check_squeezing, p["r"])
            + _each(n_list, lambda n: cvlimit._check_squeezed_window(
                p["n_max"], n)))


def _run_commutator(p: dict, seed: int):
    n_max = p["n_max"]
    rows = [[n, n_max, cvlimit.commutator_residual(n, n_max), 2.0 * n_max / n]
            for n in p["n_list"]]
    return ["n", "n_max", "residual", "closed_form"], rows, {}


def _check_commutator(p: dict) -> list[str]:
    return _each(p["n_list"],
                 lambda n: cvlimit._check_commutator_window(p["n_max"], n))


def _run_phase_locking(p: dict, seed: int):
    report = cvlimit.phase_locking_curve(p["theta"], p["n_list"])
    extras = (report.extras[key] for key in ("exact", "asymptote", "ratio"))
    rows = [list(row) for row in zip(report.n_list, *extras, report.values)]
    return ["n", "exact", "asymptote", "ratio", "abs_diff"], rows, {}


def _check_phase_locking(p: dict) -> list[str]:
    n_list, theta = p["n_list"], p["theta"]
    out = _asks(cvlimit._check_increasing, n_list)
    theta_out = _asks(cvlimit._check_theta, theta)
    if not theta_out:  # the point check needs a valid theta
        out += _each(n_list,
                     lambda n: cvlimit._phase_asymptote(theta, n))
    return out + theta_out


def _run_overlap(p: dict, seed: int):
    def row(n: int):
        rec = cvlimit.overlap_asymptotics(p["alpha"], p["beta"], n)
        return [n, rec.exact.real, rec.exact.imag, abs(rec.exact), rec.limit,
                rec.residual, abs(rec.exact - rec.statevector)]

    cols = ["n", "exact_re", "exact_im", "exact_abs", "limit",
            "residual", "statevector_agreement"]
    return cols, [row(n) for n in p["n_list"]], {}


def _check_overlap(p: dict) -> list[str]:
    return _each(p["n_list"], lambda n: cvlimit._check_overlap(
        p["alpha"], p["beta"], n))


def _run_synthesis_bench(p: dict, seed: int):
    rows = []
    for n in p["n_list"]:
        basis = make_basis(2, n)
        targets = synthesis.bench_targets(basis, p["targets"],
                                          _seed_at(seed, n))
        start = basis_state(basis, (0, n))
        for idx, target in enumerate(targets):
            plan = synthesis.plan_two_mode(target,
                                           small_angle=p["small_angle"])
            result = synthesis.execute_plan(plan, start)
            rows.append([n, idx, len(plan.steps), plan.total_repetitions,
                         result.fidelity])
    cols = ["n", "target_index", "steps", "total_repetitions", "fidelity"]
    return cols, rows, {}


def _check_synthesis(p: dict) -> list[str]:
    """Grid and step-size rules shared by both synthesis experiments: the
    bench keeps to the complexity probe's N range too."""
    return (_each(p["n_list"], synthesis._check_probe_n)
            + _asks(synthesis._check_small_angle, p["small_angle"]))


def _check_synthesis_bench(p: dict) -> list[str]:
    out = _check_synthesis(p)
    if p["targets"] < 1:
        out.append("targets must be >= 1")
    if p["passes"] != 2:
        out.append("passes must be 2: the one-pass matching sweep was removed")
    return out


def _run_synthesis_complexity(p: dict, seed: int):
    probe = synthesis.synthesis_complexity_probe(
        p["n_list"], p["fidelity_target"], small_angle=p["small_angle"],
        targets_per_n=p["targets_per_n"], seed=seed)
    rows = [list(row) for row in probe.rows]
    cols = ["n", "median_steps", "median_total_repetitions", "min_fidelity"]
    return cols, rows, {"slope_steps": probe.slope_steps,
                        "slope_repetitions": probe.slope_repetitions}


def _check_synthesis_complexity(p: dict) -> list[str]:
    return (_check_synthesis(p)
            + _asks(cvlimit._check_increasing, p["n_list"])
            + _asks(synthesis._check_fidelity_target, p["fidelity_target"])
            + _asks(synthesis._check_targets_per_n, p["targets_per_n"]))


_TARGETS: dict[str, Callable[[], np.ndarray]] = {
    "hadamard": encodings.hadamard_gate,
    "x": lambda: np.array([[0, 1], [1, 0]], dtype=complex),
    "y": lambda: np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": lambda: np.diag([1.0 + 0j, -1.0 + 0j]),
    "s": lambda: encodings.phase_gate(math.pi / 2),
    "t": encodings.t_gate,
    "t_hadamard": lambda: encodings.t_gate() @ encodings.hadamard_gate(),
}


def _target_matrix(name: str) -> np.ndarray:
    key = name.strip().lower()
    if key in _TARGETS:
        return _TARGETS[key]()
    for prefix, fn in (("ry:", encodings.r_y), ("rz:", encodings.r_z),
                       ("phase:", encodings.phase_gate)):
        if key.startswith(prefix):
            return fn(_parse_float(key[len(prefix):]))
    raise ValueError(
        f"unknown target {name!r}; expected one of "
        f"{sorted(_TARGETS)} or ry:<angle>, rz:<angle>, phase:<angle>"
    )


def _check_gate(p: dict, mesh: bool = False) -> list[str]:
    """N >= 1 at every point and ``restarts`` >= 1; then the search's matrix
    stacks at the largest N."""
    out = (_each(p["n_list"], encodings._check_fock_pair)
           + _asks(encodings._check_restarts, p["restarts"]))
    return out or _asks(encodings._check_stack, max(p["n_list"]),
                        p["restarts"], mesh)


def _run_encoding_feasibility(p: dict, seed: int):
    target = _target_matrix(p["target"])
    rows, reports = [], []
    for n in p["n_list"]:
        enc = encodings.fock_encoding(make_basis(2, n))
        floor = encodings.fock_pair_floor(target, n)
        search = encodings.sg_gate_search(
            target,
            enc,
            restarts=p["restarts"],
            seed=_seed_at(seed, n),
        )
        reports.append(
            encodings.feasibility_report(enc, p["target"], search, floor))
        rows.append([n, p["target"], search.error, floor,
                     search.leakage, search.restarts])
    cols = ["n", "target", "best_error", "certified_floor", "leakage",
            "restarts"]
    return cols, rows, {"reports": reports}


def _check_encoding_feasibility(p: dict) -> list[str]:
    out = _check_gate(p) + _asks(_target_matrix, p["target"])
    # The floor is closed-form and no longer scans; resolution is still
    # checked so that configs written for the scan stay valid.
    if not 0 < p["resolution"] <= 0.5:
        out.append("resolution must lie in (0, 0.5]")
    return out


def _run_cnot_feasibility(p: dict, seed: int):
    rows, reports = [], []
    for n in p["n_list"]:
        enc = encodings.fock_encoding(make_basis(2, n))
        res = encodings.cnot_search(
            enc,
            restarts=p["restarts"],
            seed=_seed_at(seed, n),
        )
        reports.append(encodings.feasibility_report(enc, "cnot", res, None))
        rows.append([n, res.error, res.leakage, res.restarts,
                     make_basis(4, 2 * n).dimension])
    cols = ["n", "best_error", "leakage", "restarts", "dimension"]
    return cols, rows, {"reports": reports}


EXPERIMENTS: dict[str, _ExperimentSpec] = {
    "convergence-coherent": _ExperimentSpec(
        {"alpha": _parse_complex, "n_list": _parse_int_list, "n_max": int},
        {"n_max": 30},
        _check_coherent, _run_coherent),
    "convergence-displacement": _ExperimentSpec(
        {"alpha": _parse_complex, "k": int, "n_list": _parse_int_list,
         "n_max": int},
        {"k": 2, "n_max": 40},
        _check_displacement, _run_displacement),
    "convergence-squeezed": _ExperimentSpec(
        {"r": _parse_float, "phi": _parse_float, "n_list": _parse_int_list,
         "n_max": int},
        {"phi": 0.0, "n_max": 20},
        _check_squeezed, _run_squeezed),
    "commutator": _ExperimentSpec(
        {"n_list": _parse_int_list, "n_max": int},
        {"n_max": 10},
        _check_commutator, _run_commutator),
    "phase-locking": _ExperimentSpec(
        {"theta": _parse_float, "n_list": _parse_int_list}, {},
        _check_phase_locking, _run_phase_locking),
    "overlap": _ExperimentSpec(
        {"alpha": _parse_complex, "beta": _parse_complex,
         "n_list": _parse_int_list}, {},
        _check_overlap, _run_overlap),
    "synthesis-bench": _ExperimentSpec(
        {"n_list": _parse_int_list, "targets": int,
         "small_angle": _parse_float, "passes": int},
        {"targets": 5, "small_angle": 1e-3, "passes": 2},
        _check_synthesis_bench, _run_synthesis_bench),
    "synthesis-complexity": _ExperimentSpec(
        {"n_list": _parse_int_list, "fidelity_target": _parse_float,
         "small_angle": _parse_float, "targets_per_n": int},
        {"fidelity_target": 0.99, "small_angle": 1e-3, "targets_per_n": 3},
        _check_synthesis_complexity, _run_synthesis_complexity),
    "encoding-feasibility": _ExperimentSpec(
        {"n_list": _parse_int_list, "target": str, "restarts": int,
         "resolution": _parse_float},
        {"target": "hadamard", "restarts": 8, "resolution": 1e-2},
        _check_encoding_feasibility, _run_encoding_feasibility),
    "cnot-feasibility": _ExperimentSpec(
        {"n_list": _parse_int_list, "restarts": int},
        {"restarts": 8},
        lambda p: _check_gate(p, mesh=True), _run_cnot_feasibility),
}


# ---------------------------------------------------------------------------
# Config loading and validation


#: Each section's keys, beside [DEFAULT]'s; [parameters] has the experiment's.
_SECTION_KEYS = {"experiment": ("name", "seed"), "parameters": None,
                 "output": ("format", "filename")}


def load_config(path: str | pathlib.Path) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax error: {exc}"]) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc

    violations: list[str] = []
    if not parser.has_section("experiment"):
        raise ConfigError(["missing [experiment] section"])
    name = parser.get("experiment", "name", fallback=None)
    if name is None:
        raise ConfigError(["missing 'name' under [experiment]"])
    name = name.strip()
    if name not in EXPERIMENTS:
        raise ConfigError(
            [f"unknown experiment {name!r}; expected one of "
             f"{sorted(EXPERIMENTS)}"]
        )
    spec = EXPERIMENTS[name]
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            violations.append(f"unknown section [{section}]")
        elif _SECTION_KEYS[section] is not None:
            known = _SECTION_KEYS[section] + tuple(parser.defaults())
            violations += [f"unknown key {key!r} in [{section}]"
                           for key in parser.options(section)
                           if key not in known]

    seed = DEFAULT_SEED
    seed_text = parser.get("experiment", "seed", fallback=None)
    if seed_text is not None:
        try:
            seed = _parse_seed(seed_text)
        except ValueError as exc:
            violations.append(f"bad seed: {exc}")

    raw = dict(parser.items("parameters")) if parser.has_section(
        "parameters") else {}
    params: dict = {}
    for key, parse in spec.params.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ValueError as exc:
                violations.append(f"bad value for {key!r}: {exc}")
        elif key in spec.defaults:
            params[key] = spec.defaults[key]
        else:
            violations.append(f"missing parameter {key!r}")
    for key in raw:
        if key not in spec.params:
            violations.append(f"unknown parameter {key!r} for {name}")
    if params.get("n_list") == []:  # every experiment has an N grid
        violations.append("empty N grid")

    fmt = "csv"
    filename = name
    if parser.has_section("output"):
        fmt = parser.get("output", "format", fallback="csv").strip().lower()
        filename = parser.get("output", "filename", fallback=name).strip()
        if fmt not in ("csv", "json"):
            violations.append(f"unknown output format {fmt!r}")
        if (filename in ("", ".", "..")
                or any(c in filename for c in "/\\\0")):
            violations.append(
                f"output filename {filename!r} must be a file stem: not "
                "empty, '.' or '..', and without a path separator")

    if not violations:
        violations.extend(spec.check(params))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(name, params, raw, seed, fmt, filename)


# ---------------------------------------------------------------------------
# Emission


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def _plain(value):
    """A NumPy scalar as the Python int or float JSON writes."""
    numpy_scalar = isinstance(value, (np.integer, np.floating))
    return value.item() if numpy_scalar else value


def _rewrite(path: pathlib.Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, replacing what it held.

    An existing file is overwritten in place and then cut to the new
    length, not truncated to zero first: on ext4 (``auto_da_alloc``)
    truncating a non-empty file frees its blocks and makes ``close`` start
    writeback, which costs more than a short file's write.  The path, its
    inode and its mode stay as ``write_text`` leaves them, and a symlink
    is followed.  A run killed between the write and the cut leaves the
    old file's tail after the new bytes.  Only a regular file is cut.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def run_experiment(
    config: ExperimentConfig, out_dir: str | pathlib.Path = "."
) -> list[pathlib.Path]:
    """Execute one experiment; returns the written file paths."""
    spec = EXPERIMENTS[config.name]
    started = time.perf_counter()
    columns, rows, derived = spec.run(config.parameters, config.seed)
    walltime = time.perf_counter() - started
    rows = [[_plain(v) for v in row] for row in rows]

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / f"{config.filename}.{config.fmt}"
    if config.fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {"columns": columns, "rows": rows, "derived": derived}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _rewrite(data_path, text)

    meta = {
        "experiment": config.name,
        "parameters": config.raw_parameters,
        "seed": config.seed,
        "format": config.fmt,
        "library_version": __version__,
        "derived": derived,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "walltime_s": walltime,
    }
    meta_path = out / f"{config.filename}.meta.json"
    _rewrite(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return [data_path, meta_path]


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssrc",
        description="Fixed-photon-number two-mode state experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=".")
    run_p.add_argument("--seed", type=_parse_seed, default=None)
    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    if not pathlib.Path(args.config).is_file():
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2

    validate = args.command == "validate"
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"{'violation' if validate else 'error'}: {violation}",
                  file=sys.stdout if validate else sys.stderr)
        return 1 if validate else 2
    if validate:
        print(f"OK: {config.name} (seed {config.seed:#x})")
        return 0
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        written = run_experiment(config, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except (cvlimit.WindowTooSmallError, OverflowError) as exc:
        # Only the library knows the mass outside a window and where its
        # double-precision series overflow.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
