"""Seed-independent correctness checks on the data files ``ssrc`` writes.

Each check reads one request's CSV file and returns a list of problems; an
empty list means every row passed.  The checks hold for any seed: they test
properties the experiments promise (fidelity goals, bounds, closed forms,
ranges) and, for gate floors, agreement with the committed oracle fixtures.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

FIDELITY_GOAL = 1.0 - 1e-10  # the synthesis planner's own goal
ORACLE_TOL = 1e-6
FLOOR_SLACK = 1e-9
COMMUTATOR_RTOL = 1e-9
STATEVECTOR_TOL = 1e-10


def load_oracles(root: pathlib.Path) -> dict:
    """``gate_floors`` from the repository's oracle fixtures."""
    path = root / "tests" / "fixtures" / "oracles.json"
    return json.loads(path.read_text(encoding="utf-8"))["gate_floors"]


def read_rows(path: pathlib.Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _in_unit(problems, row, *keys):
    for key in keys:
        if not 0.0 <= _num(row, key) <= 1.0:
            problems.append(f"{key}={row[key]} outside [0, 1]")


def _grid(params: dict) -> list[int]:
    return [int(t) for t in params["n_list"].replace(",", " ").split()]


def _expected_rows(experiment: str, params: dict) -> int:
    n = len(_grid(params))
    return n * int(params["targets"]) if experiment == "synthesis-bench" else n


def check(experiment: str, params: dict, rows: list[dict],
          oracles: dict) -> list[str]:
    """Problems found in one request's rows (empty when all pass)."""
    problems: list[str] = []
    want = _expected_rows(experiment, params)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    for row in rows:
        bad = [f"{key}={value} is not finite" for key, value in row.items()
               if key != "target" and not math.isfinite(float(value))]
        problems.extend(bad)
        if not bad:
            _ROW_CHECKS[experiment](problems, row, params, oracles)
    return problems


def _synthesis_bench(problems, row, params, oracles):
    if _num(row, "fidelity") < FIDELITY_GOAL:
        problems.append(f"N={row['n']}: executed fidelity {row['fidelity']}"
                        f" below 1 - 1e-10")


def _synthesis_complexity(problems, row, params, oracles):
    if _num(row, "min_fidelity") < float(params["fidelity_target"]):
        problems.append(f"N={row['n']}: min_fidelity {row['min_fidelity']}"
                        f" below fidelity_target")


def _oracle(problems, row, key, want):
    if want is not None and abs(_num(row, key) - want) > ORACLE_TOL:
        problems.append(f"N={row['n']}: {key}={row[key]} departs from "
                        f"oracle {want!r}")


def _encoding_feasibility(problems, row, params, oracles):
    _in_unit(problems, row, "best_error", "certified_floor", "leakage")
    if _num(row, "certified_floor") > _num(row, "best_error") + FLOOR_SLACK:
        problems.append(f"N={row['n']}: certified_floor above best_error")
    target, n = row["target"], row["n"]
    if target == "hadamard":
        want = oracles["hadamard"].get(n)
    elif target == "t_hadamard" and n == "3":
        want = oracles["t_hadamard_n3"]
    else:
        want = None
    _oracle(problems, row, "best_error", want)
    _oracle(problems, row, "certified_floor", want)


def _cnot_feasibility(problems, row, params, oracles):
    _in_unit(problems, row, "best_error", "leakage")
    want = oracles["cnot"].get(row["n"])
    if want is None:
        return
    # The oracle is the best of the fixture's own restart count; a search
    # with fewer restarts may stop in a local minimum, never below it.
    if int(row["restarts"]) >= oracles["cnot_restarts"][row["n"]]:
        _oracle(problems, row, "best_error", want)
    elif _num(row, "best_error") < want - ORACLE_TOL:
        problems.append(f"N={row['n']}: best_error={row['best_error']} "
                        f"below the oracle minimum {want!r}")


def _commutator(problems, row, params, oracles):
    got, closed = _num(row, "residual"), _num(row, "closed_form")
    if abs(got - closed) > COMMUTATOR_RTOL * abs(closed):
        problems.append(f"N={row['n']}: residual {got!r} != closed form "
                        f"{closed!r}")


def _overlap(problems, row, params, oracles):
    _in_unit(problems, row, "exact_abs", "limit", "residual")
    if _num(row, "statevector_agreement") > STATEVECTOR_TOL:
        problems.append(f"N={row['n']}: statevector_agreement "
                        f"{row['statevector_agreement']} above 1e-10")


def _coherent(problems, row, params, oracles):
    _in_unit(problems, row, "infidelity", "fidelity")


def _displacement(problems, row, params, oracles):
    if not 0.0 <= _num(row, "residual") <= 2.0:
        problems.append(f"N={row['n']}: residual {row['residual']} outside "
                        f"[0, 2]")


def _squeezed(problems, row, params, oracles):
    _in_unit(problems, row, "infidelity", "fidelity")


def _phase_locking(problems, row, params, oracles):
    _in_unit(problems, row, "exact", "asymptote", "abs_diff")
    if not _num(row, "ratio") > 0.0:
        problems.append(f"N={row['n']}: ratio {row['ratio']} not positive")


_ROW_CHECKS = {
    "synthesis-bench": _synthesis_bench,
    "synthesis-complexity": _synthesis_complexity,
    "encoding-feasibility": _encoding_feasibility,
    "cnot-feasibility": _cnot_feasibility,
    "commutator": _commutator,
    "overlap": _overlap,
    "convergence-coherent": _coherent,
    "convergence-displacement": _displacement,
    "convergence-squeezed": _squeezed,
    "phase-locking": _phase_locking,
}
