"""Regenerate tests/fixtures/oracles.json.

Every numeric reference the test suite compares against is computed here
from first principles: closed-form series are evaluated with mpmath at 40
significant digits (far beyond double precision), and the Hadamard and
T-then-Hadamard gate floors come from the proven Fock-pair closed form
(``ssrc.encodings.fock_pair_floor``) evaluated in mpmath.  Series values are
frozen as 25-digit decimal strings so regeneration is reproducible and
diffable; the gate floors are stored as the nearest doubles.  The CNOT
entries are search results, not certificates: they are recorded once from
``cnot_search`` and kept as found when the file already holds them.

Run from the repository root:

    python3 tools/make_fixtures.py
"""

import json
import math
import pathlib

import mpmath as mp

from ssrc import encodings as en
from ssrc.hilbert import make_basis

mp.mp.dps = 40

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def s(x) -> str:
    return mp.nstr(mp.mpf(x) if not isinstance(x, mp.mpf) else x, 25)


# ---------------------------------------------------------------------------
# Phase locking: (cos(theta/2))^N against exp(-N theta^2 / 8)


def phase_locking_fixture() -> dict:
    theta, n = mp.mpf("0.2"), 100
    exact = mp.cos(theta / 2) ** n
    asym = mp.e ** (-n * theta**2 / 8)
    grid = []
    for i in range(4):
        th = mp.mpf("0.2") / 2**i
        nn = 100 * 4**i
        e = mp.cos(th / 2) ** nn
        a = mp.e ** (-nn * th**2 / 8)
        grid.append(
            {"theta": float(th), "n": nn, "ratio": s(e / a)}
        )
    return {
        "theta": 0.2,
        "n": n,
        "exact": s(exact),
        "asymptote": s(asym),
        "abs_diff": s(abs(exact - asym)),
        "ratio_grid": grid,
    }


# ---------------------------------------------------------------------------
# Coherent fidelity against the truncated reference window


def coherent_amp(alpha: mp.mpf, n: int, k: int) -> mp.mpf:
    return (
        mp.sqrt(mp.binomial(n, k))
        * (alpha / mp.sqrt(n)) ** k
        * (1 - alpha**2 / n) ** (mp.mpf(n - k) / 2)
    )


def coherent_fixture() -> dict:
    alpha, n_max = mp.mpf(1), 30
    grid = []
    for n in (100, 316, 1000, 3162, 10000, 901042):
        ref = [
            mp.e ** (-alpha**2 / 2) * alpha**k / mp.sqrt(mp.factorial(k))
            for k in range(n_max + 1)
        ]
        mass = mp.fsum(r**2 for r in ref)
        ref = [r / mp.sqrt(mass) for r in ref]
        amps = [coherent_amp(alpha, n, k) for k in range(n_max + 1)]
        fid = mp.fsum(r * a for r, a in zip(ref, amps)) ** 2
        grid.append({"n": n, "fidelity": s(fid), "infidelity": s(1 - fid)})
    return {"alpha": 1.0, "n_max": n_max, "grid": grid}


# ---------------------------------------------------------------------------
# Displacement residual (window l2 distance, both sides renormalized)


def displacement_residual_mp(alpha: mp.mpf, k: int, n: int,
                             n_max: int) -> mp.mpf:
    finite = []
    for m in range(n_max + 1):
        pref = mp.sqrt(
            mp.factorial(m)
            * mp.factorial(n - m)
            / (mp.factorial(k) * mp.factorial(n - k))
        )
        tot = mp.mpf(0)
        for l in range(max(0, k + m - n), min(k, m) + 1):
            tot += (
                mp.binomial(k, l)
                * mp.binomial(n - k, m - l)
                * (-alpha) ** (k - l)
                * alpha ** (m - l)
                * n ** (-mp.mpf(k + m - 2 * l) / 2)
                * (1 - alpha**2 / n) ** (mp.mpf(n - k - m + 2 * l) / 2)
            )
        finite.append(pref * tot)
    exact = []
    for m in range(n_max + 1):
        tot = mp.mpf(0)
        for l in range(min(k, m) + 1):
            tot += (
                (-alpha) ** (k - l)
                * alpha ** (m - l)
                / (mp.factorial(k - l) * mp.factorial(m - l))
                * mp.sqrt(mp.factorial(k) * mp.factorial(m))
                / mp.factorial(l)
            )
        exact.append(mp.e ** (-alpha**2 / 2) * tot)
    fin_norm = mp.sqrt(mp.fsum(v**2 for v in finite))
    ex_norm = mp.sqrt(mp.fsum(v**2 for v in exact))
    return mp.sqrt(
        mp.fsum(
            (a / fin_norm - b / ex_norm) ** 2 for a, b in zip(finite, exact)
        )
    )


def displacement_fixture() -> dict:
    alpha, k, n_max = mp.mpf(1), 2, 40
    grid = [
        {"n": n, "residual": s(displacement_residual_mp(alpha, k, n, n_max))}
        for n in (1000, 10000, 100000)
    ]
    # Windows beyond 170! or double-range powers, and one (|alpha| = 4,
    # k = 40) where the alternating series cancels about 20 digits, hence
    # 60-digit arithmetic.
    large = []
    with mp.workdps(60):
        for a, kk, n, nm in ((0.5, 100, 1000, 120), (2.0, 2, 200, 180),
                             (2.0, 2, 300, 180), (4.0, 40, 5000, 160)):
            resid = displacement_residual_mp(mp.mpf(a), kk, n, nm)
            large.append({"alpha": a, "k": kk, "n": n, "n_max": nm,
                          "residual": s(resid)})
    return {"alpha": 1.0, "k": k, "n_max": n_max, "grid": grid,
            "large": large}


# ---------------------------------------------------------------------------
# Squeezed construction: window fidelity and normalization factor


def squeezed_fixture() -> dict:
    r, n_pairs, n_max = mp.mpf("0.5"), 500, 20
    k_max = n_max // 2
    finite = []
    for k in range(n_pairs + 1):
        finite.append(
            mp.binomial(n_pairs, k)
            * (-mp.tanh(r)) ** k
            * mp.sqrt(
                mp.factorial(2 * k) * mp.factorial(2 * (n_pairs - k))
            )
        )
    fin_norm = mp.sqrt(mp.fsum(v**2 for v in finite))
    ref = [
        (-mp.tanh(r)) ** k
        * mp.sqrt(mp.factorial(2 * k))
        / (2**k * mp.factorial(k))
        for k in range(k_max + 1)
    ]
    ref_norm = mp.sqrt(mp.fsum(v**2 for v in ref))
    fid = (
        mp.fsum(
            (a / fin_norm) * (b / ref_norm)
            for a, b in zip(finite[: k_max + 1], ref)
        )
        ** 2
    )
    log_grid = []
    for rr in ("0.25", "0.5", "1.0"):
        rv = mp.mpf(rr)
        for n in (1, 2, 5, 10, 20, 50, 100, 200):
            a2 = (mp.e ** (-rv) * mp.cosh(rv)) ** (2 * n) * mp.fsum(
                mp.tanh(rv) ** (2 * k)
                * mp.binomial(n, k) ** 2
                * mp.factorial(2 * k)
                * mp.factorial(2 * (n - k))
                for k in range(n + 1)
            )
            log_grid.append(
                {"r": float(rv), "n_pairs": n, "log_norm": s(mp.log(a2) / 2)}
            )
    return {
        "r": 0.5,
        "phi": 0.0,
        "n_pairs": n_pairs,
        "n_max": n_max,
        "fidelity": s(fid),
        "log_norm_grid": log_grid,
        "large": [squeezed_large_fixture(rr, 489285, n_max)
                  for rr in ("0.5", "0.8")],
    }


def squeezed_weight(t2: mp.mpf, n: int, k: int) -> mp.mpf:
    """|a_k|^2 / |a_0|^2 = C(N,k)^2 tanh^{2k} r (2k)! (2(N-k))! / (2N)!."""
    return (
        mp.binomial(n, k) ** 2
        * t2**k
        * mp.factorial(2 * k)
        * mp.factorial(2 * (n - k))
        / mp.factorial(2 * n)
    )


def squeezed_large_fixture(r: str, n: int, n_max: int) -> dict:
    """Window infidelity at large N with all N + 1 weights summed.

    The weights are accumulated through the exact ratio
    w_{k+1}/w_k = t^2 (2k+1)(N-k) / ((k+1)(2N-2k-1)), which is checked
    against the defining formula every 50,000 steps and at k = N.
    """
    t2 = mp.tanh(mp.mpf(r)) ** 2
    k_max = n_max // 2
    w, total, window = mp.mpf(1), mp.mpf(0), []
    for k in range(n + 1):
        if k % 50000 == 0 or k == n:
            want = squeezed_weight(t2, n, k)
            assert abs(w - want) <= mp.mpf(10) ** -30 * want, (r, k)
        if k <= k_max:
            window.append(w)
        total += w
        w *= t2 * (2 * k + 1) * (n - k) / ((k + 1) * (2 * n - 2 * k - 1))
    ref = [
        mp.tanh(mp.mpf(r)) ** k
        * mp.sqrt(mp.factorial(2 * k))
        / (2**k * mp.factorial(k))
        for k in range(k_max + 1)
    ]
    ref_norm = mp.sqrt(mp.fsum(v**2 for v in ref))
    fid = (
        mp.fsum(mp.sqrt(wk / total) * (b / ref_norm)
                for wk, b in zip(window, ref))
        ** 2
    )
    return {"r": float(r), "n_pairs": n, "n_max": n_max,
            "infidelity": s(1 - fid)}


# ---------------------------------------------------------------------------
# Coherent-overlap decay toward the displaced-vacuum limit


def overlap_fixture() -> dict:
    alpha, beta = mp.mpf(1), mp.mpf(-1)
    grid = []
    for n in (100, 1000, 10000):
        base = (
            mp.sqrt(1 - alpha**2 / n) * mp.sqrt(1 - beta**2 / n)
            + alpha * beta / n
        )
        grid.append({"n": n, "exact": s(base**n)})
    return {
        "alpha": 1.0,
        "beta": -1.0,
        "limit": s(mp.e ** (-abs(alpha - beta) ** 2 / 2)),
        "grid": grid,
    }


# ---------------------------------------------------------------------------
# Gate-error floors: the proven Fock-pair closed form (N >= 2) in mpmath;
# CNOT search results


def fock_pair_floor_mp(g: mp.matrix) -> mp.mpf:
    """1 - max(|G00|+|G11|, |G01|+|G10|)/2, the N >= 2 floor."""
    diag = abs(g[0, 0]) + abs(g[1, 1])
    anti = abs(g[0, 1]) + abs(g[1, 0])
    return 1 - max(diag, anti) / 2


def cnot_fixture() -> dict:
    path = OUT / "oracles.json"
    if path.exists():
        old = json.loads(path.read_text())["gate_floors"]
        if "cnot" in old:
            return {k: old[k] for k in ("cnot", "cnot_restarts")}
    dual = en.fock_encoding(make_basis(2, 1))
    cnot1 = en.cnot_search(dual, restarts=16)
    enc2 = en.fock_encoding(make_basis(2, 2))
    cnot2 = en.cnot_search(enc2, restarts=8)
    return {
        "cnot": {"1": cnot1.error, "2": cnot2.error},
        "cnot_restarts": {"1": 16, "2": 8},
    }


def gate_floor_fixture() -> dict:
    hadamard = mp.matrix([[1, 1], [1, -1]]) / mp.sqrt(2)
    t_gate = mp.diag([1, mp.expjpi(mp.mpf(1) / 4)])
    h_floor = float(fock_pair_floor_mp(hadamard))
    return {
        "hadamard": {str(n): h_floor for n in (2, 3, 4)},
        "t_hadamard_n3": float(fock_pair_floor_mp(t_gate * hadamard)),
        **cnot_fixture(),
    }


def main() -> None:
    fixtures = {
        "phase_locking": phase_locking_fixture(),
        "coherent": coherent_fixture(),
        "displacement": displacement_fixture(),
        "squeezed": squeezed_fixture(),
        "overlap": overlap_fixture(),
        "gate_floors": gate_floor_fixture(),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "oracles.json"
    path.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
