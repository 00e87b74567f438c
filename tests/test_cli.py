import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrc import __version__, cvlimit, encodings, synthesis
from ssrc.cli import (
    ConfigError,
    EXPERIMENTS,
    _parse_complex,
    _parse_int_list,
    _parse_seed,
    _target_matrix,
    load_config,
    main,
    run_experiment,
)
from ssrc.encodings import hadamard_gate, r_y
from ssrc.hilbert import make_basis, random_state
from ssrc.prng import DEFAULT_SEED


def write_ini(tmp_path, body, name="config.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


ORACLES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "oracles.json").read_text()
)

PHASE_LOCKING = """
    [experiment]
    name = phase-locking

    [parameters]
    theta = 0.2
    n_list = 100, 400, 1600
"""


class TestParsers:
    def test_int_list_separators(self):
        assert _parse_int_list("1, 2,3\n 4") == [1, 2, 3, 4]
        assert _parse_int_list("  ") == []

    def test_complex_forms(self):
        assert _parse_complex("1.5") == 1.5
        assert _parse_complex("1 + 2j") == 1 + 2j
        assert _parse_complex("-0.5j") == -0.5j

    def test_seed_forms(self):
        assert _parse_seed("0x55355243") == 0x55355243
        assert _parse_seed("7") == 7
        with pytest.raises(ValueError):
            _parse_seed(str(2**64))
        with pytest.raises(ValueError):
            _parse_seed("-1")


class TestTargetMatrix:
    def test_named_targets(self):
        assert np.allclose(_target_matrix("hadamard"), hadamard_gate())
        assert np.allclose(_target_matrix("X"), [[0, 1], [1, 0]])

    def test_parametrized_targets(self):
        assert np.allclose(_target_matrix("ry:0.7"), r_y(0.7))
        got = _target_matrix("phase:1.0")
        assert got[1, 1] == pytest.approx(np.exp(1j))

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            _target_matrix("toffoli")


class TestLoadConfig:
    def test_defaults_and_parsing(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = convergence-coherent

            [parameters]
            alpha = 1.0
            n_list = 100, 316, 1000
            """,
        )
        config = load_config(path)
        assert config.name == "convergence-coherent"
        assert config.parameters["alpha"] == 1.0
        assert config.parameters["n_list"] == [100, 316, 1000]
        assert config.parameters["n_max"] == 30  # default filled in
        assert config.seed == DEFAULT_SEED
        assert config.fmt == "csv"
        assert config.filename == "convergence-coherent"

    def test_seed_and_output_section(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = phase-locking
            seed = 0xdeadbeef

            [parameters]
            theta = 0.2
            n_list = 100

            [output]
            format = json
            filename = locking
            """,
        )
        config = load_config(path)
        assert config.seed == 0xDEADBEEF
        assert config.fmt == "json"
        assert config.filename == "locking"

    def test_inline_comments_stripped(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = commutator  ; trailing note

            [parameters]
            n_list = 100 # grid
            n_max = 10
            """,
        )
        config = load_config(path)
        assert config.parameters["n_list"] == [100]

    def test_unknown_experiment(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = banana
            """,
        )
        with pytest.raises(ConfigError, match="unknown experiment"):
            load_config(path)

    def test_missing_name(self, tmp_path):
        path = write_ini(tmp_path, "[experiment]\nseed = 3\n")
        with pytest.raises(ConfigError, match="missing 'name'"):
            load_config(path)

    def test_collects_all_violations(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = convergence-coherent
            seed = 0x1ffffffffffffffff

            [parameters]
            alpha = fish
            bogus = 3
            """,
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = "\n".join(err.value.violations)
        assert "bad seed" in text
        assert "bad value for 'alpha'" in text
        assert "missing parameter 'n_list'" in text
        assert "unknown parameter 'bogus'" in text

    def test_semantic_checks(self, tmp_path):
        cases = [
            ("empty N grid", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 1.0
                n_list =
                """),
            ("must be < N = 100", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 11.0
                n_list = 100
                """),
            ("theta must lie in", """
                [experiment]
                name = phase-locking
                [parameters]
                theta = 3.5
                n_list = 100
                """),
            ("need n_max < N", """
                [experiment]
                name = commutator
                [parameters]
                n_list = 100
                n_max = 100
                """),
            ("the one-pass matching sweep was removed", """
                [experiment]
                name = synthesis-bench
                [parameters]
                n_list = 2
                passes = 3
                """),
            ("unknown target", """
                [experiment]
                name = encoding-feasibility
                [parameters]
                n_list = 1
                target = toffoli
                """),
            ("resolution must lie in", """
                [experiment]
                name = encoding-feasibility
                [parameters]
                n_list = 1
                resolution = 0.75
                """),
            # The stack bound, not a basis cap, rejects the mesh at N = 100.
            ("N=100 needs a stack of 48 complex 1373701 x 1373701", """
                [experiment]
                name = cnot-feasibility
                [parameters]
                n_list = 100
                """),
            ("N grid must be strictly increasing", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 1.0
                n_list = 316, 100
                """),
            ("N grid must be strictly increasing", """
                [experiment]
                name = convergence-displacement
                [parameters]
                alpha = 1.0
                n_list = 10000, 1000, 100000
                """),
            ("N grid must be strictly increasing", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0.5
                n_list = 50, 50, 100
                """),
            ("'alpha': nan is not finite", """
                [experiment]
                name = convergence-displacement
                [parameters]
                alpha = nan
                n_list = 1000
                """),
            ("'alpha': 1 + infj is not finite", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 1 + infj
                n_list = 100
                """),
            ("'r': inf is not finite", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = inf
                n_list = 50
                """),
            ("'phi': -inf is not finite", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0.5
                phi = -inf
                n_list = 50
                """),
            ("'theta': nan is not finite", """
                [experiment]
                name = phase-locking
                [parameters]
                theta = nan
                n_list = 100
                """),
            ("'small_angle': nan is not finite", """
                [experiment]
                name = synthesis-bench
                [parameters]
                n_list = 2
                small_angle = nan
                """),
            ("'fidelity_target': inf is not finite", """
                [experiment]
                name = synthesis-complexity
                [parameters]
                n_list = 2
                fidelity_target = inf
                """),
            ("'resolution': inf is not finite", """
                [experiment]
                name = encoding-feasibility
                [parameters]
                n_list = 1
                resolution = inf
                """),
            ("nan is not finite", """
                [experiment]
                name = encoding-feasibility
                [parameters]
                n_list = 1
                target = ry:nan
                """),
            ("n_max = 11 exceeds the largest occupation 10", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 1.0
                n_list = 10, 20
                n_max = 11
                """),
            ("n_max = 11 exceeds the largest occupation 10", """
                [experiment]
                name = convergence-displacement
                [parameters]
                alpha = 0.1
                n_list = 10, 20
                n_max = 11
                """),
            ("n_max = 11 exceeds the largest occupation 10", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0.1
                n_list = 5, 10
                n_max = 11
                """),
            ("underflows to 0 at N=1000", """
                [experiment]
                name = phase-locking
                [parameters]
                theta = 3.0
                n_list = 10, 1000
                """),
            ("N=-5 must be >= 0", """
                [experiment]
                name = phase-locking
                [parameters]
                theta = 0.2
                n_list = -5
                """),
            ("n_max must be >= 0", """
                [experiment]
                name = commutator
                [parameters]
                n_list = 100
                n_max = -1
                """),
            ("n_max must be >= 0", """
                [experiment]
                name = commutator
                [parameters]
                n_list = 0, 100
                n_max = -1
                """),
            ("n_max must be >= 0", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0.5
                n_list = 50
                n_max = -1
                """),
            ("n_max must be >= 0", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0
                n_list = 50
                n_max = -1
                """),
            ("N=0 must be >= 1", """
                [experiment]
                name = convergence-squeezed
                [parameters]
                r = 0.5
                n_list = 0, 6, 18, 32
                n_max = 0
                """),
            ("small_angle must lie in (0, 1]", """
                [experiment]
                name = synthesis-complexity
                [parameters]
                n_list = 2
                small_angle = 0
                """),
            ("N=40 exceeds the probe's limit 32", """
                [experiment]
                name = synthesis-complexity
                [parameters]
                n_list = 40
                """),
            ("N=400 exceeds the probe's limit 32", """
                [experiment]
                name = synthesis-bench
                [parameters]
                n_list = 2, 400
                """),
            ("N grid must be strictly increasing", """
                [experiment]
                name = synthesis-complexity
                [parameters]
                n_list = 1, 1
                """),
            ("|alpha|^2 = inf must be < N = 100", """
                [experiment]
                name = convergence-coherent
                [parameters]
                alpha = 1e300
                n_list = 100
                """),
            ("|beta|^2 = inf must be < N = 100", """
                [experiment]
                name = overlap
                [parameters]
                alpha = 1.0
                beta = 1e300
                n_list = 100
                """),
            # The mesh stack bound once raised math.comb's ValueError here.
            ("N=-2 must be >= 1", """
                [experiment]
                name = cnot-feasibility
                [parameters]
                n_list = -2
                """),
            # displacement_residual rejects the vacuum at N = 0
            ("|alpha|^2 = 0 must be < N = 0", """
                [experiment]
                name = convergence-displacement
                [parameters]
                alpha = 0
                k = 0
                n_list = 0
                n_max = 0
                """),
        ]
        for fragment, body in cases:
            path = write_ini(tmp_path, body)
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert any(
                fragment in v for v in err.value.violations
            ), f"missing {fragment!r} in {err.value.violations}"
        # coherent_window_fidelity(0, 0, 0) is 1.0, so the vacuum at N = 0
        # must validate
        vacuum = write_ini(tmp_path, """
            [experiment]
            name = convergence-coherent
            [parameters]
            alpha = 0
            n_list = 0, 4
            n_max = 0
            """)
        assert load_config(vacuum).parameters["alpha"] == 0

    @pytest.mark.parametrize("name, params, message", [
        pytest.param("encoding-feasibility", "n_list = 1671", None,
                     id="encoding-edge"),
        pytest.param("encoding-feasibility", "n_list = 1672",
                     "N=1672 needs a stack of 24 complex 1673 x 1673",
                     id="encoding-over"),
        pytest.param("encoding-feasibility", "n_list = 2047\nrestarts = 1",
                     None, id="encoding-1-restart-edge"),
        pytest.param("encoding-feasibility", "n_list = 2048\nrestarts = 1",
                     "N=2048 needs a stack of 16 complex 2049 x 2049",
                     id="encoding-1-restart-over"),
        pytest.param("encoding-feasibility", "n_list = 1, 100000",
                     "N=100000 needs a stack of 24 complex 100001 x 100001",
                     id="encoding-100000"),
        pytest.param("cnot-feasibility", "n_list = 8", None, id="cnot-edge"),
        pytest.param("cnot-feasibility", "n_list = 9",
                     "N=9 needs a stack of 48 complex 1330 x 1330",
                     id="cnot-over"),
        pytest.param("cnot-feasibility", "n_list = 8\nrestarts = 11", None,
                     id="cnot-11-restarts"),
        pytest.param("cnot-feasibility", "n_list = 8\nrestarts = 12",
                     "N=8 needs a stack of 72 complex 969 x 969",
                     id="cnot-12-restarts"),
        pytest.param("cnot-feasibility", "n_list = 90",
                     "N=90 needs a stack of 48 complex 1004731 x 1004731",
                     id="cnot-90"),
    ])
    def test_gate_stack_bound(self, tmp_path, name, params, message):
        # The edges of the 1 GiB bound on one stack of a gate search: the
        # rotation search stacks 3 matrices per start (16 in its seed
        # scan), the mesh search 6 per start.
        path = write_ini(tmp_path, f"[experiment]\nname = {name}\n"
                                   f"[parameters]\n{params}\n")
        if message is None:
            load_config(path)
            return
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert [v for v in err.value.violations if message in v
                and "above the bound of 1073741824 bytes" in v]

    @pytest.mark.parametrize("stem", ["", ".", "..", "../escaped", "sub/x",
                                      "sub\\x", "nul\0byte"])
    def test_filename_must_be_a_stem(self, tmp_path, stem):
        # Each of these once passed: an empty stem wrote the hidden files
        # out/.csv and out/.meta.json, "../escaped" wrote outside --out,
        # "sub/x" failed in run with an I/O error, and a NUL byte made run
        # crash with a ValueError traceback from os.open.
        path = write_ini(tmp_path, textwrap.dedent(PHASE_LOCKING)
                         + f"[output]\nfilename = {stem}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.violations == [
            f"output filename {stem!r} must be a file stem: not empty, "
            "'.' or '..', and without a path separator"]
        assert main(["validate", "--config", str(path)]) == 1
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        assert not out_dir.exists() and not (tmp_path / "escaped.csv").exists()

    def test_unknown_format(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = phase-locking
            [parameters]
            theta = 0.2
            n_list = 100
            [output]
            format = xml
            """,
        )
        with pytest.raises(ConfigError, match="unknown output format"):
            load_config(path)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_empty_grid(self, tmp_path, name):
        path = write_ini(tmp_path, f"[experiment]\nname = {name}\n"
                                   "[parameters]\nn_list =\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "empty N grid" in err.value.violations


# Each of these once validated and ran with the default seed or format:
# a key under [experiment], a tail after [parameters], the violation.
_UNKNOWN_KEYS = {
    "experiment-key": ("sed = 0x1234\n", "",
                       "unknown key 'sed' in [experiment]"),
    "output-key": ("", "[output]\nfromat = json\n",
                   "unknown key 'fromat' in [output]"),
    "section": ("", "[outptu]\nformat = json\n", "unknown section [outptu]"),
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_KEYS))
def test_unknown_keys_rejected(tmp_path, capsys, case):
    key, tail, message = _UNKNOWN_KEYS[case]
    path = write_ini(tmp_path, f"[experiment]\nname = phase-locking\n{key}"
                               f"[parameters]\ntheta = 0.2\nn_list = 100\n"
                               f"{tail}")
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out == f"violation: {message}\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# Each of these once crashed validate and run with a traceback from
# configparser's InterpolationSyntaxError: '%' is an ordinary character.
_PERCENT = {
    "alpha": ("", "alpha = 1%", "bad value for 'alpha'"),
    "seed": ("seed = 5%\n", "alpha = 1.0", "bad seed"),
}


@pytest.mark.parametrize("case", sorted(_PERCENT))
def test_percent_in_a_value_is_a_violation(tmp_path, capsys, case):
    seed, alpha, message = _PERCENT[case]
    path = write_ini(tmp_path, f"[experiment]\nname = convergence-coherent\n"
                               f"{seed}[parameters]\n{alpha}\nn_list = 100\n")
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"violation: {message}: ") and out.count("\n") == 1
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_percent_in_a_filename_is_kept(tmp_path):
    path = write_ini(tmp_path, textwrap.dedent(PHASE_LOCKING)
                     + "[output]\nfilename = a%b\n")
    assert main(["validate", "--config", str(path)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["a%b.csv",
                                                         "a%b.meta.json"]


def _hadamard_search(restarts):
    enc = encodings.fock_encoding(make_basis(2, 1))
    return encodings.sg_gate_search(hadamard_gate(), enc, restarts=restarts)


def _cnot_search(restarts):
    enc = encodings.fock_encoding(make_basis(2, 1))
    return encodings.cnot_search(enc, restarts=restarts)


# The largest k that the displacement work bound admits at n_max = 16383.
_WORK_EDGE_K = cvlimit.DISPLACEMENT_WORK_MAX // 16384


# For each rule that validation asks the library, a config that breaks it
# and nothing else, and the library call on the same values.
_LIBRARY_RULES = {
    "coherent-amplitude": (
        "convergence-coherent", "alpha = 11.0\nn_list = 100",
        lambda: cvlimit.coherent_window_fidelity(11.0, 100, 30)),
    "coherent-window": (
        "convergence-coherent", "alpha = 1.0\nn_list = 10, 20\nn_max = 11",
        lambda: cvlimit.coherent_window_fidelity(1.0, 10, 11)),
    "coherent-n-max": (
        "convergence-coherent", "alpha = 1.0\nn_list = 100\nn_max = -1",
        lambda: cvlimit.coherent_window_fidelity(1.0, 100, -1)),
    "increasing-grid": (
        "convergence-coherent", "alpha = 1.0\nn_list = 316, 100",
        lambda: cvlimit.coherent_convergence(1.0, [316, 100], 30)),
    "displacement-vacuum": (
        "convergence-displacement",
        "alpha = 0\nk = 0\nn_list = 0\nn_max = 0",
        lambda: cvlimit.displacement_residual(0, 0, 0, 0)),
    "displacement-window": (
        "convergence-displacement",
        "alpha = 0.1\nn_list = 10, 20\nn_max = 11",
        lambda: cvlimit.displacement_residual(0.1, 2, 10, 11)),
    "displacement-k": (
        "convergence-displacement", "alpha = 1.0\nk = 5\nn_list = 100\n"
        "n_max = 4", lambda: cvlimit.displacement_residual(1.0, 5, 100, 4)),
    # displaced_fock_window checks k as displacement_residual does.
    "fock-window-k-negative": (
        "convergence-displacement",
        "alpha = 0.0\nk = -1\nn_list = 100\nn_max = 5",
        lambda: cvlimit.displaced_fock_window(0.0, -1, 5)),
    "fock-window-k-negative-displaced": (
        "convergence-displacement",
        "alpha = 0.5\nk = -1\nn_list = 100\nn_max = 5",
        lambda: cvlimit.displaced_fock_window(0.5, -1, 5)),
    "fock-window-k-past-n-max": (
        "convergence-displacement",
        "alpha = 0.0\nk = 7\nn_list = 100\nn_max = 5",
        lambda: cvlimit.displaced_fock_window(0.0, 7, 5)),
    "displacement-work": (
        "convergence-displacement",
        f"alpha = 1.0\nk = {_WORK_EDGE_K + 1}\nn_list = 20000\n"
        "n_max = 16383",
        lambda: cvlimit.displacement_residual(1.0, _WORK_EDGE_K + 1, 20000,
                                              16383)),
    "squeezing": (
        "convergence-squeezed", "r = -1.0\nn_list = 50",
        lambda: cvlimit.squeezed_window_fidelity(-1.0, 0.0, 50, 20)),
    "squeezed-pairs": (
        "convergence-squeezed", "r = 0.5\nn_list = 0, 6\nn_max = 0",
        lambda: cvlimit.squeezed_window_fidelity(0.5, 0.0, 0, 0)),
    "squeezed-window": (
        "convergence-squeezed", "r = 0.1\nn_list = 5, 10\nn_max = 11",
        lambda: cvlimit.squeezed_window_fidelity(0.1, 0.0, 5, 11)),
    "commutator-window": (
        "commutator", "n_list = 100\nn_max = 100",
        lambda: cvlimit.commutator_residual(100, 100)),
    "commutator-n-max": (
        "commutator", "n_list = 100\nn_max = -1",
        lambda: cvlimit.commutator_residual(100, -1)),
    "theta": (
        "phase-locking", "theta = 3.5\nn_list = 100",
        lambda: cvlimit.phase_locking_curve(3.5, [100])),
    "phase-negative-n": (
        "phase-locking", "theta = 0.2\nn_list = -5",
        lambda: cvlimit.phase_locking_curve(0.2, [-5])),
    "phase-underflow": (
        "phase-locking", "theta = 3.0\nn_list = 10, 1000, 2000",
        lambda: cvlimit.phase_locking_curve(3.0, [10, 1000, 2000])),
    "overlap-beta": (
        "overlap", "alpha = 1.0\nbeta = 1e300\nn_list = 100",
        lambda: cvlimit.overlap_asymptotics(1.0, 1e300, 100)),
    "bench-small-angle": (
        "synthesis-bench", "n_list = 2\nsmall_angle = 2.0",
        lambda: synthesis.plan_two_mode(
            random_state(make_basis(2, 2), 1), small_angle=2.0)),
    "probe-small-angle": (
        "synthesis-complexity", "n_list = 2\nsmall_angle = 0",
        lambda: synthesis.synthesis_complexity_probe(
            [2], 0.99, small_angle=0.0)),
    "probe-n-limit": (
        "synthesis-complexity", "n_list = 40",
        lambda: synthesis.synthesis_complexity_probe([40], 0.99)),
    "probe-n-positive": (
        "synthesis-bench", "n_list = 0, 2",
        lambda: synthesis.synthesis_complexity_probe([0, 2], 0.99)),
    "probe-grid": (
        "synthesis-complexity", "n_list = 2, 2",
        lambda: synthesis.synthesis_complexity_probe([2, 2], 0.99)),
    "probe-fidelity-target": (
        "synthesis-complexity", "n_list = 2, 4\nfidelity_target = 1.5",
        lambda: synthesis.synthesis_complexity_probe([2, 4], 1.5)),
    "probe-targets-per-n": (
        "synthesis-complexity", "n_list = 2, 4\ntargets_per_n = 0",
        lambda: synthesis.synthesis_complexity_probe(
            [2, 4], 0.99, targets_per_n=0)),
    "encoding-photons": (
        "encoding-feasibility", "n_list = 0",
        lambda: encodings.fock_pair_floor(hadamard_gate(), 0)),
    "encoding-restarts": (
        "encoding-feasibility", "n_list = 1\nrestarts = 0",
        lambda: _hadamard_search(0)),
    "cnot-photons": (
        "cnot-feasibility", "n_list = 0",
        lambda: encodings.fock_encoding(make_basis(2, 0))),
    "cnot-restarts": (
        "cnot-feasibility", "n_list = 1\nrestarts = 0",
        lambda: _cnot_search(0)),
    # The size rules, each asked of the code that builds the array.
    "coherent-window-cap": (
        "convergence-coherent",
        "alpha = 1.0\nn_list = 2000000\nn_max = 1048576",
        lambda: cvlimit.coherent_window_fidelity(1.0, 2000000, 1048576)),
    "window-n-max": (
        "commutator", "n_list = 1099511627777",
        lambda: cvlimit.commutator_residual(2**40 + 1, 10)),
    "squeezed-pair-cap": (
        "convergence-squeezed", "r = 0.5\nn_list = 1048576",
        lambda: cvlimit.squeezed_window_fidelity(0.5, 0.0, 1048576, 20)),
    "overlap-cap": (
        "overlap", "alpha = 1.0\nbeta = 0.5\nn_list = 2, 1048576",
        lambda: cvlimit.overlap_asymptotics(1.0, 0.5, 1048576)),
    "encoding-stack": (
        "encoding-feasibility", "n_list = 1, 1672",
        lambda: encodings.sg_gate_search(
            hadamard_gate(), encodings.fock_encoding(make_basis(2, 1672)))),
    "cnot-stack": (
        "cnot-feasibility", "n_list = 9",
        lambda: encodings.cnot_search(
            encodings.fock_encoding(make_basis(2, 9)))),
}


def test_displacement_work_edge_validates(tmp_path):
    # One step of k below the "displacement-work" rule above.
    path = write_ini(tmp_path, "[experiment]\nname = convergence-displacement"
                               f"\n[parameters]\nalpha = 1.0\n"
                               f"k = {_WORK_EDGE_K}\nn_list = 20000\n"
                               "n_max = 16383\n")
    assert main(["validate", "--config", str(path)]) == 0


@pytest.mark.parametrize("rule", sorted(_LIBRARY_RULES))
def test_violation_is_the_library_message(tmp_path, monkeypatch, rule):
    # Every call must raise before a gate search builds its matrices.
    for builder in ("_RotationManifold", "_composite_codes"):
        monkeypatch.setattr(encodings, builder, None)
    name, params, call = _LIBRARY_RULES[rule]
    path = write_ini(tmp_path, f"[experiment]\nname = {name}\n"
                               f"[parameters]\n{params}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    with pytest.raises(ValueError) as exc:
        call()
    assert err.value.violations == [str(exc.value)]


class TestRunExperiment:
    def test_csv_layout_and_formatting(self, tmp_path):
        path = write_ini(tmp_path, PHASE_LOCKING)
        config = load_config(path)
        written = run_experiment(config, tmp_path / "out")
        data, meta = written
        assert data.name == "phase-locking.csv"
        lines = data.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,exact,asymptote,ratio,abs_diff"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "100"  # integers stay plain
        assert "e" in first[1]  # floats in scientific notation
        float(first[1])

    def test_json_layout(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = commutator

            [parameters]
            n_list = 100, 1000

            [output]
            format = json
            """,
        )
        written = run_experiment(load_config(path), tmp_path / "out")
        doc = json.loads(written[0].read_text(encoding="utf-8"))
        assert set(doc) == {"columns", "rows", "derived"}
        assert doc["columns"] == ["n", "n_max", "residual", "closed_form"]
        assert doc["rows"][0][0] == 100
        assert doc["rows"][0][2] == pytest.approx(2 * 10 / 100)

    def test_sidecar_fields(self, tmp_path):
        path = write_ini(tmp_path, PHASE_LOCKING)
        written = run_experiment(load_config(path), tmp_path / "out")
        meta = json.loads(written[1].read_text(encoding="utf-8"))
        assert meta["experiment"] == "phase-locking"
        assert meta["parameters"] == {
            "theta": "0.2",
            "n_list": "100, 400, 1600",
        }
        assert meta["seed"] == DEFAULT_SEED
        assert meta["format"] == "csv"
        assert meta["library_version"] == __version__
        assert "timestamp" in meta and "walltime_s" in meta

    def test_rate_fit_in_derived(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = convergence-coherent

            [parameters]
            alpha = 1.0
            n_list = 100, 200, 400, 800
            n_max = 30

            [output]
            format = json
            """,
        )
        written = run_experiment(load_config(path), tmp_path / "out")
        doc = json.loads(written[0].read_text(encoding="utf-8"))
        assert doc["derived"]["rate"] == pytest.approx(2.0, abs=0.1)
        assert doc["derived"]["r_squared"] > 0.99

    def test_byte_identical_reruns(self, tmp_path):
        path = write_ini(tmp_path, PHASE_LOCKING)
        config = load_config(path)
        first = run_experiment(config, tmp_path / "a")
        second = run_experiment(config, tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()
        meta_a = json.loads(first[1].read_text())
        meta_b = json.loads(second[1].read_text())
        for volatile in ("timestamp", "walltime_s"):
            meta_a.pop(volatile), meta_b.pop(volatile)
        assert meta_a == meta_b

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rewrite_with_shorter_bytes(self, tmp_path, fmt):
        # Output files are rewritten in place and cut to the new length;
        # a longer old file must leave no tail.
        body = textwrap.dedent(PHASE_LOCKING) + f"[output]\nformat = {fmt}\n"
        long, short = (
            load_config(write_ini(tmp_path, body.replace("1600", n_list),
                                  f"{name}.ini"))
            for name, n_list in (("long", "1600, 6400, 25600, 102400"),
                                 ("short", "1600")))
        fresh = run_experiment(short, tmp_path / "fresh")[0].read_bytes()
        old = [path.stat().st_size
               for path in run_experiment(long, tmp_path / "out")]
        data, meta = run_experiment(short, tmp_path / "out")
        assert data.read_bytes() == fresh and len(fresh) < old[0]
        text = meta.read_text(encoding="utf-8")
        assert meta.stat().st_size < old[1]
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_rewrite_keeps_inode_and_mode(self, tmp_path):
        config = load_config(write_ini(tmp_path, PHASE_LOCKING))
        out = tmp_path / "out"
        out.mkdir()
        paths = [out / "phase-locking.csv", out / "phase-locking.meta.json"]
        for path in paths:
            path.write_bytes(b"x" * 10_000)
            path.chmod(0o640)
        before = [path.stat() for path in paths]
        assert run_experiment(config, out) == paths
        for path, old in zip(paths, before):
            new = path.stat()
            assert (new.st_ino, new.st_mode) == (old.st_ino, old.st_mode)
            assert new.st_size < 10_000
        assert paths[0].read_bytes() == run_experiment(
            config, tmp_path / "fresh")[0].read_bytes()

    def test_rewrite_follows_symlinks(self, tmp_path):
        # The data file's link points at a longer regular file, the
        # sidecar's at the null device, which is written but not cut.
        config = load_config(write_ini(tmp_path, PHASE_LOCKING))
        target = tmp_path / "target.csv"
        target.write_bytes(b"x" * 10_000)
        out = tmp_path / "out"
        out.mkdir()
        (out / "phase-locking.csv").symlink_to(target)
        (out / "phase-locking.meta.json").symlink_to(os.devnull)
        data, meta = run_experiment(config, out)
        assert data.is_symlink() and meta.is_symlink()
        assert target.read_bytes() == run_experiment(
            config, tmp_path / "fresh")[0].read_bytes()

    def test_synthesis_bench_rows(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = synthesis-bench

            [parameters]
            n_list = 1, 2
            targets = 2
            small_angle = 0.01
            passes = 2
            """,
        )
        written = run_experiment(load_config(path), tmp_path / "out")
        lines = written[0].read_text().splitlines()
        assert lines[0] == "n,target_index,steps,total_repetitions,fidelity"
        assert len(lines) == 5
        for line in lines[1:]:
            fid = float(line.split(",")[-1])
            assert fid >= 0.99

    def test_json_files_are_strict_json(self, tmp_path):
        # A one-point synthesis-complexity grid once wrote its slopes as a
        # bare NaN, which strict JSON parsers reject; they are now null.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        one_point = write_ini(tmp_path, """
            [experiment]
            name = synthesis-complexity
            [parameters]
            n_list = 2
            """)
        paths = sorted((_REPO / "configs").glob("*.ini")) + [one_point]
        assert len(paths) == 11
        for path in paths:
            config = dataclasses.replace(load_config(path), fmt="json")
            written = run_experiment(config, tmp_path / path.stem)
            docs = [json.loads(out.read_text(encoding="utf-8"),
                               parse_constant=reject) for out in written]
        for doc in docs:  # the data file and sidecar of the one-point grid
            assert doc["derived"] == {"slope_steps": None,
                                      "slope_repetitions": None}

    def test_runs_without_threads(self, tmp_path, monkeypatch):
        # Grid points and search restarts run inline, in grid order.
        def refuse(thread):
            raise RuntimeError("ssrc started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        bodies = {
            "encoding-feasibility": "n_list = 1, 2\nrestarts = 2\n"
                                    "resolution = 0.1",
            "cnot-feasibility": "n_list = 1\nrestarts = 2",
            "synthesis-bench": "n_list = 1, 2\ntargets = 2\n"
                               "small_angle = 0.01",
            "convergence-coherent": "alpha = 1.0\nn_list = 100, 200",
        }
        for name, params in bodies.items():
            path = write_ini(
                tmp_path,
                f"[experiment]\nname = {name}\n[parameters]\n{params}\n",
            )
            data = run_experiment(load_config(path), tmp_path / name)[0]
            assert len(data.read_text().splitlines()) >= 2, name


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_ini(tmp_path, PHASE_LOCKING)
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: phase-locking")
        assert f"{DEFAULT_SEED:#x}" in out

    def test_validate_invalid_exit_1(self, tmp_path, capsys):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = phase-locking
            [parameters]
            theta = 9.0
            n_list = 100
            """,
        )
        assert main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "violation: theta must lie in (0, pi)" in out

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        # A directory where the data file goes: the write fails with an
        # OSError, reported as an I/O error.
        path = write_ini(tmp_path, PHASE_LOCKING)
        out_dir = tmp_path / "out"
        (out_dir / "phase-locking.csv").mkdir(parents=True)
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert not (out_dir / "phase-locking.meta.json").exists()

    def test_window_beyond_n_exit_1_then_2(self, tmp_path, capsys):
        # Without the window check this config crashes mid-run with a
        # ZeroDivisionError.
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = convergence-displacement
            [parameters]
            alpha = 0.1
            n_list = 10, 20
            n_max = 11
            """,
        )
        assert main(["validate", "--config", str(path)]) == 1
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        assert "exceeds the largest occupation" in capsys.readouterr().err
        assert not out_dir.exists()

    @staticmethod
    def _validate_then_run(tmp_path, body):
        """Exit codes of ``validate`` and ``run`` on one config."""
        path = write_ini(tmp_path, body)
        out_dir = tmp_path / "out"
        return (main(["validate", "--config", str(path)]),
                main(["run", "--config", str(path), "--out", str(out_dir)]),
                out_dir)

    def _assert_run_exit_2(self, tmp_path, capsys, body, message):
        codes = self._validate_then_run(tmp_path, body)
        assert codes[:2] == (0, 2)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not codes[2].exists()

    @pytest.mark.parametrize("n_list, n_max, message", [
        # The window misses the displaced state's mass.
        ("100, 200", 5, "finite-N side has 4.813e-01 mass outside n_max=5"),
    ])
    def test_library_rejects_run_exit_2(self, tmp_path, capsys, n_list,
                                        n_max, message):
        self._assert_run_exit_2(tmp_path, capsys, f"""
            [experiment]
            name = convergence-displacement
            [parameters]
            alpha = 2.0
            k = 2
            n_list = {n_list}
            n_max = {n_max}
            """, message)

    def test_squeezed_overflow_run_exit_2(self, tmp_path, capsys):
        # cosh(800) in the truncated squeezed reference overflows a double.
        self._assert_run_exit_2(tmp_path, capsys, """
            [experiment]
            name = convergence-squeezed
            [parameters]
            r = 800
            n_list = 10
            n_max = 4
            """, "OverflowError")

    def test_displacement_beyond_float_factorials_runs(self, tmp_path):
        # n_max = 180 > 170 once overflowed the double-precision factorial
        # series; the window now runs and matches the mpmath oracle.
        codes = self._validate_then_run(tmp_path, """
            [experiment]
            name = convergence-displacement
            [parameters]
            alpha = 2.0
            k = 2
            n_list = 200, 300
            n_max = 180
            """)
        assert codes[:2] == (0, 0)
        rows = (codes[2] / "convergence-displacement.csv").read_text()
        got = [float(line.split(",")[1]) for line in rows.splitlines()[1:]]
        want = [float(case["residual"])
                for case in ORACLES["displacement"]["large"]
                if (case["alpha"], case["k"], case["n_max"]) == (2.0, 2, 180)]
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_displacement_zero_alpha_residual_zero(self, tmp_path):
        codes = self._validate_then_run(tmp_path, """
            [experiment]
            name = convergence-displacement
            [parameters]
            alpha = 0
            k = 3
            n_list = 10, 20
            n_max = 6
            """)
        assert codes[:2] == (0, 0)
        rows = (codes[2] / "convergence-displacement.csv").read_text()
        assert [float(line.split(",")[1])
                for line in rows.splitlines()[1:]] == [0.0, 0.0]

    def test_coherent_zero_photon_grid_runs(self, tmp_path):
        # The vacuum at N = 0 validates; no power law fits a grid holding
        # N = 0, so the run reports no rate.
        codes = self._validate_then_run(tmp_path, """
            [experiment]
            name = convergence-coherent
            [parameters]
            alpha = 0
            n_list = 0, 4, 8, 16
            n_max = 0
            """)
        assert codes[:2] == (0, 0)
        meta = json.loads(
            (codes[2] / "convergence-coherent.meta.json").read_text())
        assert meta["derived"] == {"rate": None, "r_squared": None}

    @pytest.mark.parametrize("body, column, call", [
        ("name = convergence-coherent\n[parameters]\nalpha = 1.0\n"
         "n_list = 100, 2000000", 1,
         lambda n: 1.0 - cvlimit.coherent_window_fidelity(1.0, n, 30)),
        ("name = convergence-squeezed\n[parameters]\nr = 0.5\n"
         "n_list = 600000", 1,
         lambda n: 1.0 - cvlimit.squeezed_window_fidelity(0.5, 0.0, n, 20)),
        ("name = commutator\n[parameters]\nn_list = 5000000", 2,
         lambda n: cvlimit.commutator_residual(n, 10)),
    ], ids=["coherent", "squeezed", "commutator"])
    def test_cv_grids_beyond_a_basis_cap_run(self, tmp_path, body, column,
                                             call):
        # These once failed validation on a two-mode basis of N + 1 (2N + 1
        # squeezed) states above 2^20, which no CV run builds.
        codes = self._validate_then_run(tmp_path, f"[experiment]\n{body}\n")
        assert codes[:2] == (0, 0)
        data = next(codes[2].glob("*.csv")).read_text().splitlines()[1:]
        rows = [line.split(",") for line in data]
        assert [float(row[column]) for row in rows] == [
            call(int(row[0])) for row in rows]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["run", "--config", str(missing)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unreadable_config_exit_1_then_2(self, tmp_path, capsys):
        # Not UTF-8: once a UnicodeDecodeError traceback.
        path = tmp_path / "bad.ini"
        path.write_bytes(b"\xff\xfe[experiment]\nname = commutator\n")
        assert main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("violation: cannot read config")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config")
        assert "Traceback" not in err
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path)  # a directory: open raises OSError

    def test_run_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_ini(
            tmp_path,
            """
            [experiment]
            name = nonsense
            """,
        )
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_writes_and_prints_paths(self, tmp_path, capsys):
        path = write_ini(tmp_path, PHASE_LOCKING)
        out_dir = tmp_path / "results"
        assert main(
            ["run", "--config", str(path), "--out", str(out_dir)]
        ) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        assert (out_dir / "phase-locking.csv").is_file()
        assert (out_dir / "phase-locking.meta.json").is_file()

    def test_seed_override(self, tmp_path):
        path = write_ini(tmp_path, PHASE_LOCKING)
        out_dir = tmp_path / "seeded"
        assert main(
            [
                "run", "--config", str(path), "--out", str(out_dir),
                "--seed", "0xabc",
            ]
        ) == 0
        meta = json.loads(
            (out_dir / "phase-locking.meta.json").read_text()
        )
        assert meta["seed"] == 0xABC


class TestRegistry:
    def test_every_experiment_registered_with_checks(self):
        assert len(EXPERIMENTS) == 10
        for name, spec in EXPERIMENTS.items():
            assert callable(spec.run), name
            assert callable(spec.check), name
            for key in spec.defaults:
                assert key in spec.params, (name, key)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runners_return_plain_cells(self, name):
        # run_experiment writes each cell as returned: a float (NumPy's
        # float64 is one) as .16e text or its JSON repr, anything else
        # with str; a NumPy int or bool would break the JSON output.
        config = load_config(_REPO / "configs" / f"{name}.ini")
        _, rows, _ = EXPERIMENTS[name].run(config.parameters, config.seed)
        assert rows
        for row in rows:
            for cell in row:
                assert type(cell) in (int, float, str, np.float64), (
                    name, cell, type(cell))


# Numbers for generated configs: half in range for most parameters, half
# 0, negative or out of range.
_INTS = st.sampled_from([0, 1, 2, 3, 5, 40]) | st.sampled_from(
    [-2, -1, 180, 250])
_FLOATS = st.sampled_from([1e-3, 0.2, 0.5, 0.99, 1.0]) | st.sampled_from(
    [-1.0, 0.0, 2.0, 3.5, 30.0, 1e300])


def _grid(max_n: int):
    """Any list in -2..max_n, or (so that runs happen) an increasing one."""
    return st.one_of(
        st.lists(st.integers(-2, max_n), max_size=4),
        st.lists(st.integers(1, max_n), min_size=1, max_size=4,
                 unique=True).map(sorted),
    ).map(lambda ns: ", ".join(map(str, ns)))


_GENERATED = {
    "convergence-coherent": {"alpha": _FLOATS, "n_list": _grid(200),
                             "n_max": _INTS},
    "convergence-displacement": {"alpha": _FLOATS, "k": _INTS,
                                 "n_list": _grid(200), "n_max": _INTS},
    "convergence-squeezed": {"r": _FLOATS, "phi": _FLOATS,
                             "n_list": _grid(200), "n_max": _INTS},
    "commutator": {"n_list": _grid(200), "n_max": _INTS},
    "phase-locking": {"theta": _FLOATS, "n_list": _grid(200)},
    "overlap": {"alpha": _FLOATS, "beta": _FLOATS, "n_list": _grid(200)},
    "synthesis-bench": {
        "n_list": _grid(4), "targets": st.integers(-1, 2),
        "small_angle": _FLOATS, "passes": st.sampled_from([1, 2, 3])},
    "synthesis-complexity": {
        "n_list": _grid(4), "fidelity_target": _FLOATS,
        "small_angle": _FLOATS, "targets_per_n": st.integers(-1, 3)},
}


@st.composite
def _generated_config(draw):
    name = draw(st.sampled_from(sorted(_GENERATED)))
    lines = [f"{key} = {draw(strategy)}"
             for key, strategy in _GENERATED[name].items()]
    return f"[experiment]\nname = {name}\n[parameters]\n" + "\n".join(lines)


class TestGeneratedConfigs:
    @settings(max_examples=300, deadline=None)
    @given(_generated_config())
    def test_validate_rejects_or_run_completes(self, text):
        """Each config fails validate (1), fails run (2) or writes its data
        file; none raises."""
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "config.ini"
            path.write_text(text + "\n", encoding="utf-8")
            if main(["validate", "--config", str(path)]) == 1:
                return
            out_dir = pathlib.Path(tmp) / "out"
            code = main(["run", "--config", str(path), "--out", str(out_dir)])
            assert code in (0, 2), text
            assert (code == 0) == any(out_dir.glob("*.csv")), text


# Gate grids near the stack bounds, beside small and negative ones.
_GATE_GRID = _grid(10) | st.sampled_from(
    ["-2", "-1, 0", "1671", "1672", "2048", "1, 100000", "8", "9", "90",
     "100"])
# CV grids and windows at the edges of the size rules: windows of 2^20
# entries, 2^20 squeezed pairs or overlap amplitudes, and N = 2^40.
_CV_GRID = _grid(200) | st.sampled_from(
    ["1048575", "1048576", "100, 2000000", "600000", "5000000",
     "1099511627776", "1099511627777"])
_CV_WINDOW = _INTS | st.sampled_from([1048574, 1048575, 1048576])
_VALIDATED = {
    **_GENERATED,
    **{name: {**keys, "n_list": _CV_GRID,
              **({"n_max": _CV_WINDOW} if "n_max" in keys else {})}
       for name, keys in _GENERATED.items()
       if not name.startswith("synthesis")},
    "encoding-feasibility": {
        "n_list": _GATE_GRID, "restarts": st.integers(-1, 13),
        "target": st.sampled_from(["hadamard", "t", "ry:0.3", "RZ:-2",
                                   "ry:nan", "phase:", "toffoli"]),
        "resolution": _FLOATS},
    "cnot-feasibility": {"n_list": _GATE_GRID,
                         "restarts": st.integers(-1, 13)},
}


@st.composite
def _validated_config(draw):
    # Half the draws go to the gate experiments, which only this test
    # generates.
    name = draw(st.sampled_from(sorted(_VALIDATED)) | st.sampled_from(
        ["encoding-feasibility", "cnot-feasibility"]))
    lines = [f"{key} = {draw(strategy)}"
             for key, strategy in _VALIDATED[name].items()]
    stem = draw(st.sampled_from(["data", "", ".", "..", "a/b", "a.b"]))
    return (f"[experiment]\nname = {name}\n[parameters]\n"
            + "\n".join(lines) + f"\n[output]\nfilename = {stem}\n")


@settings(max_examples=300, deadline=None)
@given(_validated_config())
def test_validate_answers_every_config(text):
    """``validate`` exits 0 or 1 on any config of the ten experiments, gate
    keys and output stems included; it never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.ini"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(path)]) in (0, 1), text


_REPO = pathlib.Path(__file__).resolve().parent.parent
_PRINT_SCIPY = ("import sys; print('scipy:', sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))\n")


def _scipy_loaded(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout's ``ssrc``;
    return the lines its ``_PRINT_SCIPY`` statements printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return [line for line in out.stdout.splitlines()
            if line.startswith("scipy:")]


def test_cli_import_and_validate_load_no_scipy():
    # Each process that runs a config pays for what ``import ssrc.cli``
    # loads; SciPy loads only in the functions that use it.
    configs = sorted(str(p) for p in (_REPO / "configs").glob("*.ini"))
    assert len(configs) == 10
    code = ("import ssrc.cli\n" + _PRINT_SCIPY
            + f"for path in {configs!r}:\n"
            "    assert ssrc.cli.main(['validate', '--config', path]) == 0\n"
            + _PRINT_SCIPY)
    assert _scipy_loaded(code) == ["scipy: []"] * 2


@pytest.mark.parametrize("name", [
    "encoding-feasibility", "cnot-feasibility", "commutator", "phase-locking",
    "convergence-coherent", "convergence-displacement",
    "convergence-squeezed", "overlap"])
def test_gate_runs_load_no_scipy(name, tmp_path):
    # The gate experiments need NumPy's eigh and nothing from SciPy; the
    # commutator works on the quadratures' bands, phase locking on closed
    # forms, and the other CV runs take log-factorials from cvlimit's own
    # port of gammaln.  Only the synthesis runs load SciPy (for expm).
    config = str(_REPO / "configs" / f"{name}.ini")
    code = (f"import ssrc.cli\nassert ssrc.cli.main(['run', '--config', "
            f"{config!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            + _PRINT_SCIPY)
    assert _scipy_loaded(code) == ["scipy: []"]
    assert list(tmp_path.glob("*.csv"))


def test_rotations_load_no_sparse_linalg():
    # Unitaries are dense up to DENSE_EXP_LIMIT and refused above it, so
    # nothing in the package reaches for scipy.sparse.linalg.
    code = ("import ssrc\nfrom ssrc.hilbert import make_basis\n"
            "from ssrc.schwinger import rotation\n"
            "assert rotation(make_basis(2, 16), 0.3, 0.2).shape == (17, 17)\n"
            "try:\n"
            "    rotation(make_basis(2, 2048), 0.3, 0.2)\n"
            "except ValueError as err:\n"
            "    assert 'DENSE_EXP_LIMIT = 2048' in str(err)\n"
            "else:\n"
            "    raise AssertionError('densified above the limit')\n"
            + _PRINT_SCIPY)
    [loaded] = _scipy_loaded(code)
    assert "'scipy.sparse'" in loaded
    assert "scipy.sparse.linalg" not in loaded
