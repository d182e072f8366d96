"""Tests for the command-line front-end.

Exit codes: 0 success, 1 failed verification, 2 argument problems, 3
numerical convergence failures.  Artifacts must be byte-identical across
repeated runs with the same arguments.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatband.cli as cli
from heatband import (
    BumpTrain,
    ConvergenceError,
    DomainError,
    GeometricCenters,
    LogLogSine,
    LogSine,
    Negate,
    PeriodicOfLog,
    SlowFromPeriodic,
    Sum,
    TrapezoidWave,
    TrigPolynomial,
    cert_dumps,
    cert_from_json,
    cert_loads,
    cert_to_json,
    lemma_not_example,
    prescribe_average,
    prescribe_data,
)
from heatband.initial_data import from_json, to_json


def run_cli(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# Refused arguments: argparse checks types and choices, the library the values


_AVERAGE = ["--average", "-1", "-0.3", "0.3", "1"]


@pytest.mark.parametrize("args,says", [
    (["analyse"], "invalid choice"),
    (["prescribe", *_AVERAGE, "--n", "0"], "positive integer"),
    (["prescribe", *_AVERAGE, "--n", "1.5"], "invalid int"),
    (["prescribe", *_AVERAGE, "--n", "11"], "at most 10"),
    (["prescribe", "--average", "-1", "nan", "0.3", "1"], "sol_lower"),
    (["probe", "--cert", "{cert}", "--t-range", "-1", "1e4", "9"], "t-range"),
    (["probe", "--cert", "{cert}", "--tau-range", "1e2", "1e4", "1"], "tau-range"),
    (["probe", "--cert", "{cert}", "--t-range", "1e2", "1e4", "2.9"], "t-range"),
    (["probe", "--cert", "{cert}", "--tau-range", "1e2", "1e4", "2.5"], "tau-range"),
    # the probe tables are written in CSV only
    (["probe", "--cert", "{cert}", "--format", "json"], "unrecognized arguments"),
    # the grid is refused before it is made: 1e15 points would not fit in memory
    (["probe", "--cert", "{cert}", "--t-range", "1e2", "1e10", "1e15"], "t-range"),
    (["probe", "--cert", "{cert}", "--tau-range", "1e2", "1e4", "1048577"], "tau-range"),
    (["probe", "--cert", "{utf16}"], "not UTF-8"),
    (["verify", "--cert", "{utf16}"], "not UTF-8"),
    (["verify", "--cert", "{cert}", "--tol-band", "0"], "tol_band"),
    # the sweep window is the one the mode floor assumes, not an option
    (["verify", "--cert", "{cert}", "--periods", "4"], "unrecognized arguments"),
    (["verify", "--cert", "{cert}", "--t-anchor", "1e100"], "unrecognized arguments"),
    (["verify", "--cert", "{cert}", "--points-per-period", "100000000"],
     "unrecognized arguments"),
])
def test_refused_arguments_exit_two_and_write_nothing(tmp_path, capsys, args, says):
    cert = tmp_path / "cert.json"
    text = cert_dumps(prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)) + "\n"
    cert.write_text(text)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(text.encode("utf-16"))  # starts with the bytes ff fe
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.replace("{cert}", str(cert)).replace("{utf16}", str(utf16)) for a in args]
    if argv[0] != "analyse":
        argv += ["--out-dir", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_cli_holds_no_validator_of_its_own():
    # values are checked by the library; a dataclass or a math.isfinite
    # call here would be a second validator
    import ast

    tree = ast.parse(Path(cli.__file__).read_text())
    dataclasses = [node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and any("dataclass" in ast.unparse(dec) for dec in node.decorator_list)]
    isfinite = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("isfinite")]
    assert dataclasses == [] and isfinite == []


# ---------------------------------------------------------------------------
# prescribe


class TestPrescribe:
    def test_average_target_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--n", "2", "--out", str(out)])
        assert code == 0
        stored = cert_loads(out.read_text())
        assert stored == prescribe_average(-1.0, -0.3, 0.3, 1.0, n=2)
        text = capsys.readouterr().out
        assert "average-single-mode" in text
        chain_line = next(l for l in text.splitlines() if l.startswith("chain"))
        values = [float(v) for v in chain_line.removeprefix("chain ").split(" <= ")]
        assert len(values) == 6
        assert values == sorted(values)

    def test_symmetry_violation_exits_two(self, tmp_path, capsys):
        code = run_cli(["prescribe", "--average", "-1", "-0.5", "0.3", "1",
                        "--n", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "p + q = alpha + beta" in err
        assert "prescribe" in err

    def test_data_target_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run_cli(["prescribe", "--data", "-2", "-0.3", "0.3", "1",
                        "--n", "1", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "data-mode-plus-wave-reflected" in text
        assert "not pinned" in text
        stored = cert_loads(out.read_text())
        assert stored.expected_u_band == (-0.3, 0.3)
        # the chain printed is the certificate's own: r <= alpha <= beta <= s
        r, s = stored.expected_phi_band
        assert stored._expected_chain == (r, -0.3, 0.3, s)
        assert ("chain " + " <= ".join(cli._table(v) for v in (r, -0.3, 0.3, s))
                in text.splitlines())

    def test_both_targets_rejected_by_parser(self, capsys):
        code = run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--data", "-2", "-0.3", "0.3", "1"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", ["11", "400"])
    def test_dimension_above_ceiling_exits_two(self, tmp_path, capsys, n):
        code = run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--n", n, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "at most 10" in capsys.readouterr().err
        assert not (tmp_path / "cert.json").exists()

    def test_mode_below_the_sweep_floor_exits_two(self, tmp_path, capsys):
        # m = 0.049: verify's u sweep would cover 2.69 of its 3 periods
        code = run_cli(["prescribe", "--data", "-1", "-0.999", "0.999", "1.01",
                        "--n", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "u sweep of verify" in err and "Traceback" not in err
        assert not (tmp_path / "cert.json").exists()

    def test_missing_target_rejected(self, capsys):
        assert run_cli(["prescribe", "--n", "2"]) == 2
        capsys.readouterr()

    def test_certificate_bytes_are_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--n", "2", "--out", str(a)]) == 0
        assert run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--n", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# probe


@pytest.fixture()
def average_cert_file(tmp_path):
    path = tmp_path / "cert.json"
    assert run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                    "--n", "2", "--out", str(path)]) == 0
    return path


class TestProbe:
    def test_csv_artifacts_and_columns(self, tmp_path, average_cert_file, capsys):
        code = run_cli(["probe", "--cert", str(average_cert_file),
                        "--t-range", "1e2", "1e6", "5",
                        "--tau-range", "1e2", "1e6", "5",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        u_lines = (tmp_path / "probe_u.csv").read_text().splitlines()
        assert u_lines[0] == "t,log_sqrt4t,u_origin,envelope,abs_gap"
        assert len(u_lines) == 6
        first = u_lines[1].split(",")
        assert float(first[0]) == 100.0
        assert float(first[1]) == pytest.approx(0.5 * math.log(400.0))
        assert abs(float(first[2]) - float(first[3])) == pytest.approx(
            float(first[4]), rel=1e-12)
        phi_lines = (tmp_path / "probe_phi.csv").read_text().splitlines()
        assert phi_lines[0] == "tau,phi,H_numeric,H_closed"
        assert len(phi_lines) == 6
        row = phi_lines[1].split(",")
        assert float(row[2]) == pytest.approx(float(row[3]), abs=1e-6)

    def test_runs_are_byte_identical(self, tmp_path, average_cert_file, capsys):
        dirs = []
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            assert run_cli(["probe", "--cert", str(average_cert_file),
                            "--t-range", "1e2", "1e6", "5",
                            "--tau-range", "1e2", "1e6", "5",
                            "--out-dir", str(d)]) == 0
            dirs.append(d)
        capsys.readouterr()
        for name in ("probe_u.csv", "probe_phi.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_unpriceable_envelope_leaves_fields_empty(self, tmp_path, capsys):
        cert_path = tmp_path / "bumps.json"
        assert run_cli(["prescribe", "--data", "0", "0", "0", "1",
                        "--n", "1", "--out", str(cert_path)]) == 0
        code = run_cli(["probe", "--cert", str(cert_path),
                        "--t-range", "1e2", "1e4", "3",
                        "--tau-range", "1e2", "1e4", "3",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "probe_u.csv").read_text().splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[3] == "" and fields[4] == ""

    @pytest.mark.parametrize("t_range,filled", [(("1e-2", "1e2", "5"), False),
                                                (("1e2", "1e6", "5"), True)])
    def test_doubly_log_envelope_is_one_call_per_grid(self, tmp_path, capsys, t_range, filled):
        # the doubly-log envelope needs t > 1/4; the column is one call, so a
        # grid that reaches below 1/4 leaves the whole column and the gaps empty
        cert_path = tmp_path / "slow.json"
        assert run_cli(["prescribe", "--data", "0", "0", "1", "1",
                        "--n", "2", "--out", str(cert_path)]) == 0
        assert run_cli(["probe", "--cert", str(cert_path), "--t-range", *t_range,
                        "--tau-range", "1e2", "1e4", "3", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in
                (tmp_path / "probe_u.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5 and all(row[2] != "" for row in rows)
        assert all((row[3] != "", row[4] != "") == (filled, filled) for row in rows)

    def test_missing_certificate_file_exits_two(self, tmp_path, capsys):
        code = run_cli(["probe", "--cert", str(tmp_path / "nope.json"),
                        "--out-dir", str(tmp_path)])
        assert code == 2
        assert "cannot read certificate" in capsys.readouterr().err

    def test_malformed_certificate_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["probe", "--cert", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_round_trip_succeeds(self, tmp_path, average_cert_file, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli(["verify", "--cert", str(average_cert_file),
                        "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "chain holds" in out
        doc = json.loads(report_path.read_text())
        assert doc["chain_ok"] is True
        assert doc["schema"] == "report/1"

    def test_tampered_expectation_exits_one(self, tmp_path, average_cert_file, capsys):
        doc = json.loads(average_cert_file.read_text())
        doc["expected_u_band"] = [-0.5, 0.5]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc, sort_keys=True))
        report_path = tmp_path / "report.json"
        code = run_cli(["verify", "--cert", str(tampered),
                        "--out", str(report_path)])
        assert code == 1
        assert "violate" in capsys.readouterr().err
        assert json.loads(report_path.read_text())["chain_ok"] is False

    def test_bumps_far_out_write_a_report(self, tmp_path, capsys):
        # the H window of this data-slow-plus-bumps certificate reaches
        # tau ~ 5.3e78, where tau^n leaves double range; exit 1 is the
        # bump inside that window (see the n = 3 strict xfail)
        cert = tmp_path / "cert.json"
        report = tmp_path / "report.json"
        assert run_cli(["prescribe", "--data", "-0.3", "-0.3", "0.3", "2",
                        "--n", "4", "--out", str(cert)]) == 0
        code = run_cli(["verify", "--cert", str(cert), "--out", str(report)])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(report.read_text())["measured_H_band"]["grid_hi"] > 1e78

    def test_bump_train_past_the_node_budget_exits_three(self, tmp_path, capsys):
        # a hand-written data-sparse-bumps certificate whose 355,246 centres
        # lie 0.2 % apart: the far points of verify need more Gauss nodes
        # (at most 221,264) than the budget of 200,000, and it is refused
        cert = tmp_path / "cert.json"
        assert run_cli(["prescribe", "--data", "0", "0", "0", "1", "--n", "2",
                        "--out", str(cert)]) == 0
        doc = json.loads(cert.read_text())
        doc["data"]["expr"].update(half_width=1e-3, centers={"base": 1.002, "law": "geometric"})
        cert.write_text(json.dumps(doc, sort_keys=True))
        code = run_cli(["verify", "--cert", str(cert), "--out-dir", str(tmp_path)])
        assert code == 3
        assert re.search(r"needs at least \d+ nodes a point, exceeding the node budget 200000",
                         capsys.readouterr().err)

    def test_convergence_failure_exits_three(self, tmp_path, average_cert_file,
                                             capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise ConvergenceError("panel budget exhausted")

        monkeypatch.setattr(cli, "verify_certificate", explode)
        code = run_cli(["verify", "--cert", str(average_cert_file),
                        "--out-dir", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @staticmethod
    def _string_n(doc):
        doc["target"]["n"] = "2"

    @staticmethod
    def _bool_n(doc):
        doc["target"]["n"] = True

    @staticmethod
    def _bool_band_end(doc):
        doc["expected_u_band"][1] = True

    @staticmethod
    def _no_u_band(doc):
        del doc["expected_u_band"]

    @staticmethod
    def _no_data_variant(doc):
        del doc["data"]["expr"]["variant"]

    @staticmethod
    def _bare_cert(doc):
        return {"schema": "cert/1", "n": 2, "data": []}

    @staticmethod
    def _list_document(doc):
        return [doc]

    @staticmethod
    def _list_band(doc):
        doc["expected_phi_band"] = ["-1", "1"]

    @staticmethod
    def _missing_expr_field(doc):
        del doc["data"]["expr"]["amplitude"]

    @staticmethod
    def _list_target_kind(doc):
        doc["target"]["kind"] = []

    @staticmethod
    def _huge_int_band_end(doc):
        doc["expected_u_band"][0] = -10**400

    @staticmethod
    def _huge_int_amplitude(doc):
        doc["data"]["expr"]["amplitude"] = 10**400

    @staticmethod
    def _bool_amplitude(doc):
        doc["data"]["expr"]["amplitude"] = True

    @staticmethod
    def _huge_int_n(doc):
        doc["target"]["n"] = 10**400

    @staticmethod
    def _n_above_ceiling(doc):
        doc["target"]["n"] = 11

    @pytest.mark.parametrize("mangle", [
        "_bare_cert", "_list_document", "_string_n", "_bool_n", "_bool_band_end",
        "_no_u_band", "_no_data_variant", "_list_band", "_missing_expr_field",
        "_list_target_kind", "_huge_int_band_end", "_huge_int_amplitude",
        "_bool_amplitude", "_huge_int_n", "_n_above_ceiling"])
    def test_malformed_certificate_exits_two(self, tmp_path, average_cert_file,
                                             capsys, mangle):
        doc = json.loads(average_cert_file.read_text())
        mangled = getattr(self, mangle)(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc if mangled is None else mangled))
        code = run_cli(["verify", "--cert", str(bad), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("heatband verify:")
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# Loader fuzzing: a mutated cert/1 or idexpr/1 document either loads (and an
# idexpr/1 one writes back) or is refused with DomainError, and verify exits 2
# on every refused certificate


def _every_variant():
    """One expression holding every idexpr/1 variant."""
    return Sum((
        prescribe_average(-1.0, -0.3, 0.3, 1.0, 2).data,
        Negate(LogSine(0.5, 2.0, 0.1)),
        LogLogSine(0.5, 0.2),
        prescribe_data(-1.0, -0.5, 0.3, 2.0, 1).data,
        BumpTrain(0.7, 0.3, 0.2, GeometricCenters(2.0)),
        prescribe_data(0.0, 0.0, 1.0, 2.0, 1).data,
        SlowFromPeriodic(TrigPolynomial(0.5, (0.2,), (0.85, 0.1)), 3),
        SlowFromPeriodic(TrapezoidWave(1.0, -1.0), 2),
        PeriodicOfLog(TrapezoidWave(1.0, -0.5, 0.4)),
    ))


_EXPR_SEEDS = [to_json(_every_variant())]
_CERT_SEEDS = [cert_to_json(c) for c in (
    prescribe_average(-1.0, -0.3, 0.3, 1.0, 2),
    prescribe_data(-2.0, -0.3, 0.5, 1.0, 1),
    prescribe_data(-2.0, -1.0, 0.0, 0.0, 3),
    prescribe_data(-1.0, 0.0, 0.0, 0.0, 1),
    lemma_not_example(),
)]
_CERT_SEEDS.append(dict(_CERT_SEEDS[0], data=_EXPR_SEEDS[0]))

# small JSON values only, so that no draw can ask for a large allocation;
# integers beyond double range are drawn on purpose
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6) | st.sampled_from([10**400, -10**400]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_DROP = object()


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def _mutated(draw, seeds):
    """A seed document with one or two values dropped or replaced, mostly by
    JSON scalars and sometimes by small containers."""
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(st.sampled_from((_DROP, _SCALARS, _SCALARS, _JSON)))
        if value is not _DROP:
            value = draw(value)
        if not path:
            doc = {} if value is _DROP else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _refused(loader, doc) -> bool:
    try:
        loader(doc)
    except DomainError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(doc=_mutated(_EXPR_SEEDS))
def test_mutated_idexpr_loads_or_raises_domain_error(doc):
    if not _refused(from_json, doc):
        # what loads writes back
        expr = from_json(doc)
        assert from_json(to_json(expr)) == expr


@settings(max_examples=300, deadline=None)
@given(doc=_mutated(_CERT_SEEDS))
def test_mutated_certificate_loads_or_raises_domain_error(doc):
    _refused(cert_from_json, doc)


@settings(max_examples=100, deadline=None)
@given(doc=_mutated(_CERT_SEEDS))
def test_verify_exits_two_on_every_refused_certificate(tmp_path_factory, doc):
    if not _refused(cert_from_json, doc):
        return  # a loadable certificate would run a whole verification
    out = tmp_path_factory.getbasetemp()
    path = out / "fuzzed_cert.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["verify", "--cert", str(path), "--out-dir", str(out)]) == 2


def _deep_certificate(tmp_path, depth):
    """A valid certificate whose data sits under depth negations, written
    as text (json.dumps itself would recurse too deeply)."""
    doc = cert_to_json(prescribe_average(-1.0, -0.3, 0.3, 1.0, 2))
    leaf = json.dumps(doc["data"]["expr"])
    doc["data"] = "@DATA@"
    expr = '{"variant": "negate", "term": ' * depth + leaf + "}" * depth
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace(
        '"@DATA@"', '{"schema": "idexpr/1", "expr": ' + expr + "}"))
    return path


@pytest.mark.parametrize("command", ["verify", "probe"])
def test_deeply_nested_certificate_exits_two(tmp_path, capsys, command):
    path = _deep_certificate(tmp_path, 6000)
    assert run_cli([command, "--cert", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"heatband {command}:") and "deeply" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# reproduce and shared plumbing


class TestReproduce:
    def test_constants_match_references(self, capsys):
        assert run_cli(["reproduce"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [l.split() for l in lines[1:]]
        assert len(rows) == 7
        for row in rows:
            assert float(row[3]) < 1e-6


class TestPlumbing:
    def test_out_dir_env_var_sets_default(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from_env"
        env_dir.mkdir()
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
        assert run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1"]) == 0
        capsys.readouterr()
        assert (env_dir / "cert.json").exists()

    def test_explicit_out_dir_beats_env_var(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from_env"
        cli_dir = tmp_path / "from_flag"
        env_dir.mkdir()
        cli_dir.mkdir()
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
        assert run_cli(["prescribe", "--average", "-1", "-0.3", "0.3", "1",
                        "--out-dir", str(cli_dir)]) == 0
        capsys.readouterr()
        assert (cli_dir / "cert.json").exists()
        assert not (env_dir / "cert.json").exists()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "prescribe" in capsys.readouterr().out

    def test_no_command_exits_two(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    @pytest.mark.skipif(shutil.which("heatband") is None,
                        reason="heatband console script not on PATH "
                               "(package not installed)")
    def test_console_script_is_installed(self):
        proc = subprocess.run(["heatband", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reproduce" in proc.stdout

    def test_console_script_is_declared(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["heatband"] == "heatband.cli:main"
        module_name, _, attr = scripts["heatband"].partition(":")
        assert getattr(importlib.import_module(module_name), attr) is cli.main
