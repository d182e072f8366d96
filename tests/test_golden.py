"""Golden values of the 37-certificate corpus.

tests/golden/corpus.json, written by tests/golden/write_corpus.py, holds
each certificate's cert/1 text, its report/1 fields and its probe rows.
Texts, flags and notes must match exactly; a number may move only by
rounding, within 1e-12 * max(1, |v|).  With NumPy's AVX2 and AVX-512
kernels switched off, on an AVX-512 machine with NumPy 2.4, the values
moved by at most 5.4e-15 * max(1, |v|), and a doubly-log grid end near
tau = 5e78 by 2.8e-14 of itself.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_WRITER_PATH = Path(__file__).resolve().parent / "golden" / "write_corpus.py"
_spec = importlib.util.spec_from_file_location("write_corpus", _WRITER_PATH)
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)

REL_TOL = 1e-12
CERTS = writer.corpus_certificates()
GOLDEN = json.loads(writer.CORPUS_JSON.read_text(encoding="utf-8"))


def assert_matches(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert got == want or abs(got - want) <= REL_TOL * max(1.0, abs(want)), (
            f"{where}: {got!r} against {want!r}")
    else:  # texts, flags and None
        assert got == want, f"{where}: {got!r} against {want!r}"


def test_corpus_covers_every_certificate():
    assert len(GOLDEN) == len(CERTS) == 37


@pytest.mark.parametrize("index", range(len(CERTS)))
def test_certificate_keeps_its_golden_values(index):
    got, want = writer.entry(CERTS[index]), GOLDEN[index]
    assert got["cert"] == want["cert"]
    for key in ("chain_ok", "u_partial", "notes"):
        assert got["report"][key] == want["report"][key], key
    assert_matches(got, want, f"certificate {index}")
