"""Write corpus.json, the golden values of the 37-certificate corpus.

For each certificate of _CORPUS in tests/test_prescriber.py (one per
construction tag and dimension) the file holds its cert/1 text, the
report/1 fields of a default verify_certificate call and the rows of both
probe tables at PROBE_TIMES and PROBE_RADII.  tests/test_golden.py
recomputes every entry and compares it with the file.  Rewrite the file
only when a change is meant to move these values:

    PYTHONPATH=src python tests/golden/write_corpus.py

Before it writes, the script compares the new entries with the file they
replace and prints the largest |shift| of each numeric field that moved,
naming its certificate, and every text, flag or None that changed.  A
field is a key path in which a row index reads [] and a column index [j].
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from heatband.cli import _probe_phi_rows, _probe_u_rows
from heatband.errors import _json_real
from heatband.prescriber import cert_dumps
from heatband.solution_probe import report_to_json, verify_certificate

HERE = Path(__file__).resolve().parent
CORPUS_JSON = HERE / "corpus.json"

# the probe bench reaches t = 1e30 and tau = 1e12
PROBE_TIMES = (1e2, 1e6, 1e12, 1e30)
PROBE_RADII = (1e2, 1e6, 1e12)


def corpus_certificates() -> list:
    """The certificates of test_prescriber._CORPUS, in its order."""
    if str(HERE.parent) not in sys.path:
        sys.path.insert(0, str(HERE.parent))
    from test_prescriber import _CORPUS

    scope: dict = {}
    exec(_CORPUS, scope)
    return scope["certs"]


def entry(cert) -> dict:
    """The golden values of one certificate, as JSON reads them back."""
    report = report_to_json(verify_certificate(cert))
    del report["cert"]  # the cert/1 text is kept whole
    values = {
        "cert": cert_dumps(cert),
        "report": report,
        "probe_u": _probe_u_rows(cert, np.array(PROBE_TIMES)),
        "probe_phi": _probe_phi_rows(cert, np.array(PROBE_RADII)),
    }
    return json.loads(json.dumps(values, default=_json_real))


def _changes(old, new, path: str, shifts: dict, texts: list) -> None:
    """Collect numeric shifts by field into shifts and other changes into texts."""
    if isinstance(old, dict) and isinstance(new, dict) and sorted(old) == sorted(new):
        for key in sorted(old):
            _changes(old[key], new[key], f"{path}.{key}" if path else key, shifts, texts)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        rows = any(isinstance(item, list) for item in old)
        for j, (a, b) in enumerate(zip(old, new)):
            _changes(a, b, f"{path}[]" if rows else f"{path}[{j}]", shifts, texts)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        shifts.setdefault(path, []).append(abs(new - old))
    elif old != new:
        texts.append((path, old, new))


def regeneration_report(old_entries: list, new_entries: list, tags: list) -> list[str]:
    """Lines naming what the new entries move against the old ones: the
    largest |shift| per field, with the certificates it moved, then every
    changed text."""
    lines = []
    if len(old_entries) != len(new_entries):
        lines.append(f"certificates: {len(old_entries)} -> {len(new_entries)}")
    largest: dict = {}
    for index, (old, new) in enumerate(zip(old_entries, new_entries)):
        shifts, texts = {}, []
        _changes(old, new, "", shifts, texts)
        for field, values in shifts.items():
            if max(values) > 0.0:
                best, movers = largest.get(field, (0.0, []))
                largest[field] = (max(best, max(values)), movers + [tags[index]])
        lines.extend(f"text {tags[index]} {path}: {a!r} -> {b!r}" for path, a, b in texts)
    for field in sorted(largest):
        shift, movers = largest[field]
        lines.append(f"shift {field}: {shift:.3g} in {len(movers)} certificates "
                     f"({', '.join(movers)})")
    return lines or ["no value moved"]


def main() -> None:
    certs = corpus_certificates()
    entries = [entry(cert) for cert in certs]
    if CORPUS_JSON.exists():
        old_entries = json.loads(CORPUS_JSON.read_text(encoding="utf-8"))
        tags = [f"{cert.construction_tag} n={cert.target.n}" for cert in certs]
        print("\n".join(regeneration_report(old_entries, entries, tags)))
    texts = [json.dumps(values, sort_keys=True) for values in entries]
    CORPUS_JSON.write_text("[\n" + ",\n".join(texts) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(texts)} certificates to {CORPUS_JSON}")


if __name__ == "__main__":
    main()
