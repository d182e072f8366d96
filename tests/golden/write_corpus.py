"""Write corpus.json, the golden values of the 37-certificate corpus.

For each certificate of _CORPUS in tests/test_prescriber.py (one per
construction tag and dimension) the file holds its cert/1 text, the
report/1 fields of a default verify_certificate call and the rows of both
probe tables at PROBE_TIMES and PROBE_RADII.  tests/test_golden.py
recomputes every entry and compares it with the file.  Rewrite the file
only when a change is meant to move these values:

    PYTHONPATH=src python tests/golden/write_corpus.py
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


def main() -> None:
    entries = [json.dumps(entry(cert), sort_keys=True) for cert in corpus_certificates()]
    CORPUS_JSON.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} certificates to {CORPUS_JSON}")


if __name__ == "__main__":
    main()
