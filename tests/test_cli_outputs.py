"""Every CLI output of the ledger ``tests/data/cli_outputs.json``, rerun.

In the environment the ledger was recorded in, stdout, stderr and exit code
must be equal text.  Elsewhere (another Python, numpy, scipy, LAPACK
library or CPU) the text between numbers must be equal, and each number
must agree with the recorded one within 1e-12 of the largest magnitude in
that output, or within one unit of its last digit where a text output
prints it short (``%.6e`` or ``%.4f``).  The test id names the mode that
ran.  ``tests/record_cli_outputs.py`` re-records the ledger.
"""

import json
import re
from itertools import zip_longest

import pytest

from record_cli_outputs import ARGVS, LEDGER, environment, run

with open(LEDGER) as fh:
    _LEDGER = json.load(fh)

MODE = "exact" if _LEDGER["environment"] == environment() else "tolerant"

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
#: a %.6e or a %.4f field, as the certificate lines and table2's text print them
_SHORT = re.compile(r"[-+]?\d\.\d{6}e([-+]\d+)|[-+]?\d+\.\d{4}")


def _split(text):
    """The text between numbers, and the numbers as printed."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def _last_digit(token):
    """One unit of the last digit of a short field, widened by 1e-9 of itself
    since a decimal unit has no exact binary value; 0 for any other number."""
    m = _SHORT.fullmatch(token)
    if m is None:
        return 0.0
    return (10.0 ** (int(m[1]) - 6) if m[1] else 1e-4) * (1 + 1e-9)


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _numbers_differ(recorded, got):
    """Why ``got`` is not ``recorded`` up to the tolerant mode's rounding, or None."""
    (words, numbers), (got_words, got_numbers) = _split(recorded), _split(got)
    if words != got_words:
        return "the text between numbers differs"
    is_json = _is_json(recorded)
    scale = max((abs(float(x)) for x in numbers), default=0.0)
    for want, have in zip(numbers, got_numbers):
        tol = max(1e-12 * scale, 0.0 if is_json else _last_digit(want))
        if abs(float(have) - float(want)) > tol:
            return f"{have} differs from {want} by more than {tol:.3g}"
    return None


def _first_difference(recorded, got):
    lines = zip_longest(recorded.splitlines(True), got.splitlines(True), fillvalue="")
    i, (want, have) = next((i, pair) for i, pair in enumerate(lines) if pair[0] != pair[1])
    return f"line {i + 1} reads {have!r}, recorded {want!r}"


def _mismatch(recorded, got, mode):
    if recorded["exit"] != got["exit"]:
        return f"exit {got['exit']}, recorded {recorded['exit']}"
    for stream in ("stdout", "stderr"):
        if recorded[stream] == got[stream]:
            continue
        why = (_first_difference if mode == "exact" else _numbers_differ)(recorded[stream],
                                                                          got[stream])
        if why:
            return f"{stream}: {why}"
    return None


def test_the_ledger_holds_every_argv_of_the_recorder():
    assert [entry["argv"] for entry in _LEDGER["outputs"]] == ARGVS


@pytest.mark.parametrize("mode", [MODE])
def test_cli_outputs_match_the_ledger(mode):
    failures = []
    for entry in _LEDGER["outputs"]:
        why = _mismatch(entry, run(entry["argv"]), mode)
        if why:
            failures.append(f"gltkit {' '.join(entry['argv'])}: {why}")
    assert not failures, f"{len(failures)} of {len(_LEDGER['outputs'])} outputs changed:\n" + \
        "\n".join(failures[:20])
