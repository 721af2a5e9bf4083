"""The golden corpus: each argv in tests/golden/exact.json, run in
process through cli.main in a temporary directory, gives the exit code,
stdout and stderr recorded there.  scripts/golden.py regenerates it."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ENTRIES = json.loads(golden.CORPUS.read_text())


def _id(argv):
    return " ".join(a if len(a) <= 24 else f"<{len(a)} digits>" for a in argv)


@pytest.mark.parametrize("entry", ENTRIES, ids=[_id(e["argv"]) for e in ENTRIES])
def test_output_matches_the_corpus(entry):
    assert golden.record(entry["argv"]) == entry


def test_corpus_holds_the_script_argv():
    assert [e["argv"] for e in ENTRIES] == golden.corpus_argv()
