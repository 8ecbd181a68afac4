import gc
import pathlib
import sys

import pytest

from racebox.parser import parse_program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
# the scripts import as plain modules, as run_corpus.py imports regen_fixtures
sys.path.insert(0, str(CORPUS.parent / "scripts"))


@pytest.fixture
def corpus():
    def load(name: str):
        return parse_program((CORPUS / f"{name}.conc").read_text())

    return load


@pytest.fixture
def corpus_source():
    def load(name: str) -> str:
        return (CORPUS / f"{name}.conc").read_text()

    return load


@pytest.fixture
def cyclic_garbage():
    """Run a callable with the cycle collector off and return the objects
    that one collection then frees: what it left in reference cycles."""

    def count(run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    return count
