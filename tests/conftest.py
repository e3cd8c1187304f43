from pathlib import Path

import pytest

from ynkit.corpus import load_corpus

DATA_DIR = Path(__file__).parent.parent / "src" / "ynkit" / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def fixture_corpus_path() -> Path:
    return DATA_DIR / "fixture_corpus.jsonl"


@pytest.fixture(scope="session")
def fixture_corpus(fixture_corpus_path):
    return load_corpus(fixture_corpus_path)


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR
