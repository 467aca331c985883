import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cqelite import parse_abox, parse_policy, parse_query, parse_tbox

# the same examples on every run, and no example database in the checkout
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
# hypothesis also caches the constants of local modules on disk, with or
# without a database, when pytest collects; keep that cache out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cqelite-hypothesis")


@pytest.fixture
def supplier_tbox():
    return parse_tbox("ProjA [= Supplier\nProjB [= Supplier")


@pytest.fixture
def supplier_policy():
    return parse_policy("denial :- ProjA(X), ProjB(X)")


@pytest.fixture
def supplier_abox():
    return parse_abox("ProjA(c)\nProjB(c)")


def q(text: str):
    return parse_query(f"q :- {text}")
