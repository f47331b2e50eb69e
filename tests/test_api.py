"""The package's public names."""

from pathlib import Path

import prefnet
from prefnet import epidemic, netgen

# Scalar test oracles that now live in tests/oracles.py, and names deleted
# with the per-node trait arrays or with the per-window PaR counts; none of
# them is part of the package.
REMOVED = (
    "Traits",
    "node_traits",
    "_check_lengths",
    "preferential_score",
    "homophily_score",
    "pair_score",
    "PairScore",
    "transition_probability",
    "par_exact",
)


def test_public_names():
    assert [name for name in prefnet.__all__ if not hasattr(prefnet, name)] == []
    assert len(set(prefnet.__all__)) == len(prefnet.__all__)
    for name in REMOVED:
        assert name not in prefnet.__all__
        assert not any(hasattr(module, name) for module in (prefnet, netgen, epidemic))
    namespace = {}
    exec("from prefnet import *", namespace)
    assert set(prefnet.__all__) <= set(namespace)


def test_artifact_format_lives_in_one_module():
    # The CSV and JSON byte format is decided in artifacts.py alone.
    package = Path(prefnet.__file__).parent
    users = {
        path.name
        for path in package.glob("*.py")
        for call in ("csv.writer", "json.dump", "json.load")
        if call in path.read_text(encoding="utf-8")
    }
    assert users == {"artifacts.py"}
