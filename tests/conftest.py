import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def r_builds(monkeypatch) -> list:
    """Counts the matrix groups `genbound.constructions` builds, which are
    the point groups R of its targets and each target group that is read:
    each build appends its generators."""
    import genbound.constructions as constructions

    built = []

    class Counted(constructions.MatrixGroup):
        def __init__(self, p, dim, generators):
            built.append(generators)
            super().__init__(p, dim, generators)

    monkeypatch.setattr(constructions, "MatrixGroup", Counted)
    return built
