"""Both execution disciplines behind one ``Engine``-shaped object."""

from __future__ import annotations

from repro.engine import ENGINES, Database, Engine, Result


class BothEngines:
    """Answers every query on the row reference *and* the columnar
    engine over one catalog, insists the two agree — rows, their order,
    per-row lineage — and returns the columnar answer, so a suite
    written against one engine holds for both."""

    def __init__(self, database: Database):
        self.database = database
        self.engines = [Engine(database, name) for name in ENGINES]

    def execute(self, query, lineage: bool = False) -> Result:
        reference, got = [
            engine.execute(query, lineage=lineage) for engine in self.engines
        ]
        assert got.columns == reference.columns
        assert got.rows == reference.rows
        assert got.lineages == reference.lineages
        return got

    def invalidate_plans(self) -> None:
        for engine in self.engines:
            engine.invalidate_plans()
