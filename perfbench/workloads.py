"""Seeded inputs for the benchmark workloads, with the gold each one records.

Everything here is a pure function of the world (itself a pure function of
the seed): the same ``--seed`` gives byte-identical tables.  The program
under test only ever receives the generated :class:`~repro.tables.model.Table`
objects.

* :func:`gft_corpus` -- the paper's 40-table GFT corpus as generated.
* :func:`mirrored_tables` -- tables mirrored from the GFT directory: each
  one re-lists rows of the GFT tables that share its column layout, in its
  own order, with some names swapped for knowledge-base-only entities the
  GFT corpus never mentions ("fresh" names).  ``mirror_warm`` uses 80-row
  tables; ``service_open`` uses 12-row request tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.eval.gold import GoldEntityReference, GoldStandard
from repro.synth.table_corpus import TableCorpus, build_gft_corpus
from repro.synth.types import TYPE_SPECS
from repro.synth.world import SyntheticWorld
from repro.tables.model import Table

TYPE_KEYS = [spec.key for spec in TYPE_SPECS]
"""Every type the benchmark requests (the paper's full type set)."""


@dataclass
class Inputs:
    """Tables plus the gold the generator recorded for them."""

    tables: list[Table]
    gold: GoldStandard = field(default_factory=GoldStandard)
    fresh_names: int = 0

    @property
    def n_rows(self) -> int:
        return sum(table.n_rows for table in self.tables)


def gft_corpus(world: SyntheticWorld) -> TableCorpus:
    """The 40-table GFT corpus of *world*."""
    return build_gft_corpus(world)


def _family(table: Table) -> tuple:
    """Column layout plus source family ("gft-museum", "gft-mixed", ...)."""
    layout = tuple((column.name, column.column_type) for column in table.columns)
    return layout, table.name.rsplit("-", 1)[0]


class _RowSource:
    """GFT rows grouped by table family, each with its gold type."""

    def __init__(self, world: SyntheticWorld, corpus: TableCorpus) -> None:
        self.layouts: dict[tuple, list[tuple[Table, list[str], str]]] = {}
        for table in corpus.tables:
            rows = self.layouts.setdefault(_family(table), [])
            for index, row in enumerate(table.rows):
                reference = corpus.gold.lookup(table.name, index, 0)
                if reference is not None:
                    rows.append((table, list(row), reference.type_key))
        # Knowledge-base entities whose names no GFT table carries.
        seen = {row[0] for rows in self.layouts.values() for _, row, _ in rows}
        self.fresh: dict[str, list[str]] = {}
        for key in TYPE_KEYS:
            names = sorted(
                {entity.table_name for entity in world.kb_entities(key)} - seen
            )
            self.fresh[key] = names


def _apportion(families: dict, n_tables: int) -> list:
    """*n_tables* family keys, shared out by row count (largest remainder)."""
    keys = sorted(families, key=repr)
    total = sum(len(families[key]) for key in keys)
    quotas = {key: n_tables * len(families[key]) / total for key in keys}
    counts = {key: int(quota) for key, quota in quotas.items()}
    by_remainder = sorted(keys, key=lambda key: counts[key] - quotas[key])
    for key in by_remainder[: n_tables - sum(counts.values())]:
        counts[key] += 1
    return [key for key in keys for _ in range(counts[key])]


def _build(
    name: str,
    layout_rows: list[tuple[Table, list[str], str]],
    n_rows: int,
    fresh_rows: int,
    rng: random.Random,
    take_fresh,
    gold: GoldStandard,
) -> tuple[Table, int]:
    """One table of *n_rows* distinct GFT rows, *fresh_rows* of them renamed."""
    chosen = rng.sample(layout_rows, min(n_rows, len(layout_rows)))
    template = chosen[0][0]
    table = Table(name=name, columns=list(template.columns))
    fresh_at = set(rng.sample(range(len(chosen)), min(fresh_rows, len(chosen))))
    used = 0
    for index, (_, row, type_key) in enumerate(chosen):
        row = list(row)
        if index in fresh_at:
            fresh = take_fresh(type_key)
            if fresh is not None:
                row[0], type_key = fresh
                used += 1
        table.append_row(row)
        gold.add(
            GoldEntityReference(
                table_name=name,
                row=index,
                column=0,
                type_key=type_key,
                cell_value=row[0],
            )
        )
    return table, used


def mirrored_tables(
    world: SyntheticWorld,
    corpus: TableCorpus,
    label: str,
    n_tables: int,
    n_rows: int,
    fresh_per_table: tuple[int, ...],
) -> Inputs:
    """*n_tables* tables of up to *n_rows* rows mirrored from *corpus*.

    The tables are shared out among the GFT table families (same type and
    column layout, or the mixed label tables) in proportion to their rows,
    so the corpus shape barely moves with the seed; each table lists
    distinct rows of its family in its own order.  ``fresh_per_table[i % len(...)]`` of its rows are renamed to
    knowledge-base-only names, drawn *without replacement* across all
    tables, so every fresh name is new to the whole stream.  A fresh name
    keeps the row's type while that type has names left, then comes from
    the type with the most left; the gold records the name's own type.
    :attr:`Inputs.fresh_names` counts the names used.
    *label* and the world seed seed the draw.
    """
    rng = random.Random(f"{label}:{world.config.seed}")
    source = _RowSource(world, corpus)
    pools = {key: rng.sample(names, len(names)) for key, names in source.fresh.items()}
    families = _apportion(source.layouts, n_tables)
    rng.shuffle(families)
    inputs = Inputs(tables=[])

    def take_fresh(type_key: str) -> tuple[str, str] | None:
        if not pools[type_key]:
            type_key = max(sorted(pools), key=lambda key: len(pools[key]))
        pool = pools[type_key]
        return (pool.pop(), type_key) if pool else None

    for index, family in enumerate(families):
        table, used = _build(
            f"{label}-{index:05d}",
            source.layouts[family],
            n_rows,
            fresh_per_table[index % len(fresh_per_table)],
            rng,
            take_fresh,
            inputs.gold,
        )
        inputs.tables.append(table)
        inputs.fresh_names += used
    return inputs
