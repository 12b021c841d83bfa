"""Table 3: code-size ratio between SQL delta code and BiDEL scripts."""

from __future__ import annotations

from repro.bench.harness import Experiment, ExperimentResult, register
from repro.sqlgen.handwritten import HANDWRITTEN_TASKY_MIGRATION_SQL
from repro.sqlgen.scripts import tasky_generated_scripts
from repro.util.codemetrics import measure_code


def run() -> ExperimentResult:
    scripts = tasky_generated_scripts()
    result = ExperimentResult(
        experiment="table3",
        title="Table 3: SQL vs BiDEL code size for TasKy",
        columns=("artifact", "language", "lines", "statements", "characters", "ratio(lines)"),
    )
    pairs = [
        ("initially", scripts.bidel_initial, scripts.sql_initial),
        ("evolution", scripts.bidel_evolution, scripts.sql_evolution),
        ("migration", scripts.bidel_migration, scripts.sql_migration),
    ]
    for artifact, bidel_code, sql_code in pairs:
        bidel = measure_code(bidel_code)
        sql = measure_code(sql_code)
        ratio = sql.ratio_to(bidel)
        result.add(artifact, "BiDEL", bidel.lines, bidel.statements, bidel.characters, 1.0)
        result.add(artifact, "SQL", sql.lines, sql.statements, sql.characters, ratio.lines)
    result.note(
        "paper ratios: evolution x119.67 LoC, migration x182.00 LoC; the SQL "
        "column here is the delta code the live backend installs and runs "
        "(repro.backend.codegen: views + INSTEAD OF triggers; for the "
        "migration, stage + swap + every version's regenerated delta code)"
    )
    result.note(
        "hand-written data movement alone for the same migration: "
        f"{measure_code(HANDWRITTEN_TASKY_MIGRATION_SQL).lines} lines, before "
        "any view or trigger is rewritten against the new tables"
    )
    return result


register(
    Experiment(
        name="table3",
        title="SQL vs BiDEL code size",
        paper_artifact="Table 3",
        runner=run,
    )
)
