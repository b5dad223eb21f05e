"""Analysis helpers: render the paper's tables and figures from runs.

Public surface::

    from repro.analysis import (
        render_table, render_table1, render_table2, render_table3,
        RECORD_RESOLUTIONS, sparkline, series_summary, resample,
        Comparison, ComparisonSet,
    )
"""

from repro.analysis.compare import Comparison, ComparisonSet
from repro.analysis.records import (
    RECORD_RESOLUTIONS,
    RecordResolution,
    render_table3,
)
from repro.analysis.series import resample, series_summary, sparkline
from repro.analysis.tables import render_table, render_table1, render_table2

__all__ = [
    "Comparison",
    "ComparisonSet",
    "RECORD_RESOLUTIONS",
    "RecordResolution",
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "resample",
    "series_summary",
    "sparkline",
]
