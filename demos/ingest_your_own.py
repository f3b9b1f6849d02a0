"""
Bringing your own tables
========================

The ingest layer takes delimited bytes, works out which of the three
schemas it is looking at, and coerces cells into typed records while
keeping an honest account of everything it could not use.
"""

import re

import disclim

# a by-type extract, saved the way spreadsheets usually save them:
# mixed-case null tokens, an aggregate row, and one unparseable cell
raw = b"""Entity,Year,Occurrences,Deaths
Flood,2001,180,6200
Flood,2002,171,NA
Drought,2001,16,too many
All natural disasters,2001,405,21000
"""

table = disclim.parse_delimited(raw, source_path="extract.csv")
kind = disclim.detect_schema(table)
print("detected schema:", kind.value)

# coercion stops at the first bad row; the error's message names its row
# (counted from 1 after the header) and column
try:
    disclim.coerce_records(table, kind)
except disclim.DataError as exc:
    print(exc)
    bad_row = int(re.match(r"row (\d+)", str(exc))[1])

# drop that row and coerce the rest
rows = table.rows[:bad_row - 1] + table.rows[bad_row:]
table = disclim.RawTable(table.header, rows, table.source_path)
result = disclim.coerce_records(table, kind)
print(f"{len(result.records)} records kept")

# null tokens are not errors; they are tallied per column instead
print(result.null_report.render_text())

# the same table assembles into a corpus; the aggregate row is
# recognized as a rollup rather than another disaster type
corpus = disclim.build_corpus([table])
flood = corpus.build_series("flood", "count")
print("flood counts:", dict(zip(flood.years, flood.values)))
print("types present:", corpus.type_names())
