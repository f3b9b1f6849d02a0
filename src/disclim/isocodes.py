"""Entity-name normalization against a bundled ISO 3166-1 alpha-3 table.

The table ships with the package (``data/country_codes.csv``) and lists one
canonical name per code plus common aliases.  Aggregate entities (World,
continents) carry no code and are flagged so downstream consumers can
exclude them from per-country views.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass
from importlib import resources

from .errors import DataError

CODE_RE = re.compile(r"^[A-Z]{3}$")


def _key(name: str) -> str:
    return re.sub(r"\s+", " ", name.strip()).casefold()


@dataclass(frozen=True)
class NormalizedEntity:
    canonical: str
    code: str | None
    aggregate: bool


class IsoCodeTable:
    """Immutable lookup from entity names (canonical or alias) to codes."""

    def __init__(self, entries: list[NormalizedEntity], aliases: dict[str, str]):
        self._by_key: dict[str, NormalizedEntity] = {}
        self._by_code: dict[str, NormalizedEntity] = {}
        for entry in entries:
            if entry.code is not None:
                if not CODE_RE.match(entry.code):
                    raise DataError(f"bad ISO code {entry.code!r} for {entry.canonical}")
                if entry.code in self._by_code:
                    raise DataError(f"duplicate ISO code {entry.code}")
                self._by_code[entry.code] = entry
            key = _key(entry.canonical)
            if key in self._by_key:
                raise DataError(f"duplicate entity name {entry.canonical!r}")
            self._by_key[key] = entry
        for alias, canonical in aliases.items():
            akey = _key(alias)
            target = self._by_key.get(_key(canonical))
            if target is None:
                raise DataError(f"alias {alias!r} points at unknown {canonical!r}")
            if akey in self._by_key and self._by_key[akey] is not target:
                raise DataError(f"alias {alias!r} collides with an existing name")
            self._by_key[akey] = target

    def normalize(self, name: str) -> NormalizedEntity | None:
        """Resolve a name or bare code; None when unrecognized."""
        entry = self._by_key.get(_key(name))
        if entry is not None:
            return entry
        return self._by_code.get(name.strip().upper())


def parse_code_table(text: str) -> IsoCodeTable:
    """Parse the canonical,code,aggregate,aliases CSV into a lookup table."""
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header != ["canonical", "code", "aggregate", "aliases"]:
        raise DataError(f"unexpected code-table header: {header}")
    entries: list[NormalizedEntity] = []
    aliases: dict[str, str] = {}
    for row in reader:
        if not row:
            continue
        canonical, code, aggregate, alias_field = row
        entries.append(
            NormalizedEntity(
                canonical=canonical,
                code=code or None,
                aggregate=aggregate == "true",
            )
        )
        for alias in filter(None, alias_field.split(";")):
            aliases[alias] = canonical
    return IsoCodeTable(entries, aliases)


@functools.cache
def load_default_codes() -> IsoCodeTable:
    """The bundled table, parsed once per process and shared by every caller."""
    text = (
        resources.files("disclim.data").joinpath("country_codes.csv").read_text("utf-8")
    )
    return parse_code_table(text)
