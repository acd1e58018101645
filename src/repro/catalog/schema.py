"""Tables, columns and the HIDDEN attribute.

The security administrator declares sensitivity per column in ordinary
``CREATE TABLE`` statements extended with the ``HIDDEN`` keyword (paper,
Section 2).  The placement rules that follow are:

* **hidden columns** exist only on the smart USB device;
* **visible columns** exist only on the public side (PC / server);
* **primary keys** are replicated on the device regardless of visibility,
  "to allow for queries combining visible and hidden data".

A primary key declared HIDDEN is additionally withheld from the public
side entirely (then its table's visible columns cannot be linked publicly,
which is a legitimate administrator choice; the demo schema keeps PKs
visible and hides foreign keys instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.record import RecordCodec
from repro.storage.types import DataType, IntegerType


class SchemaError(ValueError):
    """An invalid schema declaration."""


@dataclass(frozen=True)
class ForeignKey:
    """A REFERENCES clause: this column points at ``table``(``column``)."""

    table: str
    column: str


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table."""

    name: str
    dtype: DataType
    hidden: bool = False
    primary_key: bool = False
    references: ForeignKey | None = None

    @property
    def on_device(self) -> bool:
        """Stored on the smart USB device?

        Hidden columns, every primary key (the paper replicates all PKs on
        the device) and every foreign key: FKs are the key material the
        Subtree Key Tables are built from, so the device needs them even
        when the administrator left them visible.  Replicating a visible
        FK reveals nothing (its authoritative copy is public anyway).
        """
        return self.hidden or self.primary_key or self.references is not None

    @property
    def on_public(self) -> bool:
        """Stored on the public side?  Everything not hidden."""
        return not self.hidden


@dataclass
class TableDef:
    """A table: ordered columns, exactly one primary key."""

    name: str
    columns: list[ColumnDef]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(n.lower() for n in names)) != len(names):
            raise SchemaError(f"{self.name}: duplicate column names")
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) != 1:
            raise SchemaError(
                f"{self.name}: exactly one PRIMARY KEY column required, "
                f"found {len(pks)}"
            )
        if not isinstance(pks[0].dtype, IntegerType):
            raise SchemaError(
                f"{self.name}: primary keys must be INTEGER "
                f"(IDs travel in packed 32-bit lists)"
            )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name.lower() == name.lower():
                return col
        raise SchemaError(f"{self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name.lower() == name.lower() for c in self.columns)

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name.lower() == name.lower():
                return i
        raise SchemaError(f"{self.name} has no column {name!r}")

    def validate_row(self, row) -> tuple:
        """``row`` checked against the columns (arity, then each value's
        type) and normalised; raises before the caller stores anything."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"{self.name}: row arity {len(row)} != "
                f"{len(self.columns)} columns"
            )
        return tuple(
            col.dtype.validate(value) for col, value in zip(self.columns, row)
        )

    @property
    def pk(self) -> ColumnDef:
        return next(c for c in self.columns if c.primary_key)

    @property
    def foreign_keys(self) -> list[ColumnDef]:
        return [c for c in self.columns if c.references is not None]

    # ------------------------------------------------------------------
    # Physical layouts
    # ------------------------------------------------------------------

    def device_columns(self) -> list[ColumnDef]:
        """Columns stored on the device: the PK first, then hidden ones.

        Memoized: record decoding asks for the layout once per field,
        and the column list is fixed after CREATE TABLE.
        """
        cached = self.__dict__.get("_device_columns")
        if cached is None:
            rest = [
                c for c in self.columns if c.on_device and not c.primary_key
            ]
            cached = [self.pk] + rest
            self._device_columns = cached
        return cached

    def public_columns(self) -> list[ColumnDef]:
        """Columns stored publicly: the PK (if visible) then visible ones."""
        return [c for c in self.columns if c.on_public]

    def device_codec(self) -> RecordCodec:
        return RecordCodec([c.dtype for c in self.device_columns()])

    def device_column_index(self, name: str) -> int:
        index = self.__dict__.get("_device_index")
        if index is None:
            index = {
                c.name.lower(): i for i, c in enumerate(self.device_columns())
            }
            self._device_index = index
        try:
            return index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"{self.name}: {name!r} is not device-resident"
            ) from None


@dataclass
class Schema:
    """All table definitions, with cross-table FK validation."""

    tables: dict[str, TableDef] = field(default_factory=dict)

    def add(self, table: TableDef) -> None:
        key = table.name.lower()
        if key in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[key] = table

    def table(self, name: str) -> TableDef:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def validate(self) -> None:
        """Check every foreign key references an existing primary key."""
        for table in self.tables.values():
            for col in table.foreign_keys:
                fk = col.references
                if not self.has_table(fk.table):
                    raise SchemaError(
                        f"{table.name}.{col.name} references unknown table "
                        f"{fk.table!r}"
                    )
                target = self.table(fk.table)
                target_col = target.column(fk.column)
                if not target_col.primary_key:
                    raise SchemaError(
                        f"{table.name}.{col.name} must reference a primary "
                        f"key; {fk.table}.{fk.column} is not one"
                    )
                if type(col.dtype) is not type(target_col.dtype):
                    raise SchemaError(
                        f"{table.name}.{col.name} type does not match "
                        f"{fk.table}.{fk.column}"
                    )

    def __iter__(self):
        return iter(self.tables.values())

    def __len__(self) -> int:
        return len(self.tables)
