"""Plaintext schemas and encrypted-schema plans.

The user describes their table with :class:`TableSchema` (column types,
sensitivity flags, and optional value statistics for enhanced SPLASHE).
The planner turns that plus a sample query set into an
:class:`EncryptedSchema`: one :class:`ColumnPlan` per plaintext column
saying which scheme protects it and which physical (server-side) columns
carry its ciphertexts.

Naming convention for physical columns: ``revenue__ashe``,
``revenue__sq__ashe``, ``country__det``, ``ts__ore``,
``salary@country@3__ashe`` (measure ``salary`` splayed for code 3 of
dimension ``country``), ``country@3__ind`` (indicator), ``...@oth...`` for
the enhanced-SPLASHE catch-all columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from repro.errors import PlanningError


class Sensitivity(Enum):
    PUBLIC = "public"
    SENSITIVE = "sensitive"


@dataclass
class ColumnSpec:
    """One plaintext column plus the statistics the planner may use.

    ``distinct_values`` (the domain) enables SPLASHE; ``value_counts``
    (expected frequency distribution) enables *enhanced* SPLASHE
    (Section 3.4 requires knowing the distribution, not exact counts).
    ``max_abs`` bounds a measure's sums, checked by uploads and appends;
    ``nbits`` sizes the ORE domain for range-filtered columns.
    """

    name: str
    dtype: str = "int"  # "int" | "str"
    sensitive: bool = False
    distinct_values: list[Any] | None = None
    value_counts: Mapping[Any, int] | None = None
    max_abs: int | None = None
    nbits: int = 32

    def __post_init__(self) -> None:
        if self.dtype not in ("int", "str"):
            raise PlanningError(f"column {self.name!r}: dtype must be int or str")
        if self.value_counts is not None and self.distinct_values is None:
            self.distinct_values = list(self.value_counts)

    @property
    def cardinality(self) -> int | None:
        return None if self.distinct_values is None else len(self.distinct_values)


@dataclass
class TableSchema:
    name: str
    columns: list[ColumnSpec]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise PlanningError(f"duplicate column names in table {self.name!r}")

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise PlanningError(
            f"table {self.name!r} has no column {name!r}; "
            f"available: {[c.name for c in self.columns]}"
        )

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


# ---------------------------------------------------------------------------
# Column plans (the encrypted schema)
# ---------------------------------------------------------------------------


@dataclass
class PlainPlan:
    """Non-sensitive column stored in the clear."""

    column: str
    kind: str = field(default="plain", init=False)

    def physical_columns(self) -> list[str]:
        return [self.column]

    def physical_schemes(self) -> dict[str, str]:
        return {self.column: "plain"}


@dataclass
class AshePlan:
    """Measure encrypted with ASHE.

    ``squares_column`` carries client-side-squared values for variance
    (CPre); ``ore_column``/``det_column`` let the measure also serve as a
    filter or min/max target.
    """

    column: str
    cipher_column: str
    squares_column: str | None = None
    ore_column: str | None = None
    det_column: str | None = None
    kind: str = field(default="ashe", init=False)

    def physical_columns(self) -> list[str]:
        extras = [self.squares_column, self.ore_column, self.det_column]
        return [self.cipher_column] + [c for c in extras if c]

    def physical_schemes(self) -> dict[str, str]:
        return _measure_schemes(self, "ashe")


@dataclass
class PaillierPlan:
    """Measure encrypted with Paillier (the CryptDB/Monomi baseline mode)."""

    column: str
    cipher_column: str
    squares_column: str | None = None
    ore_column: str | None = None
    det_column: str | None = None
    kind: str = field(default="paillier", init=False)

    def physical_columns(self) -> list[str]:
        extras = [self.squares_column, self.ore_column, self.det_column]
        return [self.cipher_column] + [c for c in extras if c]

    def physical_schemes(self) -> dict[str, str]:
        return _measure_schemes(self, "paillier")


@dataclass
class DetPlan:
    """Dimension under deterministic encryption (joins, or SPLASHE fallback)."""

    column: str
    cipher_column: str
    dtype: str
    join_group: str | None = None  # columns sharing a key + dictionary
    kind: str = field(default="det", init=False)

    def physical_columns(self) -> list[str]:
        return [self.cipher_column]

    def physical_schemes(self) -> dict[str, str]:
        return {self.cipher_column: "det"}


@dataclass
class OrePlan:
    """Dimension (or min/max measure) under order-revealing encryption."""

    column: str
    cipher_column: str
    nbits: int
    kind: str = field(default="ore", init=False)

    def physical_columns(self) -> list[str]:
        return [self.cipher_column]

    def physical_schemes(self) -> dict[str, str]:
        return {self.cipher_column: "ore"}


@dataclass
class SplasheBasicPlan:
    """Basic SPLASHE (Section 3.3): d indicator columns, and for every
    measure aggregated under this dimension, d splayed measure columns."""

    column: str
    values: list[Any]  # code = index
    indicator_columns: list[str]  # code -> physical column
    measure_columns: dict[str, list[str]]  # measure -> code -> column
    kind: str = field(default="splashe_basic", init=False)

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def code_of(self, value: Any) -> int | None:
        try:
            return self.values.index(value)
        except ValueError:
            return None

    def indicators(self) -> list[str]:
        return list(self.indicator_columns)

    def physical_columns(self) -> list[str]:
        cols = self.indicators()
        for per_code in self.measure_columns.values():
            cols.extend(per_code)
        return cols

    def physical_schemes(self) -> dict[str, str]:
        # Indicators and splayed measures are ASHE ciphertext columns.
        return {c: "ashe" for c in self.physical_columns()}


@dataclass
class SplasheEnhancedPlan:
    """Enhanced SPLASHE (Section 3.4): k splayed columns for the frequent
    values, catch-all "others" columns, and a frequency-balanced DET
    column for the infrequent values."""

    column: str
    values: list[Any]
    frequent_codes: list[int]
    det_column: str
    indicator_columns: dict[int, str]  # frequent code -> indicator column
    others_indicator: str
    measure_columns: dict[str, dict[int, str]]  # measure -> frequent code -> col
    others_measure: dict[str, str]  # measure -> catch-all column
    kind: str = field(default="splashe_enhanced", init=False)

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def code_of(self, value: Any) -> int | None:
        try:
            return self.values.index(value)
        except ValueError:
            return None

    def is_frequent(self, code: int) -> bool:
        return code in self.frequent_codes

    def indicators(self) -> list[str]:
        return [self.others_indicator, *self.indicator_columns.values()]

    def physical_columns(self) -> list[str]:
        cols = [self.det_column, *self.indicators()]
        for per_code in self.measure_columns.values():
            cols.extend(per_code.values())
        cols.extend(self.others_measure.values())
        return cols

    def physical_schemes(self) -> dict[str, str]:
        schemes = {c: "ashe" for c in self.physical_columns()}
        schemes[self.det_column] = "det"  # frequency-balanced DET tokens
        return schemes


def _measure_schemes(plan: "AshePlan | PaillierPlan", cipher: str) -> dict[str, str]:
    """Per-physical-column scheme of a measure plan: the ORE/DET companion
    columns of an ASHE or Paillier measure carry ORE/DET ciphertexts, not
    the aggregate scheme -- the distinction store manifests record so the
    zone-map index knows which columns are indexable."""
    schemes = {plan.cipher_column: cipher}
    if plan.squares_column:
        schemes[plan.squares_column] = cipher
    if plan.ore_column:
        schemes[plan.ore_column] = "ore"
    if plan.det_column:
        schemes[plan.det_column] = "det"
    return schemes


ColumnPlan = (
    PlainPlan | AshePlan | PaillierPlan | DetPlan | OrePlan
    | SplasheBasicPlan | SplasheEnhancedPlan
)


@dataclass
class EncryptedSchema:
    """The planner's output for one table."""

    table: str
    mode: str  # "seabed" | "paillier" | "plain"
    plans: dict[str, ColumnPlan]
    warnings: list[str] = field(default_factory=list)

    def plan(self, column: str) -> ColumnPlan:
        try:
            return self.plans[column]
        except KeyError:
            raise PlanningError(
                f"no plan for column {column!r} in table {self.table!r}"
            ) from None

    def physical_columns(self) -> list[str]:
        out: list[str] = []
        for plan in self.plans.values():
            out.extend(plan.physical_columns())
        return out

    def ashe_bits(self) -> dict[str, int]:
        """The ASHE columns over ``Z_2^32``: every SPLASHE indicator, whose
        sum counts rows.  Every other ASHE column is over ``Z_2^64``."""
        return {
            column: 32
            for plan in self.plans.values()
            if isinstance(plan, (SplasheBasicPlan, SplasheEnhancedPlan))
            for column in plan.indicators()
        }


# -- physical column naming -------------------------------------------------


def ashe_col(column: str) -> str:
    return f"{column}__ashe"


def ashe_sq_col(column: str) -> str:
    return f"{column}__sq__ashe"


def paillier_col(column: str) -> str:
    return f"{column}__paillier"


def paillier_sq_col(column: str) -> str:
    return f"{column}__sq__paillier"


def det_col(column: str) -> str:
    return f"{column}__det"


def ore_col(column: str) -> str:
    return f"{column}__ore"


def splashe_indicator_col(dim: str, code: int | str) -> str:
    return f"{dim}@{code}__ind"


def splashe_measure_col(measure: str, dim: str, code: int | str) -> str:
    return f"{measure}@{dim}@{code}__ashe"
