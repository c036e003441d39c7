"""The query translator (paper Section 4.4, Table 2).

Rewrites a plaintext :class:`~repro.query.ast.Query` into one or more
:class:`~repro.core.server.ServerQuery` requests plus an output program
the decryption module interprets.  Table 2's rewrites happen here, but
for its group-by optimisation:

1. **ID preservation** -- every ASHE aggregate implicitly carries the row
   identifier column (our server ops track IDs natively).
2. **SPLASHE rewriting** -- equality predicates on splayed dimensions
   vanish; the aggregation retargets the per-value splayed columns (plus a
   DET filter on the catch-all column for enhanced-SPLASHE infrequent
   values, each of which becomes its own small request).
3. **Group-by** -- a GROUP BY on a DET dimension groups on its token
   column, one row set per group key; on a splayed dimension the
   per-value columns *are* the groups.  The optimisation (Section 4.5)
   spreads few groups over more reduce keys; it is not done, because
   only a key and one value per aggregate cross the shuffle per row set,
   never an ID list, so the few-reducer bottleneck it fixes cannot arise.

Constants are encrypted with the matching scheme's token function, so the
server sees only ciphertext comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.core import schema as sc
from repro.core import server as srv
from repro.core.crypto_factory import CryptoFactory
from repro.core.encryptor import ClientTableState
from repro.errors import TranslationError
from repro.ops import OPS
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Not,
    Or,
    Param,
    Predicate,
    Query,
    predicate_columns,
)

#: (request index, server alias)
Ref = tuple[int, str]


@dataclass(frozen=True, eq=False)
class ParamFilter:
    """A client-side placeholder in a translated filter tree.

    Holds the :class:`~repro.query.ast.Param` names it consumes plus a
    ``build`` closure that turns concrete values into the real
    server-side :data:`~repro.core.server.FilterExpr` (one token
    encryption per value -- all plan lookups and predicate splitting
    already happened at translation time).  These never reach the
    server: :func:`bind_filter` replaces them before execution.
    """

    params: tuple[str, ...]
    build: Callable[..., srv.FilterExpr]


def filter_params(expr: Any) -> tuple[str, ...]:
    """Parameter names a (possibly templated) filter tree consumes, in
    left-to-right order."""
    names: list[str] = []

    def visit(node: Any) -> None:
        if node is None:
            return
        if isinstance(node, ParamFilter):
            names.extend(n for n in node.params if n not in names)
        elif isinstance(node, (srv.FilterAnd, srv.FilterOr)):
            for child in node.children:
                visit(child)
        elif isinstance(node, srv.FilterNot):
            visit(node.child)

    visit(expr)
    return tuple(names)


def bind_filter(expr: Any, values: Mapping[str, Any]) -> srv.FilterExpr | None:
    """Substitute concrete values for every :class:`ParamFilter` slot."""
    if expr is None:
        return None
    if isinstance(expr, ParamFilter):
        try:
            args = [values[name] for name in expr.params]
        except KeyError as missing:
            raise TranslationError(
                f"no value bound for parameter {missing.args[0]!r}"
            ) from None
        return bind_filter(expr.build(*args), values)
    if isinstance(expr, srv.FilterAnd):
        return srv.FilterAnd(tuple(bind_filter(c, values) for c in expr.children))
    if isinstance(expr, srv.FilterOr):
        return srv.FilterOr(tuple(bind_filter(c, values) for c in expr.children))
    if isinstance(expr, srv.FilterNot):
        return srv.FilterNot(bind_filter(expr.child, values))
    return expr


def bind_requests(
    requests: list[srv.ServerQuery], values: Mapping[str, Any]
) -> list[srv.ServerQuery]:
    """Re-bind a translated request list; requests without parameter
    slots are shared, parameterised ones get a fresh filter tree."""
    bound: list[srv.ServerQuery] = []
    for request in requests:
        if filter_params(request.filter):
            bound.append(replace(request, filter=bind_filter(request.filter, values)))
        else:
            bound.append(request)
    return bound


@dataclass
class OutputItem:
    """One output column and where its decrypted ingredients come from.

    ``sum_refs`` entries are decrypted and added together (a SPLASHE IN
    selection contributes one ref per selected code).  ``count_mode``
    distinguishes counts carried as values (plain counts, indicator sums)
    from counts read off an ASHE ID list for free.
    """

    name: str
    kind: str  # group_key | sum | count | avg | var | stddev | min | max | median
    measure: str | None = None
    sum_refs: list[Ref] = field(default_factory=list)
    sumsq_refs: list[Ref] = field(default_factory=list)
    count_refs: list[Ref] = field(default_factory=list)
    count_mode: str = "value"  # "value" | "ids"
    extreme_ref: Ref | None = None
    extreme_mode: str | None = None  # plain | ashe | paillier
    # splashe_group shape: role -> {code: ref}; code -1 = the enhanced-mode
    # grouped request over the catch-all columns.
    splashe: dict[str, dict[int, Ref]] = field(default_factory=dict)


@dataclass
class TranslatedQuery:
    query: Query
    requests: list[srv.ServerQuery]
    outputs: list[OutputItem]
    shape: str  # "flat" | "grouped" | "splashe_group"
    group_dim: str | None = None
    group_request: int | None = None  # request carrying grouped results
    group_decode: str | None = None  # "plain" | "det" | "splashe_det"
    splashe_group_codes: list[int] = field(default_factory=list)
    category: str = "S"  # S | CPre | CPost | 2R (paper Tables 4 and 6)


@dataclass
class _Selector:
    """Equality selection on a SPLASHE dimension: the selected codes."""

    plan: sc.SplasheBasicPlan | sc.SplasheEnhancedPlan
    codes: list[int]


def _max_category(a: str, b: str) -> str:
    order = {"S": 0, "CPre": 1, "CPost": 2, "2R": 3}
    return a if order[a] >= order[b] else b


def _key_output(outputs: list[OutputItem], dim: str) -> None:
    # An unselected key is decrypted too, to order rows by, unless an output is named like it.
    if all(item.name != dim for item in outputs):
        outputs.append(OutputItem(name=dim, kind="group_key"))


class QueryTranslator:
    """Translator bound to one table's client-side state."""

    def __init__(
        self,
        state: ClientTableState,
        factory: CryptoFactory,
        paillier_n_squared: int | None = None,
        join_context: tuple[ClientTableState, CryptoFactory] | None = None,
    ):
        self._state = state
        self._factory = factory
        self._n2 = paillier_n_squared
        self._join_state = join_context[0] if join_context else None
        self._join_factory = join_context[1] if join_context else None
        self._alias_counter = 0

    # -- public API ---------------------------------------------------------

    def translate(
        self,
        query: Query,
        join: srv.ServerJoin | None = None,
    ) -> TranslatedQuery:
        OPS.bump("translate")
        self._alias_counter = 0
        if query.table != self._state.schema.name:
            raise TranslationError(
                f"query targets table {query.table!r} but this translator is "
                f"bound to {self._state.schema.name!r}"
            )
        if not query.is_aggregation():
            raise TranslationError(
                "projection queries are not server-computable over encrypted "
                "data; only aggregation queries are supported"
            )
        if query.join is not None and join is None:
            raise TranslationError(
                "join queries need a ServerJoin; use SeabedSession.query, "
                "which resolves cross-table join keys"
            )
        base_filter, selectors = self.split_predicate(query.where)
        if query.group_by:
            return self._translate_grouped(query, base_filter, selectors, join)
        return self._translate_flat(query, base_filter, selectors, join)

    # -- helpers ----------------------------------------------------------------

    def _fresh_alias(self) -> str:
        alias = f"a{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def _plan(self, column: str) -> sc.ColumnPlan:
        plan = self._state.enc_schema.plans.get(column)
        if plan is None and self._join_state is not None:
            plan = self._join_state.enc_schema.plans.get(column)
        if plan is None:
            return self._state.enc_schema.plan(column)  # raises with context
        return plan

    def _spec(self, column: str) -> sc.ColumnSpec:
        if any(c.name == column for c in self._state.schema.columns):
            return self._state.schema.column(column)
        if self._join_state is not None:
            return self._join_state.schema.column(column)
        return self._state.schema.column(column)

    def _factory_of(self, column: str) -> CryptoFactory:
        if column in self._state.enc_schema.plans:
            return self._factory
        if self._join_state is not None and column in self._join_state.enc_schema.plans:
            assert self._join_factory is not None
            return self._join_factory
        return self._factory

    def _dict_of(self, column: str):
        enc = self._state.dictionaries.get(column)
        if enc is None and self._join_state is not None:
            enc = self._join_state.dictionaries.get(column)
        return enc

    @property
    def _mode(self) -> str:
        return self._state.enc_schema.mode

    # -- predicate handling ------------------------------------------------------

    def split_predicate(
        self, pred: Predicate | None
    ) -> tuple[srv.FilterExpr | None, list[_Selector]]:
        """Separate SPLASHE equality selections (handled by column
        retargeting) from server-filterable predicates.

        Public API: the proxy's scan path uses it to reject projections
        over SPLASHE dimensions and to obtain the server-side filter.
        Returns ``(filter expression or None, merged SPLASHE selectors)``.
        """
        if pred is None:
            return None, []
        conjuncts = list(pred.children) if isinstance(pred, And) else [pred]
        filters: list[srv.FilterExpr] = []
        selectors: list[_Selector] = []
        for node in conjuncts:
            splayed = self._try_splashe_selector(node)
            if splayed is not None:
                selectors.append(splayed)
                continue
            filters.append(self._translate_filter(node))
        merged = self._merge_selectors(selectors)
        if not filters:
            return None, merged
        if len(filters) == 1:
            return filters[0], merged
        return srv.FilterAnd(tuple(filters)), merged

    @staticmethod
    def _merge_selectors(selectors: list[_Selector]) -> list[_Selector]:
        by_dim: dict[str, _Selector] = {}
        for sel in selectors:
            existing = by_dim.get(sel.plan.column)
            if existing is None:
                by_dim[sel.plan.column] = sel
            else:
                existing.codes = sorted(set(existing.codes) & set(sel.codes))
        return list(by_dim.values())

    def _try_splashe_selector(self, node: Predicate) -> _Selector | None:
        if isinstance(node, Comparison) and node.op in ("=", "!="):
            plan = self._maybe_splashe_plan(node.column)
            if plan is None:
                return None
            self._reject_splashe_param(node.column, (node.value,))
            code = plan.code_of(node.value)
            if node.op == "=":
                codes = [code] if code is not None else []
            else:
                codes = [c for c in range(plan.cardinality) if c != code]
            return _Selector(plan=plan, codes=codes)
        if isinstance(node, InList):
            plan = self._maybe_splashe_plan(node.column)
            if plan is None:
                return None
            self._reject_splashe_param(node.column, node.values)
            codes = sorted(
                {c for v in node.values if (c := plan.code_of(v)) is not None}
            )
            return _Selector(plan=plan, codes=codes)
        return None

    @staticmethod
    def _reject_splashe_param(column: str, values: tuple[Any, ...]) -> None:
        """SPLASHE selections retarget whole columns -- the value decides
        the *structure* of the translated requests, so a late-bound
        parameter cannot work there."""
        if any(isinstance(v, Param) for v in values):
            raise TranslationError(
                f"column {column!r} is SPLASHE-planned; its predicate value "
                "selects which splayed columns are aggregated, so it cannot "
                "be a parameter -- inline the literal instead"
            )

    def _maybe_splashe_plan(
        self, column: str
    ) -> sc.SplasheBasicPlan | sc.SplasheEnhancedPlan | None:
        plan = self._state.enc_schema.plans.get(column)
        if plan is not None and plan.kind in ("splashe_basic", "splashe_enhanced"):
            return plan  # type: ignore[return-value]
        return None

    def _mentions_splashe(self, node: Predicate) -> bool:
        return any(
            self._maybe_splashe_plan(c) is not None
            for c in predicate_columns(node)
        )

    def _translate_filter(self, node: Predicate) -> srv.FilterExpr:
        if isinstance(node, Comparison):
            return self._translate_comparison(node)
        if isinstance(node, InList):
            return self._translate_in(node)
        if isinstance(node, Between):
            return srv.FilterAnd((
                self._translate_comparison(Comparison(node.column, ">=", node.low)),
                self._translate_comparison(Comparison(node.column, "<=", node.high)),
            ))
        if isinstance(node, Not):
            return srv.FilterNot(self._translate_filter(node.child))
        if isinstance(node, And):
            return srv.FilterAnd(tuple(self._translate_filter(c) for c in node.children))
        if isinstance(node, Or):
            if self._mentions_splashe(node):
                raise TranslationError(
                    "SPLASHE dimensions may only appear as top-level AND "
                    "conjuncts (the paper's rewrite rule)"
                )
            return srv.FilterOr(tuple(self._translate_filter(c) for c in node.children))
        raise TranslationError(f"unsupported predicate node {type(node).__name__}")

    def _translate_comparison(self, node: Comparison) -> srv.FilterExpr | ParamFilter:
        plan = self._plan(node.column)
        spec = self._spec(node.column)
        factory = self._factory_of(node.column)
        if isinstance(node.value, Param):
            return self._param_comparison(node, plan)
        if plan.kind == "plain":
            value: Any = node.value
            if spec.dtype == "str":
                value = self._dictionary_code(node.column, node.value)
            return srv.PlainCmp(plan.column, node.op, value)
        if plan.kind in ("splashe_basic", "splashe_enhanced"):
            raise TranslationError(
                f"predicate {node.op!r} on SPLASHE dimension {node.column!r} "
                "is only supported as a top-level equality"
            )
        if plan.kind == "det":
            if node.op not in ("=", "!="):
                raise TranslationError(
                    f"DET column {node.column!r} supports only equality, "
                    f"not {node.op!r}"
                )
            code = self._det_code(node.column, node.value)
            det = factory.det(plan.cipher_column, plan.join_group)
            return srv.DetEq(plan.cipher_column, det.token(code),
                             negate=node.op == "!=")
        if plan.kind == "ore":
            ore = factory.ore(plan.cipher_column, nbits=plan.nbits)
            return srv.OreCmp(plan.cipher_column, node.op,
                              ore.token(int(node.value)), plan.nbits)
        if plan.kind in ("ashe", "paillier"):
            if plan.ore_column is not None:
                ore = factory.ore(plan.ore_column, nbits=spec.nbits)
                return srv.OreCmp(plan.ore_column, node.op,
                                  ore.token(int(node.value)), spec.nbits)
            if plan.det_column is not None and node.op in ("=", "!="):
                det = factory.det(plan.det_column)
                return srv.DetEq(plan.det_column, det.token(int(node.value)),
                                 negate=node.op == "!=")
            raise TranslationError(
                f"measure {node.column!r} was not planned for filtering; "
                "include such a predicate in the sample queries"
            )
        raise TranslationError(f"cannot filter on plan kind {plan.kind!r}")

    def _param_comparison(
        self, node: Comparison, plan: sc.ColumnPlan
    ) -> ParamFilter:
        """Template a comparison whose value binds later.

        All structural decisions -- which physical column, which scheme,
        whether the op is supported -- are validated here, once; the
        returned slot's ``build`` only encrypts one token per execution.
        """
        self._validate_filterable(node.column, node.op, plan)
        column, op = node.column, node.op

        def build(value: Any) -> srv.FilterExpr:
            return self._translate_comparison(Comparison(column, op, value))

        assert isinstance(node.value, Param)
        return ParamFilter(params=(node.value.name,), build=build)

    def _validate_filterable(
        self, column: str, op: str, plan: sc.ColumnPlan
    ) -> None:
        """Raise the same errors a concrete translation would, so a bad
        prepared query fails at prepare time rather than first execute."""
        if plan.kind in ("splashe_basic", "splashe_enhanced"):
            raise TranslationError(
                f"predicate {op!r} on SPLASHE dimension {column!r} "
                "is only supported as a top-level equality"
            )
        if plan.kind == "det" and op not in ("=", "!="):
            raise TranslationError(
                f"DET column {column!r} supports only equality, not {op!r}"
            )
        if plan.kind in ("ashe", "paillier"):
            if plan.ore_column is not None:
                return
            if plan.det_column is not None and op in ("=", "!="):
                return
            raise TranslationError(
                f"measure {column!r} was not planned for filtering; "
                "include such a predicate in the sample queries"
            )
        if plan.kind not in ("plain", "det", "ore"):
            raise TranslationError(f"cannot filter on plan kind {plan.kind!r}")

    def _translate_in(self, node: InList) -> srv.FilterExpr | ParamFilter:
        plan = self._plan(node.column)
        names = tuple(
            v.name for v in node.values if isinstance(v, Param)
        )
        if names:
            # Validate once (an IN is a disjunction of equalities), then
            # defer token encryption to bind time.
            self._validate_filterable(node.column, "=", plan)
            column, template = node.column, node.values

            def build(*bound: Any) -> srv.FilterExpr:
                supplied = iter(bound)
                values = tuple(
                    next(supplied) if isinstance(v, Param) else v
                    for v in template
                )
                return self._translate_in(InList(column, values))

            return ParamFilter(params=names, build=build)
        if plan.kind == "det":
            det = self._factory_of(node.column).det(plan.cipher_column, plan.join_group)
            tokens = tuple(
                det.token(self._det_code(node.column, v)) for v in node.values
            )
            return srv.DetIn(plan.cipher_column, tokens)
        return srv.FilterOr(tuple(
            self._translate_comparison(Comparison(node.column, "=", v))
            for v in node.values
        ))

    def _dictionary_code(self, column: str, value: Any) -> int:
        encoder = self._dict_of(column)
        if encoder is None:
            raise TranslationError(f"no data uploaded yet for column {column!r}")
        return encoder.lookup(value)

    def _det_code(self, column: str, value: Any) -> int:
        spec = self._spec(column)
        if spec.dtype == "str":
            return self._dictionary_code(column, value)
        return int(value)

    # -- flat shape ---------------------------------------------------------------

    def _translate_flat(
        self,
        query: Query,
        base_filter: srv.FilterExpr | None,
        selectors: list[_Selector],
        join: srv.ServerJoin | None,
    ) -> TranslatedQuery:
        builder = _RequestBuilder(self, query.table, base_filter, join)
        outputs: list[OutputItem] = []
        category = "S"
        for item in query.select:
            if isinstance(item, ColumnRef):
                raise TranslationError(f"bare column {item.name!r} requires GROUP BY")
            out, cat = self._translate_aggregate(item, selectors, builder, join)
            outputs.append(out)
            category = _max_category(category, cat)
        return TranslatedQuery(
            query=query, requests=builder.finish(), outputs=outputs,
            shape="flat", category=category,
        )

    def _translate_aggregate(
        self,
        item: Aggregate,
        selectors: list[_Selector],
        builder: "_RequestBuilder",
        join: srv.ServerJoin | None = None,
    ) -> tuple[OutputItem, str]:
        name = item.output_name()
        func = item.func
        if func == "count" and item.column is None:
            out = OutputItem(name=name, kind="count")
            self._wire_count(out, selectors, builder)
            return out, "S"
        measure = item.column
        assert measure is not None
        if func in ("sum", "avg"):
            out = OutputItem(name=name, kind=func, measure=measure)
            self._wire_sum(out, "sum", measure, selectors, builder, join)
            if func == "avg":
                self._wire_count(out, selectors, builder)
            return out, "S"
        if func == "count":
            out = OutputItem(name=name, kind="count", measure=measure)
            self._wire_count(out, selectors, builder)
            return out, "S"
        if func in ("var", "stddev"):
            if selectors:
                raise TranslationError(
                    "variance under a SPLASHE selection is unsupported"
                )
            out = OutputItem(name=name, kind=func, measure=measure)
            self._wire_sum(out, "sum", measure, selectors, builder, join)
            self._wire_sum(out, "sumsq", measure, selectors, builder, join)
            self._wire_count(out, selectors, builder)
            return out, "CPre"
        if func in ("min", "max", "median"):
            if selectors:
                raise TranslationError(
                    f"{func} combined with SPLASHE selections is unsupported"
                )
            out = OutputItem(name=name, kind=func, measure=measure)
            self._wire_extreme(out, func, measure, builder)
            return out, "S"
        raise TranslationError(f"unsupported aggregate {func!r}")

    # -- ingredient wiring ---------------------------------------------------------

    def _wire_sum(
        self,
        out: OutputItem,
        role: str,
        measure: str,
        selectors: list[_Selector],
        builder: "_RequestBuilder",
        join: srv.ServerJoin | None = None,
    ) -> None:
        refs = out.sum_refs if role == "sum" else out.sumsq_refs
        selector = self._selector_for_measure(measure, selectors)
        if selector is not None:
            if role == "sumsq":
                raise TranslationError(
                    "variance under a SPLASHE selection is unsupported"
                )
            refs.extend(self._splashe_sum_refs(measure, selector, builder))
            return
        plan = self._plan(measure)
        squared = role == "sumsq"
        if plan.kind == "plain":
            refs.append(builder.add_plain(plan.column, "sumsq" if squared else "sum"))
            return
        if plan.kind in ("ashe", "paillier"):
            column = plan.squares_column if squared else plan.cipher_column
            if column is None:
                raise TranslationError(
                    f"variance on {measure!r} needs a squares column; include "
                    "a var/stddev query in the sample set"
                )
            joined = join is not None and column in (join.payload_columns or ())
            if plan.kind == "ashe":
                refs.append(builder.add_ashe(column, srv.BUILD_IDS if joined else srv.ROW_IDS))
            else:
                refs.append(builder.add_paillier(column))
            return
        raise TranslationError(
            f"column {measure!r} is a dimension ({plan.kind}); it cannot be "
            "aggregated"
        )

    def _selector_for_measure(
        self, measure: str, selectors: list[_Selector]
    ) -> _Selector | None:
        for sel in selectors:
            if measure in sel.plan.measure_columns:
                return sel
            raise TranslationError(
                f"measure {measure!r} was not splayed for dimension "
                f"{sel.plan.column!r}; regenerate the plan with a sample "
                "query combining them"
            )
        return None

    def _splashe_sum_refs(
        self, measure: str, sel: _Selector, builder: "_RequestBuilder"
    ) -> list[Ref]:
        plan = sel.plan
        refs: list[Ref] = []
        if plan.kind == "splashe_basic":
            for code in sel.codes:
                refs.append(builder.add_ashe(plan.measure_columns[measure][code]))
            return refs
        det = self._factory.det(plan.det_column)
        for code in sel.codes:
            if plan.is_frequent(code):
                refs.append(builder.add_ashe(plan.measure_columns[measure][code]))
            else:
                refs.append(builder.add_ashe_filtered(
                    plan.others_measure[measure],
                    srv.DetEq(plan.det_column, det.token(code)),
                ))
        return refs

    def _wire_count(
        self, out: OutputItem, selectors: list[_Selector], builder: "_RequestBuilder"
    ) -> None:
        if selectors:
            # Counting under a SPLASHE selection: sum the indicator columns.
            sel = selectors[0]
            plan = sel.plan
            out.count_mode = "value"
            if plan.kind == "splashe_basic":
                for code in sel.codes:
                    out.count_refs.append(
                        builder.add_ashe(plan.indicator_columns[code])
                    )
                return
            det = self._factory.det(plan.det_column)
            for code in sel.codes:
                if plan.is_frequent(code):
                    out.count_refs.append(
                        builder.add_ashe(plan.indicator_columns[code])
                    )
                else:
                    out.count_refs.append(builder.add_ashe_filtered(
                        plan.others_indicator,
                        srv.DetEq(plan.det_column, det.token(code)),
                    ))
            return
        if self._mode == "seabed":
            existing = builder.first_ashe_ref()
            if existing is not None:
                out.count_mode = "ids"
                out.count_refs.append(existing)
                return
        out.count_mode = "value"
        out.count_refs.append(builder.add_plain(None, "count"))

    def _wire_extreme(
        self, out: OutputItem, func: str, measure: str, builder: "_RequestBuilder"
    ) -> None:
        plan = self._plan(measure)
        if plan.kind == "plain":
            out.extreme_mode = "plain"
            out.extreme_ref = builder.add_plain(plan.column, func)
            return
        if plan.kind not in ("ashe", "paillier") or plan.ore_column is None:
            raise TranslationError(
                f"{func} on {measure!r} needs an ORE column; include a "
                f"{func} query in the sample set"
            )
        out.extreme_mode = plan.kind
        if func == "median":
            out.extreme_ref = builder.add_median(plan.ore_column, plan.cipher_column)
        else:
            out.extreme_ref = builder.add_extreme(
                func, plan.ore_column, plan.cipher_column
            )

    # -- grouped shape ---------------------------------------------------------

    def _translate_grouped(
        self,
        query: Query,
        base_filter: srv.FilterExpr | None,
        selectors: list[_Selector],
        join: srv.ServerJoin | None,
    ) -> TranslatedQuery:
        if len(query.group_by) != 1:
            raise TranslationError(
                "encrypted execution supports single-column GROUP BY; "
                "compose a combined key column client-side for more"
            )
        dim = query.group_by[0]
        plan = self._plan(dim)
        if plan.kind in ("splashe_basic", "splashe_enhanced"):
            if join is not None:
                raise TranslationError("joins with SPLASHE group-by unsupported")
            return self._translate_splashe_group(query, base_filter, selectors, plan)
        if plan.kind == "plain":
            group_column, decode = plan.column, "plain"
        elif plan.kind == "det":
            group_column, decode = plan.cipher_column, "det"
        else:
            raise TranslationError(
                f"cannot GROUP BY a {plan.kind}-encrypted column"
            )
        builder = _RequestBuilder(
            self, query.table, base_filter, join, group_by=group_column
        )
        outputs: list[OutputItem] = []
        category = "S"
        for item in query.select:
            if isinstance(item, ColumnRef):
                if item.name != dim:
                    raise TranslationError(
                        f"column {item.name!r} must appear in GROUP BY"
                    )
                outputs.append(OutputItem(name=item.name, kind="group_key"))
                continue
            if item.func in ("min", "max", "median"):
                if self._mode != "plain" and self._plan(item.column).kind != "plain":
                    raise TranslationError(
                        f"{item.func} inside GROUP BY is unsupported over "
                        "encrypted data"
                    )
            out, cat = self._translate_aggregate(item, selectors, builder, join)
            outputs.append(out)
            category = _max_category(category, cat)
        _key_output(outputs, dim)
        return TranslatedQuery(
            query=query, requests=builder.finish(), outputs=outputs,
            shape="grouped", group_dim=dim, group_request=0,
            group_decode=decode, category=category,
        )

    def _translate_splashe_group(
        self,
        query: Query,
        base_filter: srv.FilterExpr | None,
        selectors: list[_Selector],
        plan: sc.SplasheBasicPlan | sc.SplasheEnhancedPlan,
    ) -> TranslatedQuery:
        """GROUP BY a splayed dimension (Section 3.3/3.4): the splayed
        per-value sums *are* the groups -- no server-side grouping for
        basic mode; enhanced mode adds one DET-grouped request over the
        catch-all columns for the infrequent values."""
        if selectors:
            raise TranslationError(
                "filtering and grouping on SPLASHE dimensions in one query "
                "is unsupported"
            )
        dim = plan.column
        builder = _RequestBuilder(self, query.table, base_filter, None)
        grouped_builder = None
        if plan.kind == "splashe_enhanced":
            # The flat builder emits exactly one request here (no filtered
            # side-requests are possible without selectors), so the grouped
            # request sits at index 1.
            grouped_builder = _RequestBuilder(
                self, query.table, base_filter, None, group_by=plan.det_column,
                offset=1,
            )
        codes = (
            list(range(plan.cardinality))
            if plan.kind == "splashe_basic"
            else sorted(plan.frequent_codes)
        )
        outputs: list[OutputItem] = []
        category = "S"
        for item in query.select:
            if isinstance(item, ColumnRef):
                if item.name != dim:
                    raise TranslationError(
                        f"column {item.name!r} must appear in GROUP BY"
                    )
                outputs.append(OutputItem(name=item.name, kind="group_key"))
                continue
            if item.func not in ("sum", "avg", "count"):
                raise TranslationError(
                    f"{item.func} is unsupported when grouping by a SPLASHE "
                    "dimension"
                )
            out = OutputItem(
                name=item.output_name(), kind=item.func, measure=item.column
            )
            # A count role is always wired: the indicator sums are what tell
            # the client which groups are non-empty (splayed measure columns
            # cover every row, so their ID lists cannot reveal emptiness).
            roles = {"sum": item.func in ("sum", "avg"), "count": True}
            for role, wanted in roles.items():
                if not wanted:
                    continue
                per_code: dict[int, Ref] = {}
                for code in codes:
                    per_code[code] = self._splashe_cell(plan, item, role, code, builder)
                if grouped_builder is not None:
                    per_code[-1] = self._splashe_cell(
                        plan, item, role, None, grouped_builder
                    )
                out.splashe[role] = per_code
            outputs.append(out)
        _key_output(outputs, dim)
        requests = builder.finish()
        group_request = None
        if grouped_builder is not None:
            group_request = len(requests)
            assert group_request == 1, "flat SPLASHE builder must emit one request"
            requests = requests + grouped_builder.finish()
        return TranslatedQuery(
            query=query, requests=requests, outputs=outputs,
            shape="splashe_group", group_dim=dim, group_request=group_request,
            group_decode="splashe_det", splashe_group_codes=codes,
            category=category,
        )

    def _splashe_cell(
        self,
        plan: sc.SplasheBasicPlan | sc.SplasheEnhancedPlan,
        item: Aggregate,
        role: str,
        code: int | None,
        builder: "_RequestBuilder",
    ) -> Ref:
        if role == "count":
            if code is None:
                assert isinstance(plan, sc.SplasheEnhancedPlan)
                return builder.add_ashe(plan.others_indicator)
            return builder.add_ashe(plan.indicator_columns[code])
        measure = item.column
        assert measure is not None
        if measure not in plan.measure_columns:
            raise TranslationError(
                f"measure {measure!r} was not splayed for {plan.column!r}"
            )
        if code is None:
            assert isinstance(plan, sc.SplasheEnhancedPlan)
            return builder.add_ashe(plan.others_measure[measure])
        return builder.add_ashe(plan.measure_columns[measure][code])


class _RequestBuilder:
    """Accumulates aggregation ops for one main request plus side requests
    for ops that need their own filter (enhanced-SPLASHE infrequent
    values).  Refs are (request index, alias); index 0 is the main request
    and side requests follow in creation order."""

    def __init__(
        self,
        translator: QueryTranslator,
        table: str,
        base_filter: srv.FilterExpr | None,
        join: srv.ServerJoin | None,
        group_by: str | None = None,
        offset: int = 0,
    ):
        self._tr = translator
        self._table = table
        self._filter = base_filter
        self._join = join
        self._group_by = group_by
        self._main_aggs: list[srv.AggOp] = []
        self._extra: list[tuple[srv.FilterExpr, srv.AggOp]] = []
        self._ashe_cache: dict[tuple[str, str], Ref] = {}
        self._offset = offset

    def add_ashe(self, column: str, id_source: str = srv.ROW_IDS) -> Ref:
        cached = self._ashe_cache.get((column, id_source))
        if cached is not None:
            return cached
        alias = self._tr._fresh_alias()
        self._main_aggs.append(
            srv.AsheSum(column=column, alias=alias, id_source=id_source)
        )
        ref = (self._offset, alias)
        self._ashe_cache[(column, id_source)] = ref
        return ref

    def add_ashe_filtered(self, column: str, extra: srv.FilterExpr) -> Ref:
        alias = self._tr._fresh_alias()
        self._extra.append((extra, srv.AsheSum(column=column, alias=alias)))
        return (self._offset + len(self._extra), alias)

    def add_plain(self, column: str | None, func: str) -> Ref:
        alias = self._tr._fresh_alias()
        self._main_aggs.append(srv.PlainAgg(column=column, func=func, alias=alias))
        return (self._offset, alias)

    def add_paillier(self, column: str) -> Ref:
        if self._tr._n2 is None:
            raise TranslationError("paillier mode requires the public modulus")
        alias = self._tr._fresh_alias()
        self._main_aggs.append(
            srv.PaillierSum(column=column, alias=alias, n_squared=self._tr._n2)
        )
        return (self._offset, alias)

    def add_extreme(self, kind: str, ore_column: str, payload: str) -> Ref:
        alias = self._tr._fresh_alias()
        self._main_aggs.append(srv.OreExtreme(
            kind=kind, ore_column=ore_column, payload_column=payload, alias=alias
        ))
        return (self._offset, alias)

    def add_median(self, ore_column: str, payload: str) -> Ref:
        alias = self._tr._fresh_alias()
        self._main_aggs.append(srv.OreMedian(
            ore_column=ore_column, payload_column=payload, alias=alias
        ))
        return (self._offset, alias)

    def first_ashe_ref(self) -> Ref | None:
        for agg in self._main_aggs:
            if isinstance(agg, srv.AsheSum):
                return (self._offset, agg.alias)
        return None

    def finish(self) -> list[srv.ServerQuery]:
        requests = [srv.ServerQuery(
            table=self._table,
            aggs=tuple(self._main_aggs),
            filter=self._filter,
            join=self._join,
            group_by=self._group_by,
        )]
        for extra_filter, agg in self._extra:
            combined: srv.FilterExpr = (
                extra_filter if self._filter is None
                else srv.FilterAnd((self._filter, extra_filter))
            )
            requests.append(srv.ServerQuery(
                table=self._table, aggs=(agg,), filter=combined, join=self._join,
                group_by=self._group_by,
            ))
        return requests
