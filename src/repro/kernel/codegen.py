"""Rete-to-Python codegen: one generated module per ruleset.

:func:`generate_source` turns a production list into the source of a
single ``build(rt)`` function.  Executing the compiled module and
calling ``build`` with a :class:`~repro.kernel.matcher.KernelRuntime`
materialises the whole match network as *closures over local dicts*:

* one fused alpha predicate per distinct (class, alpha tests) store;
* per production, a linear join chain -- for condition element ``i`` a
  left index ``li`` (join key -> {left key -> token}), a right index
  ``ri`` (join key -> {timetag -> WME}), and for negated CEs a blocker
  count ``nc`` (left key -> int);
* a terminal that edits the conflict set directly.

Join keys are tuples (or bare ints) of encoded column values read
straight out of the :class:`~repro.kernel.layout.AlphaStore` columns --
one dict probe per component, no string hashing, no method dispatch.
Tokens are plain tuples of WMEs (``None`` at negated positions) and
left keys are the matching timetag tuples (``0`` at negated positions),
the same identity the interpreted Rete's ``Token.key`` uses, so the
terminal's conflict-set keys are bit-identical to the oracle's.

The generated source contains *no* production names, no symbol-table
ids, and no RHS data: constants are embedded by ``repr``, productions
are looked up positionally from the runtime at build time, and values
are encoded only when WMEs arrive.  Compiling therefore never touches
the intern table, and two structurally identical rulesets -- even under
different production names -- share one code object (see
``kernel/cache.py``).

Correctness notes (mirroring the node-walking Rete):

* Exactly-once pairing when one WME feeds several CEs of a production:
  each CE's right entry inserts into its own ``ri`` bucket and probes
  the opposite ``li`` within the same call, so whichever of the two
  subscriber calls runs second forms the pair -- no Doorenbos
  descendants-first ordering is needed.
* Deletion is rematch-style: the delete path probes the same indexes
  and re-evaluates residual tests, exactly like ``JoinNode``.
* Negated CEs keep a per-left-token blocker count, like
  ``NegativeNode``: 0 -> 1 retracts the downstream token, 1 -> 0
  re-propagates it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..ops5.condition import (
    CEAnalysis,
    ConstantTest,
    DisjunctiveTest,
    JoinTest,
    Predicate,
    PredicateTest,
)
from ..ops5.errors import Ops5Error
from ..ops5.production import Production

__all__ = [
    "StorePlan",
    "alpha_items",
    "generate_source",
    "plan_alpha_index",
    "plan_stores",
]

_ORDERING = {
    Predicate.LT: "_lt",
    Predicate.LE: "_le",
    Predicate.GT: "_gt",
    Predicate.GE: "_ge",
}


# ---------------------------------------------------------------------------
# Alpha planning: canonical test items and store sharing
# ---------------------------------------------------------------------------


def alpha_items(analysis: CEAnalysis) -> tuple:
    """Canonical, typed, hashable form of one CE's single-WME tests.

    Typed on purpose: ``repr`` alone would conflate ``5`` with ``"5"``
    (both render as ``5`` in OPS5 constant tests), and the generated
    predicate for the two differs.
    """
    items: list[tuple] = []
    for attr, test in analysis.alpha_tests:
        if isinstance(test, ConstantTest):
            items.append(("const", attr, type(test.value).__name__, test.value))
        elif isinstance(test, DisjunctiveTest):
            items.append(
                ("disj", attr, tuple((type(v).__name__, v) for v in test.values))
            )
        elif isinstance(test, PredicateTest):
            operand = test.operand
            assert isinstance(operand, ConstantTest)  # variable operands are joins
            items.append(
                (
                    "pred",
                    attr,
                    test.predicate.value,
                    type(operand.value).__name__,
                    operand.value,
                )
            )
        else:  # pragma: no cover - analyze_lhs is exhaustive
            raise Ops5Error(f"unsupported alpha test {test!r}")
    for attr_a, attr_b in analysis.intra_tests:
        items.append(("intra", attr_a, attr_b))
    # repr-keyed sort: deterministic over mixed value types.
    return tuple(sorted(items, key=repr))


class StorePlan:
    """One shared alpha store: class, fused tests, columns, subscribers."""

    __slots__ = ("index", "cls", "items", "columns", "production_names")

    def __init__(self, index: int, cls: str, items: tuple) -> None:
        self.index = index
        self.cls = cls
        self.items = items
        #: Attributes any subscriber's join keys read, in first-need order.
        self.columns: list[str] = []
        self.production_names: list[str] = []

    def need_column(self, attr: str) -> int:
        """Register *attr* as a column; return its column index."""
        try:
            return self.columns.index(attr)
        except ValueError:
            self.columns.append(attr)
            return len(self.columns) - 1


def _split_tests(analysis: CEAnalysis) -> tuple[list[JoinTest], list[JoinTest]]:
    """(hash-indexable equality tests, residual tests) for one CE.

    Equality against an *earlier* CE's binding is indexable; everything
    else (ordering/NE/SAME_TYPE predicates, and any test whose comparand
    lives on the candidate WME itself) is evaluated per probed pair --
    the same split ``JoinNode`` makes.
    """
    eq: list[JoinTest] = []
    residual: list[JoinTest] = []
    for jt in analysis.join_tests:
        if jt.predicate is Predicate.EQ and jt.other_ce != analysis.index:
            eq.append(jt)
        else:
            residual.append(jt)
    return eq, residual


def plan_stores(
    productions: Sequence[Production],
) -> tuple[list[StorePlan], dict[tuple[int, int], StorePlan]]:
    """Shared-store layout: plans plus a (production, ce) -> plan map."""
    plans: list[StorePlan] = []
    by_sig: dict[tuple, StorePlan] = {}
    use: dict[tuple[int, int], StorePlan] = {}
    for p_idx, production in enumerate(productions):
        for analysis in production.analysis:
            sig = (analysis.ce.cls, alpha_items(analysis))
            plan = by_sig.get(sig)
            if plan is None:
                plan = StorePlan(len(plans), analysis.ce.cls, sig[1])
                plans.append(plan)
                by_sig[sig] = plan
            if production.name not in plan.production_names:
                plan.production_names.append(production.name)
            use[(p_idx, analysis.index)] = plan
    # Column needs: every equality join key component, both sides.
    for p_idx, production in enumerate(productions):
        for analysis in production.analysis:
            eq, _residual = _split_tests(analysis)
            own = use[(p_idx, analysis.index)]
            for jt in eq:
                own.need_column(jt.own_attribute)
                use[(p_idx, jt.other_ce)].need_column(jt.other_attribute)
    return plans, use


def plan_alpha_index(
    plans: Sequence[StorePlan],
) -> dict[str, tuple[dict[tuple, dict], list[int]]]:
    """Per class: ``({attrs: {constants: [store indexes]}}, linear tail)``.

    A store joins the group named by the attributes it tests with a
    constant-equality item, under the constant (one attribute) or tuple
    of constants it demands; an insert then probes one dict per *group*
    instead of one predicate per *store*.  Keys are raw values, so
    ``1``/``1.0`` share an entry as ``_eqn`` equates them and ``"5"``
    never meets ``5``.  The lookup only narrows candidates -- the fused
    predicate still runs on each -- so all it owes is no false
    negatives: a store with no such item, or with one attribute tested
    twice, stays in the class's linear tail.
    """
    index: dict[str, tuple[dict[tuple, dict], list[int]]] = {}
    for plan in plans:
        groups, tail = index.setdefault(plan.cls, ({}, []))
        consts = sorted(
            ((item[1], item[3]) for item in plan.items if item[0] == "const"),
            key=lambda const: const[0],
        )
        attrs = tuple(attr for attr, _value in consts)
        if not attrs or len(set(attrs)) < len(attrs):
            tail.append(plan.index)
            continue
        key = consts[0][1] if len(attrs) == 1 else tuple(v for _a, v in consts)
        groups.setdefault(attrs, {}).setdefault(key, []).append(plan.index)
    return index


# ---------------------------------------------------------------------------
# Expression fragments
# ---------------------------------------------------------------------------


def _const_eq(attr: str, type_name: str, value) -> str:
    if type_name == "str":
        # A symbol constant: plain == is complete (a number never equals
        # a str, matching values_equal's symbol/number separation).
        return f"g({attr!r}) == {value!r}"
    return f"_eqn(g({attr!r}), {value!r})"


def _alpha_part(item: tuple) -> str:
    kind = item[0]
    if kind == "const":
        _, attr, type_name, value = item
        return _const_eq(attr, type_name, value)
    if kind == "disj":
        _, attr, typed_values = item
        listing = ", ".join(repr(v) for _t, v in typed_values)
        return f"_anyeq(g({attr!r}), ({listing},))"
    if kind == "pred":
        _, attr, op, type_name, value = item
        numeric = type_name != "str"
        if op == "=":
            return _const_eq(attr, type_name, value)
        if op == "<>":
            if numeric:
                return f"not _eqn(g({attr!r}), {value!r})"
            return f"g({attr!r}) != {value!r}"
        if op == "<=>":
            return f"_num(g({attr!r}))" if numeric else f"not _num(g({attr!r}))"
        # Ordering predicate: a symbolic constant operand can never
        # match (Predicate.apply requires both sides numeric).
        if not numeric:
            return "False"
        helper = _ORDERING[Predicate(op)]
        return f"{helper}(g({attr!r}), {value!r})"
    _, attr_a, attr_b = item
    return f"_veq(g({attr_a!r}), g({attr_b!r}))"


def _alpha_expr(items: tuple) -> str:
    return " and ".join(_alpha_part(item) for item in items)


def _residual_expr(
    residual: Sequence[JoinTest], ce_index: int, own: Callable[[str], str]
) -> str:
    """The per-pair test chain; *own* renders a candidate-WME access."""
    parts: list[str] = []
    for jt in residual:
        a = own(jt.own_attribute)
        if jt.other_ce == ce_index:
            b = own(jt.other_attribute)
        else:
            b = f"tok[{jt.other_ce}].get({jt.other_attribute!r})"
        p = jt.predicate
        if p is Predicate.EQ:
            parts.append(f"_veq({a}, {b})")
        elif p is Predicate.NE:
            parts.append(f"not _veq({a}, {b})")
        elif p is Predicate.SAME_TYPE:
            parts.append(f"_same({a}, {b})")
        else:
            parts.append(f"{_ORDERING[p]}({a}, {b})")
    return " and ".join(parts)


def _col_var(plan: StorePlan, attr: str) -> str:
    return f"c{plan.index}_{plan.columns.index(attr)}"


def _key_expr(components: list[str]) -> str:
    """A hash key from encoded components: bare int, tuple, or the
    shared single bucket ``0`` when the join has no equality tests."""
    if not components:
        return "0"
    if len(components) == 1:
        return components[0]
    return "(" + ", ".join(components) + ")"


def _wme_key(eq: Sequence[JoinTest], own_plan: StorePlan) -> str:
    return _key_expr([f"{_col_var(own_plan, jt.own_attribute)}[wt]" for jt in eq])


def _token_key(
    eq: Sequence[JoinTest], use: dict, p_idx: int
) -> str:
    return _key_expr(
        [
            f"{_col_var(use[(p_idx, jt.other_ce)], jt.other_attribute)}"
            f"[lk[{jt.other_ce}]]"
            for jt in eq
        ]
    )


def _store_tuple(indexes: Sequence[int]) -> str:
    return _tuple_literal([f"S{index}" for index in indexes])


def _tuple_literal(parts: list[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _binding_specs(
    analyses: Sequence[CEAnalysis],
) -> tuple[tuple[str, int, str], ...]:
    """First positive-CE binding site per variable (builder semantics)."""
    seen: set[str] = set()
    specs: list[tuple[str, int, str]] = []
    for analysis in analyses:
        if analysis.ce.negated:
            continue
        for variable, attribute in analysis.binders.items():
            if variable not in seen:
                seen.add(variable)
                specs.append((variable, analysis.index, attribute))
    return tuple(specs)


def _emit_production(
    out: list[str], p_idx: int, production: Production, use: dict
) -> None:
    analyses = production.analysis
    depth = len(analyses)
    emit = out.append
    pre = f"p{p_idx}"

    emit(f"    pr{p_idx} = P[{p_idx}]")
    emit(f"    nm{p_idx} = pr{p_idx}.name")
    for i in range(1, depth):
        emit(f"    li{p_idx}_{i} = {{}}")
        emit(f"    ri{p_idx}_{i} = {{}}")
        if analyses[i].ce.negated:
            emit(f"    nc{p_idx}_{i} = {{}}")

    # Terminal (level == depth): edits the conflict set.
    positive = [i for i, a in enumerate(analyses) if not a.ce.negated]
    wmes = _tuple_literal([f"tok[{i}]" for i in positive])
    tags = _tuple_literal([f"lk[{i}]" for i in positive])
    bindings = ", ".join(
        f"{var!r}: tok[{ce}].get({attr!r})"
        for var, ce, attr in _binding_specs(analyses)
    )
    emit(f"    def {pre}_l{depth}_a(tok, lk):")
    emit("        ctr[0] += 1; ctr[2] += 1")
    emit(f"        cs_insert(Inst(pr{p_idx}, {wmes}, {{{bindings}}}))")
    emit(f"    def {pre}_l{depth}_d(tok, lk):")
    emit("        ctr[0] += 1")
    emit(f"        cs_delete((nm{p_idx}, {tags}))")

    # Join levels, deepest first so each function sits below its callee.
    for i in range(depth - 1, 0, -1):
        analysis = analyses[i]
        eq, residual = _split_tests(analysis)
        li = f"li{p_idx}_{i}"
        ri = f"ri{p_idx}_{i}"
        nc = f"nc{p_idx}_{i}"
        tkey = _token_key(eq, use, p_idx)
        wkey = _wme_key(eq, use[(p_idx, i)])
        down_a = f"{pre}_l{i + 1}_a"
        down_d = f"{pre}_l{i + 1}_d"
        left_guard = _residual_expr(residual, i, lambda a: f"w.get({a!r})")
        right_guard = _residual_expr(residual, i, lambda a: f"wg({a!r})")

        if not analysis.ce.negated:
            # -- positive join: left activations -------------------------
            emit(f"    def {pre}_l{i}_a(tok, lk):")
            emit("        ctr[0] += 1; ctr[2] += 1")
            emit(f"        key = {tkey}")
            emit(f"        d = {li}.get(key)")
            emit("        if d is None:")
            emit(f"            d = {li}[key] = {{}}")
            emit("        d[lk] = tok")
            emit(f"        b = {ri}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            emit("            for wt, w in b.items():")
            if left_guard:
                emit(f"                if {left_guard}:")
                emit(f"                    {down_a}(tok + (w,), lk + (wt,))")
            else:
                emit(f"                {down_a}(tok + (w,), lk + (wt,))")
            emit(f"    def {pre}_l{i}_d(tok, lk):")
            emit("        ctr[0] += 1")
            emit(f"        key = {tkey}")
            emit(f"        d = {li}[key]")
            emit("        del d[lk]")
            emit("        if not d:")
            emit(f"            del {li}[key]")
            emit(f"        b = {ri}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            emit("            for wt, w in b.items():")
            if left_guard:
                emit(f"                if {left_guard}:")
                emit(f"                    {down_d}(tok + (w,), lk + (wt,))")
            else:
                emit(f"                {down_d}(tok + (w,), lk + (wt,))")
            # -- positive join: right activations ------------------------
            emit(f"    def {pre}_r{i}_a(w):")
            emit("        ctr[0] += 1")
            emit("        wt = w.timetag")
            emit(f"        key = {wkey}")
            emit(f"        d = {ri}.get(key)")
            emit("        if d is None:")
            emit(f"            d = {ri}[key] = {{}}")
            emit("        d[wt] = w")
            emit(f"        b = {li}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            if right_guard:
                emit("            wg = w.get")
            emit("            for lk, tok in b.items():")
            if right_guard:
                emit(f"                if {right_guard}:")
                emit(f"                    {down_a}(tok + (w,), lk + (wt,))")
            else:
                emit(f"                {down_a}(tok + (w,), lk + (wt,))")
            emit(f"    def {pre}_r{i}_d(w):")
            emit("        ctr[0] += 1")
            emit("        wt = w.timetag")
            emit(f"        key = {wkey}")
            emit(f"        d = {ri}[key]")
            emit("        del d[wt]")
            emit("        if not d:")
            emit(f"            del {ri}[key]")
            emit(f"        b = {li}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            if right_guard:
                emit("            wg = w.get")
            emit("            for lk, tok in b.items():")
            if right_guard:
                emit(f"                if {right_guard}:")
                emit(f"                    {down_d}(tok + (w,), lk + (wt,))")
            else:
                emit(f"                {down_d}(tok + (w,), lk + (wt,))")
        else:
            # -- negated join: left activations --------------------------
            emit(f"    def {pre}_l{i}_a(tok, lk):")
            emit("        ctr[0] += 1; ctr[2] += 1")
            emit(f"        key = {tkey}")
            emit(f"        d = {li}.get(key)")
            emit("        if d is None:")
            emit(f"            d = {li}[key] = {{}}")
            emit("        d[lk] = tok")
            emit(f"        b = {ri}.get(key)")
            if left_guard:
                emit("        n = 0")
                emit("        if b:")
                emit("            ctr[1] += len(b)")
                emit("            for w in b.values():")
                emit(f"                if {left_guard}:")
                emit("                    n += 1")
            else:
                emit("        n = len(b) if b else 0")
                emit("        ctr[1] += n")
            emit(f"        {nc}[lk] = n")
            emit("        if not n:")
            emit(f"            {down_a}(tok + (None,), lk + (0,))")
            emit(f"    def {pre}_l{i}_d(tok, lk):")
            emit("        ctr[0] += 1")
            emit(f"        key = {tkey}")
            emit(f"        d = {li}[key]")
            emit("        del d[lk]")
            emit("        if not d:")
            emit(f"            del {li}[key]")
            emit(f"        if not {nc}.pop(lk):")
            emit(f"            {down_d}(tok + (None,), lk + (0,))")
            # -- negated join: right activations -------------------------
            emit(f"    def {pre}_r{i}_a(w):")
            emit("        ctr[0] += 1")
            emit("        wt = w.timetag")
            emit(f"        key = {wkey}")
            emit(f"        d = {ri}.get(key)")
            emit("        if d is None:")
            emit(f"            d = {ri}[key] = {{}}")
            emit("        d[wt] = w")
            emit(f"        b = {li}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            if right_guard:
                emit("            wg = w.get")
            emit("            for lk, tok in b.items():")
            guard_pad = "                "
            if right_guard:
                emit(f"                if {right_guard}:")
                guard_pad = "                    "
            emit(f"{guard_pad}n = {nc}[lk]")
            emit(f"{guard_pad}{nc}[lk] = n + 1")
            emit(f"{guard_pad}if not n:")
            emit(f"{guard_pad}    {down_d}(tok + (None,), lk + (0,))")
            emit(f"    def {pre}_r{i}_d(w):")
            emit("        ctr[0] += 1")
            emit("        wt = w.timetag")
            emit(f"        key = {wkey}")
            emit(f"        d = {ri}[key]")
            emit("        del d[wt]")
            emit("        if not d:")
            emit(f"            del {ri}[key]")
            emit(f"        b = {li}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            if right_guard:
                emit("            wg = w.get")
            emit("            for lk, tok in b.items():")
            guard_pad = "                "
            if right_guard:
                emit(f"                if {right_guard}:")
                guard_pad = "                    "
            emit(f"{guard_pad}n = {nc}[lk] - 1")
            emit(f"{guard_pad}{nc}[lk] = n")
            emit(f"{guard_pad}if not n:")
            emit(f"{guard_pad}    {down_a}(tok + (None,), lk + (0,))")

    # Entry (CE 0, always positive): intra-CE predicate tests of the
    # first CE (e.g. ``^b > <x>`` against its own ``^a <x>``) gate
    # token creation, exactly like the dummy-top join's own-CE tests.
    _eq0, residual0 = _split_tests(analyses[0])
    guard0 = _residual_expr(residual0, 0, lambda a: f"wg({a!r})")
    down = f"{pre}_l1" if depth > 1 else f"{pre}_l{depth}"
    for suffix in ("a", "d"):
        emit(f"    def {pre}_r0_{suffix}(w):")
        emit("        ctr[0] += 1")
        if guard0:
            emit("        wg = w.get")
            emit(f"        if not ({guard0}):")
            emit("            return")
        emit(f"        {down}_{suffix}((w,), (w.timetag,))")


def generate_source(productions: Sequence[Production]) -> str:
    """The generated module's source: ``def build(rt): ...``."""
    plans, use = plan_stores(productions)
    out: list[str] = [
        "# generated by repro.kernel.codegen -- do not edit",
        "def build(rt):",
        "    _veq = rt.veq; _same = rt.same; _num = rt.num; _eqn = rt.eqn",
        "    _lt = rt.lt; _le = rt.le; _gt = rt.gt; _ge = rt.ge",
        "    _anyeq = rt.anyeq",
        "    ctr = rt.counters",
        "    cs_insert = rt.cs_insert; cs_delete = rt.cs_delete",
        "    Inst = rt.instantiation",
        "    P = rt.productions",
    ]
    emit = out.append

    for plan in plans:
        expr = _alpha_expr(plan.items)
        pred_name = "None"
        if expr:
            pred_name = f"a{plan.index}"
            emit(f"    def a{plan.index}(w):")
            emit("        g = w.get")
            emit(f"        return {expr}")
        columns = ", ".join(repr(c) for c in plan.columns)
        names = ", ".join(repr(n) for n in plan.production_names)
        emit(
            f"    S{plan.index} = rt.store({plan.index}, {plan.cls!r}, "
            f"({columns}{',' if plan.columns else ''}), {pred_name}, "
            f"({names}{',' if plan.production_names else ''}))"
        )
        for c_idx, attr in enumerate(plan.columns):
            emit(f"    c{plan.index}_{c_idx} = S{plan.index}.cols[{attr!r}]")

    # The alpha dispatch table (see plan_alpha_index): a one-attribute
    # group is probed by the bare value, a wider one by the value tuple.
    emit("    rt.index_stores({")
    for cls, (groups, tail) in plan_alpha_index(plans).items():
        emit(f"        {cls!r}: ((")
        for attrs, table in groups.items():
            probe = attrs[0] if len(attrs) == 1 else attrs
            entries = ", ".join(
                f"{key!r}: {_store_tuple(indexes)}" for key, indexes in table.items()
            )
            emit(f"            ({probe!r}, {{{entries}}}),")
        emit(f"        ), {_store_tuple(tail)}),")
    emit("    })")

    for p_idx, production in enumerate(productions):
        _emit_production(out, p_idx, production, use)

    for p_idx, production in enumerate(productions):
        for i in range(len(production.analysis)):
            plan = use[(p_idx, i)]
            emit(
                f"    rt.subscribe(S{plan.index}, "
                f"p{p_idx}_r{i}_a, p{p_idx}_r{i}_d)"
            )
    out.append("")
    return "\n".join(out)
