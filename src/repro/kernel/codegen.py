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
* per *first-level group* (``plan_groups``: the productions whose CE 0
  reads one store under one guard and whose first join hashes the same
  CE-0 columns), ONE level-1 left memory ``gl`` and one fused CE-0
  activation pair ``g{n}_a`` / ``g{n}_d`` that builds the token once
  and runs every member's first join inline -- Rete's node sharing,
  one level deep.  Right indexes, blocker counts and every deeper level
  stay private to their production;
* a terminal that edits the conflict set directly.

Join keys are tuples (or bare ints) of encoded column values read
straight out of the :class:`~repro.kernel.layout.AlphaStore` columns --
one dict probe per component, no string hashing, no method dispatch.
Tokens are plain tuples of WMEs (``None`` at negated positions) and
left keys are the matching timetag tuples (``0`` at negated positions),
the same identity the interpreted Rete's ``Token.key`` uses, so the
terminal's conflict-set keys are bit-identical to the oracle's.

The generated source contains *no* production names, no symbol-table
ids, no variable names and no RHS data (``ops5/rhs.py`` compiles the act
phase; an instantiation derives its bindings from its WMEs): constants
are embedded by ``ops5.rhs.literal``, productions are looked up
positionally from the runtime at build time, and values are encoded only
when WMEs arrive.  Compiling therefore never touches the intern table,
and two structurally identical rulesets -- even under different rule,
variable or action names -- share one code object (``kernel/cache.py``).

Correctness notes (mirroring the node-walking Rete):

* Exactly-once pairing when one WME feeds several CEs of a production:
  each CE's right entry inserts into its own ``ri`` bucket and probes
  the opposite ``li`` within the same call, so whichever of the two
  subscriber calls runs second forms the pair -- no Doorenbos
  descendants-first ordering is needed.  At level 1 this leans on the
  right index being *private*: a group subscribes where its first
  member's CE 0 would, so it runs before any member's CE-1 subscriber
  has filed the WME.  A right index shared *between* productions
  would be filled by its first subscriber, possibly before another
  sharer's CE-0 activation of the same WME -- which would then pair
  the WME with itself once from the left and again from the right.
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
from ..ops5.rhs import LITERAL_PRELUDE, literal

__all__ = [
    "StorePlan",
    "alpha_items",
    "generate_source",
    "plan_alpha_index",
    "plan_groups",
    "plan_stores",
    "sharing_summary",
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
    return f"_eqn(g({attr!r}), {literal(value)})"


def _alpha_part(item: tuple) -> str:
    kind = item[0]
    if kind == "const":
        _, attr, type_name, value = item
        return _const_eq(attr, type_name, value)
    if kind == "disj":
        _, attr, typed_values = item
        listing = ", ".join(literal(v) for _t, v in typed_values)
        return f"_anyeq(g({attr!r}), ({listing},))"
    if kind == "pred":
        _, attr, op, type_name, value = item
        numeric = type_name != "str"
        if op == "=":
            return _const_eq(attr, type_name, value)
        if op == "<>":
            if numeric:
                return f"not _eqn(g({attr!r}), {literal(value)})"
            return f"g({attr!r}) != {value!r}"
        if op == "<=>":
            return f"_num(g({attr!r}))" if numeric else f"not _num(g({attr!r}))"
        # Ordering predicate: a symbolic constant operand can never
        # match (Predicate.apply requires both sides numeric).
        if not numeric:
            return "False"
        helper = _ORDERING[Predicate(op)]
        return f"{helper}(g({attr!r}), {literal(value)})"
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


def _key_literal(key) -> str:
    """A dispatch-table key: one constant, or the tuple of several."""
    return _tuple_literal(list(map(literal, key))) if isinstance(key, tuple) else literal(key)


def _tuple_literal(parts: list[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _emit_memory_edit(emit, memory: str, slot: str, value: str, add: bool) -> None:
    """File *value* under ``memory[key][slot]``, or drop it and prune
    the emptied bucket."""
    if add:
        emit(f"        d = {memory}.get(key)")
        emit("        if d is None:")
        emit(f"            d = {memory}[key] = {{}}")
        emit(f"        d[{slot}] = {value}")
    else:
        emit(f"        d = {memory}[key]")
        emit(f"        del d[{slot}]")
        emit("        if not d:")
        emit(f"            del {memory}[key]")


def _emit_left(emit, memory: str, tkey: str, joins: Sequence[tuple], add: bool) -> None:
    """Body of a left activation once ``tok`` / ``lk`` are bound: edit
    the left *memory* under *tkey*, then run each ``(production, level,
    analysis)`` of *joins* against its own right index -- a positive CE
    probes it, a negated CE settles its own blocker count -- and call
    the level below.  One join for a private level; every member of a
    first-level group inline.  The probe loops rebind ``w`` / ``wt``,
    so a caller reads its entering WME before this runs.
    """
    emit(f"        key = {tkey}")
    _emit_memory_edit(emit, memory, "lk", "tok", add)
    for p_idx, i, analysis in joins:
        _eq, residual = _split_tests(analysis)
        guard = _residual_expr(residual, i, lambda a: f"w.get({a!r})")
        ri = f"ri{p_idx}_{i}"
        nc = f"nc{p_idx}_{i}"
        down = f"p{p_idx}_l{i + 1}_{'a' if add else 'd'}"
        if not analysis.ce.negated:
            emit(f"        b = {ri}.get(key)")
            emit("        if b:")
            emit("            ctr[1] += len(b)")
            emit("            for wt, w in b.items():")
            pad = " " * 16
            if guard:
                emit(f"{pad}if {guard}:")
                pad += "    "
            emit(f"{pad}{down}(tok + (w,), lk + (wt,))")
            continue
        if add:
            emit(f"        b = {ri}.get(key)")
            if guard:
                emit("        n = 0")
                emit("        if b:")
                emit("            ctr[1] += len(b)")
                emit("            for w in b.values():")
                emit(f"                if {guard}:")
                emit("                    n += 1")
            else:
                emit("        n = len(b) if b else 0")
                emit("        ctr[1] += n")
            emit(f"        {nc}[lk] = n")
            emit("        if not n:")
        else:
            emit(f"        if not {nc}.pop(lk):")
        emit(f"            {down}(tok + (None,), lk + (0,))")


def _emit_right(emit, p_idx: int, i: int, analysis: CEAnalysis, li: str, wkey: str) -> None:
    """Level *i*'s right activations: index the WME under *wkey*, probe
    the left memory *li* (the group's at level 1)."""
    _eq, residual = _split_tests(analysis)
    guard = _residual_expr(residual, i, lambda a: f"wg({a!r})")
    nc = f"nc{p_idx}_{i}"
    down = f"p{p_idx}_l{i + 1}"
    for add in (True, False):
        emit(f"    def p{p_idx}_r{i}_{'a' if add else 'd'}(w):")
        emit("        ctr[0] += 1")
        emit("        wt = w.timetag")
        emit(f"        key = {wkey}")
        _emit_memory_edit(emit, f"ri{p_idx}_{i}", "wt", "w", add)
        emit(f"        b = {li}.get(key)")
        emit("        if b:")
        emit("            ctr[1] += len(b)")
        if guard:
            emit("            wg = w.get")
        emit("            for lk, tok in b.items():")
        pad = " " * 16
        if guard:
            emit(f"{pad}if {guard}:")
            pad += "    "
        if not analysis.ce.negated:
            emit(f"{pad}{down}_{'a' if add else 'd'}(tok + (w,), lk + (wt,))")
        elif add:
            # A first blocker (0 -> 1) retracts the downstream token ...
            emit(f"{pad}n = {nc}[lk]")
            emit(f"{pad}{nc}[lk] = n + 1")
            emit(f"{pad}if not n:")
            emit(f"{pad}    {down}_d(tok + (None,), lk + (0,))")
        else:
            # ... and the last one leaving (1 -> 0) re-propagates it.
            emit(f"{pad}n = {nc}[lk] - 1")
            emit(f"{pad}{nc}[lk] = n")
            emit(f"{pad}if not n:")
            emit(f"{pad}    {down}_a(tok + (None,), lk + (0,))")


def _emit_production(
    out: list[str], p_idx: int, production: Production, use: dict, group: int | None
) -> None:
    """Everything private to one production: terminal, join levels two
    and deeper, every level's right activations.  Its first-level left
    side lives in first-level group *group* (``_emit_group``), whose
    left memory its level-1 right activations probe."""
    analyses = production.analysis
    depth = len(analyses)
    emit = out.append
    pre = f"p{p_idx}"

    emit(f"    pr{p_idx} = P[{p_idx}]")
    emit(f"    nm{p_idx} = pr{p_idx}.name")
    for i in range(1, depth):
        if i > 1:
            emit(f"    li{p_idx}_{i} = {{}}")
        emit(f"    ri{p_idx}_{i} = {{}}")
        if analyses[i].ce.negated:
            emit(f"    nc{p_idx}_{i} = {{}}")

    # Terminal (level == depth): edits the conflict set.  With no
    # negated CE the token and its left key *are* the instantiation's
    # WME and timetag tuples.
    positive = [i for i, a in enumerate(analyses) if not a.ce.negated]
    wmes, tags = "tok", "lk"
    if len(positive) < depth:
        wmes = _tuple_literal([f"tok[{i}]" for i in positive])
        tags = _tuple_literal([f"lk[{i}]" for i in positive])
    emit(f"    def {pre}_l{depth}_a(tok, lk):")
    emit("        ctr[0] += 1; ctr[2] += 1")
    emit(f"        cs_insert(Inst(pr{p_idx}, {wmes}, None, {tags}))")
    emit(f"    def {pre}_l{depth}_d(tok, lk):")
    emit("        ctr[0] += 1")
    emit(f"        cs_delete((nm{p_idx}, {tags}))")

    # Join levels, deepest first so each function sits below its callee.
    for i in range(depth - 1, 0, -1):
        eq, _residual = _split_tests(analyses[i])
        li = f"li{p_idx}_{i}" if i > 1 else f"gl{group}"
        if i > 1:
            for add in (True, False):
                emit(f"    def {pre}_l{i}_{'a' if add else 'd'}(tok, lk):")
                emit("        ctr[0] += 1; ctr[2] += 1" if add else "        ctr[0] += 1")
                _emit_left(
                    emit, li, _token_key(eq, use, p_idx), [(p_idx, i, analyses[i])], add
                )
        _emit_right(emit, p_idx, i, analyses[i], li, _wme_key(eq, use[(p_idx, i)]))

    if depth == 1:
        # Entry of a single-CE production: CE 0 straight to the terminal.
        guard = _guard0(production)
        for suffix in ("a", "d"):
            emit(f"    def {pre}_r0_{suffix}(w):")
            emit("        ctr[0] += 1")
            _emit_guard0(emit, guard)
            emit(f"        {pre}_l1_{suffix}((w,), (w.timetag,))")


def _guard0(production: Production) -> str:
    """CE 0's intra-element predicate tests (``^b > <x>`` against its
    own ``^a <x>``): they gate token creation, exactly like the
    dummy-top join's own-CE tests."""
    _eq, residual = _split_tests(production.analysis[0])
    return _residual_expr(residual, 0, lambda a: f"wg({a!r})")


def _emit_guard0(emit, guard: str) -> None:
    if guard:
        emit("        wg = w.get")
        emit(f"        if not ({guard}):")
        emit("            return")


def plan_groups(
    productions: Sequence[Production], use: dict
) -> dict[tuple[int, str, str], list[int]]:
    """First-level groups: the multi-CE productions (by index) that
    share one left memory and one fused CE-0 activation, keyed by what
    makes their first-level token sets and buckets coincide -- (CE-0
    store index, CE-0 guard, level-1 token key over CE-0's columns).
    In first-member order; a production alone under its signature is a
    group of one."""
    groups: dict[tuple[int, str, str], list[int]] = {}
    for p_idx, production in enumerate(productions):
        if len(production.analysis) > 1:
            eq, _residual = _split_tests(production.analysis[1])
            signature = (
                use[(p_idx, 0)].index,
                _guard0(production),
                _token_key(eq, use, p_idx),
            )
            groups.setdefault(signature, []).append(p_idx)
    return groups


def sharing_summary(productions: Sequence[Production]) -> dict:
    """The ``sharing`` block of ``kernel_summary()``: how much of the
    ruleset shares a first CE -- the compiled counterpart of the
    ``rete`` section's ``sharing_ratio``."""
    _plans, use = plan_stores(productions)
    sizes = sorted(map(len, plan_groups(productions, use).values()), reverse=True)
    return {
        "groups": len(sizes),
        "sizes": sizes,
        "grouped_productions": sum(n for n in sizes if n > 1),
        "largest_group": sizes[0] if sizes else 0,
        "left_memories_saved": sum(sizes) - len(sizes),
    }


def _emit_group(
    out: list[str],
    g_idx: int,
    signature: tuple[int, str, str],
    members: list[int],
    productions: Sequence[Production],
) -> None:
    """One group's left memory and fused CE-0 activation pair.

    The counters stay *logical*: one entry activation per member, then
    -- past the guard -- one level-1 activation (and, on add, one
    token) per member, as if each still ran a private ``r0 -> l1``
    chain, so ``MatchStats`` is invariant under grouping and therefore
    under partitioning.
    """
    emit = out.append
    _store, guard, tkey = signature
    n = len(members)
    joins = [(p_idx, 1, productions[p_idx].analysis[1]) for p_idx in members]
    emit(f"    gl{g_idx} = {{}}")
    for add in (True, False):
        emit(f"    def g{g_idx}_{'a' if add else 'd'}(w):")
        tokens = f"; ctr[2] += {n}" if add else ""
        if guard:
            emit(f"        ctr[0] += {n}")
            _emit_guard0(emit, guard)
            emit(f"        ctr[0] += {n}{tokens}")
        else:
            emit(f"        ctr[0] += {2 * n}{tokens}")
        # Everything read from the entering WME is taken here: the
        # members' probe loops below rebind ``w``.
        emit("        tok = (w,); lk = (w.timetag,)")
        _emit_left(emit, f"gl{g_idx}", tkey, joins, add)


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
        f"    {LITERAL_PRELUDE}",
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
                f"{_key_literal(key)}: {_store_tuple(indexes)}" for key, indexes in table.items()
            )
            emit(f"            ({probe!r}, {{{entries}}}),")
        emit(f"        ), {_store_tuple(tail)}),")
    emit("    })")

    first_level = list(plan_groups(productions, use).items())
    group_of = {p: g for g, (_sig, members) in enumerate(first_level) for p in members}
    for p_idx, production in enumerate(productions):
        _emit_production(out, p_idx, production, use, group_of.get(p_idx))
    for g_idx, (signature, members) in enumerate(first_level):
        _emit_group(out, g_idx, signature, members, productions)

    # A group subscribes once, where its first member's CE 0 would;
    # every later CE keeps its (production, CE) position.
    for p_idx, production in enumerate(productions):
        depth = len(production.analysis)
        for i in range(depth):
            entry = f"p{p_idx}_r{i}"
            if i == 0 and depth > 1:
                g_idx = group_of[p_idx]
                if first_level[g_idx][1][0] != p_idx:
                    continue
                entry = f"g{g_idx}"
            emit(f"    rt.subscribe(S{use[(p_idx, i)].index}, {entry}_a, {entry}_d)")
    out.append("")
    return "\n".join(out)
