"""Rete-to-Python codegen: one generated kernel per ruleset.

:func:`generate_parts` turns a production list into the body of one
factory, cut into parts (``_cut_parts``) that ``kernel/shared.py``
compiles one at a time.  Calling them in order with a
:class:`~repro.kernel.matcher.KernelRuntime` materialises the whole
match network as *closures over local dicts*:

* per WME class, one ``add`` and one ``remove`` entry
  (``rt.adds[cls]`` / ``rt.removes[cls]``): the alpha network as code.
  It probes each constant group (:func:`plan_alpha_index`) into a dict
  of store blocks and runs the class's tail stores inline; a store tests
  its alpha items, files its row, runs its subscribers (a right
  activation inline, a group as a call) and ORs its productions'
  bitmask into the change's affected set;
* per production, a linear join chain -- for condition element ``i`` a
  left index ``li`` (join key -> {left key -> token}), a right index
  ``ri`` (join key -> the one WME filed under it, or {timetag -> WME}
  once two are: ``KernelRuntime.file`` / ``unfile``), and for negated
  CEs a blocker count ``nc`` (left key -> int);
* per *first-level group* (``plan_groups``: the productions whose CE 0
  reads one store under one guard and whose first join hashes the same
  attributes of CE 0), ONE level-1 left memory ``gl`` and one fused CE-0
  activation pair ``g{n}_a`` / ``g{n}_d`` that builds the token once
  and runs every member's first join inline -- Rete's node sharing,
  one level deep.  Right indexes, blocker counts and every deeper level
  stay private to their production;
* a terminal that edits the conflict set directly.

Join keys are tuples (or bare values) of attribute values read straight
from the WMEs' slots (``ops5.wme.Layout``, held by the text): ``w._i``
for the entering record, ``tok[k]._i`` for the one at the joined CE's
position -- no second copy of working memory, no call, no dict (a class
with no layout reads through ``get``).  A dict compares OPS5 values the
way OPS5 does (``1`` and ``1.0`` share a bucket, a ``str`` never equals
a number; ``bool`` and NaN are refused at ingestion), so a bucket holds
exactly the candidates an equality scan would pass.  Tokens are plain tuples of WMEs (``None`` at negated
positions) and left keys are the matching timetag tuples (``0`` at
negated positions), the same identity the interpreted Rete's
``Token.key`` uses, so the terminal's conflict-set keys are
bit-identical to the oracle's.

The generated source contains *no* production names, no variable names
and no RHS data (``ops5/rhs.py`` compiles the act phase; an
instantiation derives its bindings from its WMEs): constants are
embedded by ``ops5.rhs.literal``, productions are looked up positionally
from the runtime at build time, and affected sets are bitmasks over
those positions.  So two structurally identical rulesets -- even under
different rule, variable or action names -- share one kernel
(``kernel/shared.py``).

Correctness notes (mirroring the node-walking Rete):

* Alpha tests are ``ops5.condition.wme_passes_alpha``, inlined: a
  numeric constant is ``==`` plus the ``is_number`` check (``True``
  compares and hashes equal to ``1``), ordering predicates need two
  numbers, a symbol constant is plain ``==``.
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
  and re-evaluates residual tests, exactly like ``JoinNode``.  A remove
  mirrors an add: each store holding the WME runs its delete
  subscribers, then drops its row.
* Negated CEs keep a per-left-token blocker count, like
  ``NegativeNode``: 0 -> 1 retracts the downstream token, 1 -> 0
  re-propagates it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, Sequence

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
from ..ops5.wme import live_layout

__all__ = [
    "StorePlan",
    "alpha_index_summary",
    "alpha_items",
    "generate_parts",
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
    """One shared alpha store: class, fused tests, readers."""

    __slots__ = ("index", "cls", "items", "mask")

    def __init__(self, index: int, cls: str, items: tuple) -> None:
        self.index = index
        self.cls = cls
        self.items = items
        #: Bit ``p`` set for each production position ``p`` reading it.
        self.mask = 0


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
            plan.mask |= 1 << p_idx
            use[(p_idx, analysis.index)] = plan
    return plans, use


def plan_alpha_index(
    plans: Sequence[StorePlan],
) -> dict[str, tuple[dict[tuple, dict], list[int]]]:
    """Per class: ``({attrs: {constants: [store indexes]}}, linear tail)``.

    A store joins the group named by the attributes it tests with a
    constant-equality item, under the constant (one attribute) or tuple
    of constants it demands; a change then probes one dict per *group*
    instead of testing every *store*.  Keys are raw values, so
    ``1``/``1.0`` share an entry as OPS5 equates them and ``"5"`` never
    meets ``5``.  A hit therefore settles the store's constant items,
    except that ``True`` hits ``1``: the store block still checks a
    numeric constant's type, and tests every other item.  A store with
    no constant item, or with one attribute tested twice, stays in the
    class's linear tail.
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


#: Per thread, the layouts one :func:`generate_parts` reads (the live
#: ones when it starts), which its text holds (``hold_layouts``).
_SEEN = threading.local()


def _read(cls: str, attr: str, target: str = "w") -> str:
    """*target*'s value of *attr*, *target* a record of class *cls*: its
    slot (``Layout.read``), or ``get`` if the class has no layout."""
    layout = getattr(_SEEN, "layouts", {}).get(cls)
    return layout.read(attr, target) if layout else f"{target}.get({attr!r})"


def _isnum(first: str = "v") -> str:
    """``is_number(v)``, inline; *first* is the first read of ``v``."""
    return f"isinstance({first}, _N) and type(v) is not bool"


def _num_eq(cls: str, attr: str, value) -> str:
    """``values_equal`` against a numeric constant."""
    return f"(v := {_read(cls, attr)}) == {literal(value)} and {_isnum()}"


def _alpha_part(cls: str, item: tuple) -> str:
    kind = item[0]
    if kind == "const" or (kind == "pred" and item[2] == "="):
        attr, type_name, value = item[1], item[-2], item[-1]
        if type_name == "str":
            # A symbol constant: plain == is complete (a number never
            # equals a str, matching values_equal's separation).
            return f"{_read(cls, attr)} == {value!r}"
        return _num_eq(cls, attr, value)
    if kind == "disj":
        _, attr, typed_values = item
        symbols = [literal(v) for t, v in typed_values if t == "str"]
        numbers = [literal(v) for t, v in typed_values if t != "str"]
        parts = [f" in {_tuple_literal(symbols)}"] if symbols else []
        if numbers:
            parts.append(f" in {_tuple_literal(numbers)} and {_isnum()}")
        return f"((v := {_read(cls, attr)}){' or v'.join(parts)})"
    if kind == "pred":
        _, attr, op, type_name, value = item
        numeric = type_name != "str"
        if op == "<>":
            return f"not ({_num_eq(cls, attr, value)})" if numeric else f"{_read(cls, attr)} != {value!r}"
        number = _isnum(f"v := {_read(cls, attr)}")
        if op == "<=>":
            return number if numeric else f"not ({number})"
        # Ordering predicate: a symbolic constant operand can never
        # match (Predicate.apply requires both sides numeric).
        return f"{number} and v {op} {literal(value)}" if numeric else "False"
    _, attr_a, attr_b = item
    return f"_veq({_read(cls, attr_a)}, {_read(cls, attr_b)})"


def _residual_expr(analyses: Sequence[CEAnalysis], i: int) -> str:
    """CE *i*'s per-pair test chain: the candidate is ``w``, a token's
    WME ``tok[k]``."""
    parts: list[str] = []
    for jt in _split_tests(analyses[i])[1]:
        a = _read(analyses[i].ce.cls, jt.own_attribute)
        k = jt.other_ce
        b = _read(analyses[k].ce.cls, jt.other_attribute, "w" if k == i else f"tok[{k}]")
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


def _key_expr(components: list[str]) -> str:
    """A hash key from WME values: a bare value, a tuple, or the shared
    single bucket ``0`` when the join has no equality tests."""
    if not components:
        return "0"
    if len(components) == 1:
        return components[0]
    return "(" + ", ".join(components) + ")"


def _token_key(analyses: Sequence[CEAnalysis], eq: Sequence[JoinTest]) -> str:
    """A token's side of a join key: each component read from the WME at
    its CE's position (an equality join's other CE is positive)."""
    return _key_expr(
        [_read(analyses[jt.other_ce].ce.cls, jt.other_attribute, f"tok[{jt.other_ce}]") for jt in eq]
    )


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


def _emit_left_edit(emit, memory: str, add: bool) -> None:
    """File ``tok`` under ``memory[key][lk]``, or drop it and prune the
    emptied bucket."""
    if add:
        emit(f"        d = {memory}.get(key)")
        emit("        if d is None:")
        emit(f"            d = {memory}[key] = {{}}")
        emit("        d[lk] = tok")
    else:
        emit(f"        d = {memory}[key]")
        emit("        del d[lk]")
        emit("        if not d:")
        emit(f"            del {memory}[key]")


def _emit_members(emit, ri: str) -> None:
    """Bind ``b`` to the WMEs filed in right index *ri* under ``key`` --
    its dict's values, or the lone WME as a 1-tuple -- count them as
    comparisons and open a loop binding each to ``w``."""
    emit(f"        b = {ri}.get(key)")
    emit("        if b is not None:")
    emit("            b = b.values() if type(b) is dict else (b,)")
    emit("            ctr[1] += len(b)")
    emit("            for w in b:")


def _emit_left(emit, memory: str, tkey: str, joins: Sequence[tuple], add: bool) -> None:
    """Body of a left activation once ``tok`` / ``lk`` are bound: edit
    the left *memory* under *tkey*, then run each ``(production, level,
    analyses)`` of *joins* against its own right index -- a positive CE
    probes it, a negated CE settles its own blocker count -- and call
    the level below.  One join for a private level; every member of a
    first-level group inline.  The probe loops rebind ``w``, so a
    caller reads its entering WME before this runs.
    """
    emit(f"        key = {tkey}")
    _emit_left_edit(emit, memory, add)
    for p_idx, i, analyses in joins:
        guard = _residual_expr(analyses, i)
        ri = f"ri{p_idx}_{i}"
        nc = f"nc{p_idx}_{i}"
        down = f"p{p_idx}_l{i + 1}_{'a' if add else 'd'}"
        if not analyses[i].ce.negated:
            _emit_members(emit, ri)
            pad = " " * 16
            if guard:
                emit(f"{pad}if {guard}:")
                pad += "    "
            emit(f"{pad}{down}(tok + (w,), lk + (w.timetag,))")
            continue
        if add:
            if guard:
                emit("        n = 0")
                _emit_members(emit, ri)
                emit(f"                if {guard}:")
                emit("                    n += 1")
            else:
                emit(f"        b = {ri}.get(key)")
                emit("        n = 0 if b is None else len(b) if type(b) is dict else 1")
                emit("        ctr[1] += n")
            emit(f"        {nc}[lk] = n")
            emit("        if not n:")
        else:
            emit(f"        if not {nc}.pop(lk):")
        emit(f"            {down}(tok + (None,), lk + (0,))")


def _right_body(p_idx: int, i: int, analyses, li: str, add: bool) -> list[str]:
    """Level *i*'s right activation, unindented lines for its store's
    block: index the entering ``w`` / ``wt`` under its join key, probe
    the left memory *li* (the group's at level 1).  It binds ``key``,
    ``b``, ``lk``, ``tok`` and ``n``, never ``w`` or ``wt``."""
    lines: list[str] = []
    emit = lines.append
    ce = analyses[i].ce
    guard = _residual_expr(analyses, i)
    nc = f"nc{p_idx}_{i}"
    down = f"p{p_idx}_l{i + 1}"
    emit("        ctr[0] += 1")
    own = [_read(ce.cls, jt.own_attribute) for jt in _split_tests(analyses[i])[0]]
    emit(f"        key = {_key_expr(own)}")  # the entering WME's side
    ri = f"ri{p_idx}_{i}"
    emit(f"        fi({ri}, key, wt, w)" if add else f"        uf({ri}, key, wt)")
    emit(f"        b = {li}.get(key)")
    emit("        if b:")
    emit("            ctr[1] += len(b)")
    emit("            for lk, tok in b.items():")
    pad = " " * 16
    if guard:
        emit(f"{pad}if {guard}:")
        pad += "    "
    if not ce.negated:
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
    return [line[8:] for line in lines]


def _emit_production(
    out: list[str], p_idx: int, production: Production, group: int | None, rights: dict
) -> None:
    """Everything private to one production: terminal and join levels
    two and deeper; every level's right activation goes to *rights*
    (``p{k}_r{i}`` -> add and remove bodies) for its store's block.  Its
    first-level left side lives in first-level group *group*
    (``_emit_group``), whose left memory its level-1 right activations
    probe."""
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
                _emit_left(emit, li, _token_key(analyses, eq), [(p_idx, i, analyses)], add)
        rights[f"{pre}_r{i}"] = tuple(
            _right_body(p_idx, i, analyses, li, add) for add in (True, False)
        )

    if depth == 1:
        # Entry of a single-CE production: CE 0 straight to the terminal.
        guard = _residual_expr(production.analysis, 0)
        for suffix in ("a", "d"):
            emit(f"    def {pre}_r0_{suffix}(w):")
            emit("        ctr[0] += 1")
            _emit_guard0(emit, guard)
            emit(f"        {pre}_l1_{suffix}((w,), (w.timetag,))")


def _emit_guard0(emit, guard: str) -> None:
    """CE 0's intra-element predicate tests (``^b > <x>`` against its
    own ``^a <x>``) gate token creation, exactly like the dummy-top
    join's own-CE tests."""
    if guard:
        emit(f"        if not ({guard}):")
        emit("            return")


def plan_groups(
    productions: Sequence[Production], use: dict
) -> dict[tuple[int, str, str], list[int]]:
    """First-level groups: the multi-CE productions (by index) that
    share one left memory and one fused CE-0 activation, keyed by what
    makes their first-level token sets and buckets coincide -- (CE-0
    store index, CE-0 guard, level-1 token key over CE-0's attributes).
    In first-member order; a production alone under its signature is a
    group of one."""
    groups: dict[tuple[int, str, str], list[int]] = {}
    for p_idx, production in enumerate(productions):
        if len(production.analysis) > 1:
            eq, _residual = _split_tests(production.analysis[1])
            signature = (
                use[(p_idx, 0)].index,
                _residual_expr(production.analysis, 0),
                _token_key(production.analysis, eq),
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
    joins = [(p_idx, 1, productions[p_idx].analysis) for p_idx in members]
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


def _plan_subscribers(
    productions: Sequence[Production], use: dict, first_level: list
) -> dict[int, list[str]]:
    """Store index -> the activation pairs it calls, in subscription
    order: a group once, where its first member's CE 0 would; every
    later CE at its (production, CE) position."""
    group_of = {p: g for g, (_sig, members) in enumerate(first_level) for p in members}
    subscribers: dict[int, list[str]] = {}
    for p_idx, production in enumerate(productions):
        depth = len(production.analysis)
        for i in range(depth):
            entry = f"p{p_idx}_r{i}"
            if i == 0 and depth > 1:
                g_idx = group_of[p_idx]
                if first_level[g_idx][1][0] != p_idx:
                    continue
                entry = f"g{g_idx}"
            subscribers.setdefault(use[(p_idx, i)].index, []).append(entry)
    return subscribers


def alpha_index_summary(partitions: Sequence[Sequence[Production]]) -> dict:
    """``kernel_summary()["alpha_index"]``: the shape of the class
    entries' dispatch, summed over a matcher's *partitions*."""
    tails: list[int] = []
    groups = stores = 0
    for productions in partitions:
        plans, _use = plan_stores(productions)
        stores += len(plans)
        for class_groups, tail in plan_alpha_index(plans).values():
            groups += len(class_groups)
            tails.append(len(tail))
    return {
        "classes": len(tails),
        "groups": groups,
        "indexed_stores": stores - sum(tails),
        "linear_tail_stores": sum(tails),
        "largest_tail": max(tails, default=0),
    }


def _store_test(plan: StorePlan, keyed: bool) -> str:
    """*plan*'s alpha tests; a *keyed* store's constant items are settled
    by its group's dict hit (see ``_emit_entries``)."""
    return " and ".join(
        _alpha_part(plan.cls, item) for item in plan.items if not (keyed and item[0] == "const")
    )


def _edit(s: int, body, add: bool) -> list[str]:
    """Store *s*'s edit, mirrored: an add files the row, then runs the
    subscribers; a remove runs them, then drops the row."""
    return [f"r{s}[wt] = w", *body(s, True)] if add else [*body(s, False), f"del r{s}[wt]"]


def _emit_store(emit, plan: StorePlan, keyed: bool, body, pad: str, add: bool) -> None:
    """One store in a multi-store block or a tail: if the WME passes
    (add) or is filed (remove), edit the store and join its mask."""
    s = plan.index
    test = _store_test(plan, keyed) if add else f"wt in r{s}"
    if test:
        emit(f"{pad}if {test}:")
        pad += "    "
    for line in [*_edit(s, body, add), f"m |= m{s}"]:
        emit(pad + line)


def _emit_blocks(emit, n: int, plans: list[StorePlan], body) -> None:
    """One dispatch target's add block ``t{n}`` and remove block
    ``q{n}``, both ``(w, wt)``, returning the mask of the stores
    touched; one store returns early, unnested."""
    for add in (True, False):
        emit(f"    def {'t' if add else 'q'}{n}(w, wt):")
        if len(plans) > 1:
            emit("        m = 0")
            for plan in plans:
                _emit_store(emit, plan, True, body, "        ", add)
            emit("        return m")
            continue
        s = plans[0].index
        if not add:
            emit(f"        if wt not in r{s}: return 0")
        elif test := _store_test(plans[0], True):
            emit(f"        if not ({test}): return 0")
        for line in [*_edit(s, body, add), f"return m{s}"]:
            emit(f"        {line}")


def _emit_entries(
    emit, c: int, cls: str, groups: dict, tail: list, plans, body, blocks: Iterator[int]
) -> None:
    """The class's entry pair ``A{c}`` / ``R{c}``: probe each constant
    group into its dicts of blocks (``T`` / ``Q``), run the tail inline,
    return the number of affected productions.  A dict hit is ``==`` on
    every constant of the key: OPS5 equality once the probed value is
    an OPS5 value (``True == 1`` is not), which the add entry checks
    where a key holds a number.  *blocks* numbers blocks module-wide."""
    probes, guards = [], []
    for g, (attrs, table) in enumerate(groups.items()):
        adds, removes = [], []
        for constants, indexes in table.items():
            n = next(blocks)
            _emit_blocks(emit, n, [plans[s] for s in indexes], body)
            adds.append(f"{_key_literal(constants)}: t{n}")
            removes.append(f"{_key_literal(constants)}: q{n}")
        emit(f"    T{c}_{g} = {{{', '.join(adds)}}}")
        emit(f"    Q{c}_{g} = {{{', '.join(removes)}}}")
        reads = [_read(cls, attr) for attr in attrs]
        probes.append(reads[0] if len(reads) == 1 else _tuple_literal(reads))
        parts = ["k"] if len(attrs) == 1 else [f"k[{i}]" for i in range(len(attrs))]
        keys = [key if len(attrs) > 1 else (key,) for key in table]
        numeric = [any(type(key[i]) is not str for key in keys) for i in range(len(parts))]
        guards.append("".join(
            f"isinstance({part}, _V) and type({part}) is not bool and "
            for part, check in zip(parts, numeric) if check
        ))
    for add in (True, False):
        emit(f"    def {'A' if add else 'R'}{c}(w):")
        emit("        wt = w.timetag; m = 0")
        for g, (probe, guard) in enumerate(zip(probes, guards)):
            if add:
                emit(f"        k = {probe}; b = {guard}T{c}_{g}.get(k)")
            else:
                emit(f"        b = Q{c}_{g}.get({probe})")
            emit("        if b: m |= b(w, wt)")
        for s in tail:
            _emit_store(emit, plans[s], False, body, "        ", add)
        emit("        return m.bit_count()")


def generate_source(productions: Sequence[Production]) -> str:
    """The kernel's text: every part of :func:`generate_parts`, in order."""
    return "".join(text for text, _imports, _exports in generate_parts(productions))


def generate_parts(productions: Sequence[Production]) -> list[tuple[str, tuple, tuple]]:
    """The kernel as parts ``(text, imports, exports)``: calling each
    ``part{k}`` in order on ``rt`` and what earlier ones return builds it."""
    _SEEN.layouts = {ce.cls: live_layout(ce.cls) for p in productions for ce in p.conditions}
    plans, use = plan_stores(productions)
    out: list[str] = [
        "    _veq, _same, _lt, _le, _gt, _ge = rt.veq, rt.same, rt.lt, rt.le, rt.gt, rt.ge",
        "    _N, _V = (int, float), (str, int, float)",
        "    fi, uf, ctr, P = rt.file, rt.unfile, rt.counters, rt.productions",
        "    cs_insert, cs_delete, Inst = rt.cs_insert, rt.cs_delete, rt.instantiation",
        *(f"    {statement}" for statement in LITERAL_PRELUDE.split("; ")),
    ]
    emit = out.append

    # Stores: the affected-set bitmask, then the rows.
    for plan in plans:
        emit(f"    m{plan.index} = {hex(plan.mask)}")
        emit(f"    r{plan.index} = rt.store({plan.cls!r}, m{plan.index})")

    first_level = list(plan_groups(productions, use).items())
    group_of = {p: g for g, (_sig, members) in enumerate(first_level) for p in members}
    rights: dict[str, tuple[list[str], list[str]]] = {}
    for p_idx, production in enumerate(productions):
        _emit_production(out, p_idx, production, group_of.get(p_idx), rights)
    for g_idx, (signature, members) in enumerate(first_level):
        _emit_group(out, g_idx, signature, members, productions)

    subscribers = _plan_subscribers(productions, use, first_level)

    def body(store: int, add: bool) -> list[str]:
        """A store's subscribers, in order: a right activation inline (it
        has no other caller), a group or single-CE entry as a call."""
        lines: list[str] = []
        for entry in subscribers[store]:
            if entry in rights:
                lines += rights[entry][0 if add else 1]
            else:
                lines.append(f"{entry}_{'a' if add else 'd'}(w)")
        return lines

    classes = list(plan_alpha_index(plans).items())
    blocks = itertools.count()
    for c, (cls, (groups, tail)) in enumerate(classes):
        _emit_entries(emit, c, cls, groups, tail, plans, body, blocks)
    for table, entry in (("adds", "A"), ("removes", "R")):
        pairs = ", ".join(f"{cls!r}: {entry}{c}" for c, (cls, _) in enumerate(classes))
        emit(f"    rt.{table} = {{{pairs}}}")
    held = {cls: layout.names for cls, layout in _SEEN.layouts.items() if layout}
    del _SEEN.layouts
    (text, takes, gives), *rest = _cut_parts(out)
    return [(f"{text}_held = hold_layouts({held!r})\n", takes, gives), *rest]


#: Lines per part: ``compile()`` transiently needs ~130 bytes per byte of
#: source, so compiled a part at a time a kernel peaks at one part's cost.
PART_LINES = 150

#: Every character that cannot be in a name, to a space (``_cut_parts``).
_NON_WORD = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum() and c != "_"})


def _cut_parts(body: list[str]) -> list[tuple[str, tuple, tuple]]:
    """Cut one factory's body into parts of at most ``PART_LINES`` lines
    at top-level statements (a longer statement is a part alone).

    A statement defines the names before its first `` = `` (codegen
    writes no data there) or the function it ``def``s, each once.  A
    part takes the earlier names its text mentions as parameters and
    returns the ones later parts take, so every closure captures the
    cells it would in one function (a quoted name adds a spare one)."""
    starts = [i for i, line in enumerate(body) if line[4] != " "] + [len(body)]
    cuts, parts = [], []  # where each part starts; the names it defines
    for start, end in zip(starts, starts[1:]):
        if not cuts or end - cuts[-1] > PART_LINES:
            cuts.append(start)
            parts.append([])
        line = body[start]
        if line.startswith("def ", 4):
            parts[-1].append(line[8:line.index("(")])
        else:
            targets = line[4:line.index(" = ")].rstrip(",").split(", ")
            parts[-1] += [name for name in targets if "." not in name]
    spans = list(zip(cuts, cuts[1:] + [len(body)]))
    rank, imports = {"rt": -1}, []
    for names, (a, b) in zip(parts, spans):
        used = set(" ".join(body[a:b]).translate(_NON_WORD).split())
        imports.append(tuple(sorted(used.intersection(rank), key=rank.__getitem__)))
        rank.update((name, len(rank)) for name in names)
    imported = set().union(*imports)
    result = []
    for k, ((a, b), names, takes) in enumerate(zip(spans, parts, imports)):
        gives = tuple(name for name in names if name in imported)
        head = "# generated by repro.kernel.codegen -- do not edit\n" if k == 0 else ""
        tail = f"    return [{', '.join(gives)}]"
        lines = [f"def part{k}({', '.join(takes)}):", *body[a:b], tail]
        result.append((head + "\n".join(lines) + "\n", takes, gives))
    return result
