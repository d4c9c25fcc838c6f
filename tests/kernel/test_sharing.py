"""Node sharing in the compiled kernel: first-level groups.

Productions whose first CE reads one alpha store, under one CE-0 guard,
and whose first join hashes the same CE-0 attributes share ONE left memory
and ONE fused CE-0 activation (``g{n}_a`` / ``g{n}_d``); join levels that
read one store under one join key share ONE right index, unless their
store also feeds an earlier CE of their own production; blocker counts
and every left memory below the first join stay private.  Every
case here runs on a :class:`Shadowed` matcher -- a node-walking Rete
driven beside the kernel, the two conflict sets compared after each
change, and ``ConflictSet`` itself raises on a double insert or a
delete of a missing key, which is what "exactly once" means below --
and ends with ``check_kernel`` plus a WME / bindings comparison.

Hand mutations of ``kernel/codegen.py`` that each fail this file (the
generator was edited, the file run, the edit reverted; see CHANGES.md):
members' right activations probing a private, never-filled memory;
every negated member of a group sharing one blocker dict; the CE-0
guard left out of the group signature; ``tok`` / ``lk`` rebuilt from
``w`` per member, after an earlier member's probe loop rebound it; the
group counting one activation instead of one per member.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import CompiledMatcher, check_kernel
from repro.kernel.codegen import plan_right_indexes, plan_stores, sharing_summary
from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.production import Instantiation
from repro.ops5.wme import WME, live_layout
from repro.rete import ReteNetwork
from repro.workloads.programs import ALL_PROGRAMS, SYSTEM_PROGRAMS


class Shadowed(CompiledMatcher):
    """A ``CompiledMatcher`` with a node-walking Rete beside it: after
    every WME change and production edit the two conflict sets agree.

    The kernel registry is weak, and the random streams revisit ruleset
    shapes across edits and examples, so every kernel used here is kept
    for the test run: each shape is generated once, not once per visit.
    """

    kept: set = set()

    def __init__(self, partitions=1):
        super().__init__(partitions=partitions)
        self.rete = ReteNetwork()
        self.rete.memory = self.memory

    def _rebuild(self, *args):
        super()._rebuild(*args)
        Shadowed.kept.update(self.kernels)

    def _agree(self, edit, *args):
        getattr(super(), edit)(*args)
        getattr(self.rete, edit)(*args)
        assert self.conflict_set.snapshot() == self.rete.conflict_set.snapshot(), (edit, args)

    def add_production(self, production):
        self._agree("add_production", production)

    def remove_production(self, name):
        self._agree("remove_production", name)

    def add_wme(self, wme):
        self._agree("add_wme", wme)

    def remove_wme(self, wme):
        self._agree("remove_wme", wme)


class Driven:
    """A :class:`Shadowed` matcher loaded with *source* and driven by
    scripts of ``("add", cls, attrs)`` / ``("remove", index)`` /
    ``("+p", source)`` / ``("-p", name)``; every script ends with
    ``audit``."""

    def __init__(self, source, *script):
        self.matcher = Shadowed()
        for production in parse_program(source).productions:
            self.matcher.add_production(production)
        self.memory = self.matcher.memory
        self.wmes = []
        self.do(*script)

    def do(self, *script):
        matcher = self.matcher
        for op in script:
            if op[0] == "add":
                self.wmes.append(self.memory.add(WME(op[1], op[2])))
                matcher.add_wme(self.wmes[-1])
            elif op[0] == "remove":
                self.memory.remove(self.wmes[op[1]])
                matcher.remove_wme(self.wmes[op[1]])
            elif op[0] == "+p":
                matcher.add_production(parse_program(op[1]).productions[0])
            else:
                matcher.remove_production(op[1])
        audit(matcher)

    @property
    def sizes(self):
        return self.matcher.kernel_summary()["sharing"]["sizes"]

    @property
    def conflict_set(self):
        return self.matcher.conflict_set

    def satisfied(self):
        return {key[0] for key in self.conflict_set.snapshot()}


def audit(matcher):
    """``check_kernel`` plus what its key comparison cannot see: every
    instantiation holds the WMEs its key names and Rete's bindings."""
    assert check_kernel(matcher) == []
    reference = ReteNetwork()
    for production in matcher.productions:
        reference.add_production(production)
    for wme in matcher.memory.snapshot():
        reference.add_wme(reference.memory.adopt(wme))
    theirs = {i.key: i.bindings for i in reference.conflict_set.members()}
    for inst in matcher.conflict_set.members():
        assert tuple(w.timetag for w in inst.wmes) == inst.timetags == inst.key[1]
        assert inst.bindings == theirs[inst.key], inst


def _functions(source):
    """Generated closure name -> body text."""
    parts = re.split(r"^    def (\w+)\(.*\):\n", source, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


# -- the generated module ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_one_first_level_emitter(name):
    """No multi-CE production keeps a private ``r0`` / ``l1`` / ``li_1``:
    its first level is its group's."""
    system = SYSTEM_PROGRAMS[name].build(matcher=CompiledMatcher())
    productions = list(system.matcher.productions)
    functions = _functions(system.matcher.generated_source)
    for k, production in enumerate(productions):
        private = {f"p{k}_r0_a", f"p{k}_r0_d", f"p{k}_l1_a", f"p{k}_l1_d"} & set(functions)
        if len(production.analysis) == 1:
            assert private == {f"p{k}_r0_a", f"p{k}_r0_d", f"p{k}_l1_a", f"p{k}_l1_d"}
        else:
            assert not private, production.name
            assert f"li{k}_1" not in system.matcher.generated_source
    summary = system.matcher.kernel_summary()
    grouped = sum(len(p.analysis) > 1 for p in productions)
    assert sum(summary["sharing"]["sizes"]) == grouped
    assert summary["sharing"]["left_memories_saved"] == grouped - summary["sharing"]["groups"]
    joins = sum(len(p.analysis) - 1 for p in productions)
    indexes = system.matcher.generated_source.count(" = rt.index()")
    assert indexes == summary["sharing"]["right_indexes"]
    assert indexes == joins - summary["sharing"]["right_indexes_saved"]
    # One subscription per group, one per later CE, one per single-CE rule.
    assert summary["subscriptions"] == (
        sum(len(p.analysis) for p in productions) - summary["sharing"]["left_memories_saved"]
    )


def test_r1_soar_groups():
    """27 watch rules on the class-only ``task`` store, 8 rules on each
    ``^stage s`` store, and ``halt`` alone."""
    system = SYSTEM_PROGRAMS["r1-soar"].build(matcher=CompiledMatcher())
    source = system.matcher.generated_source
    functions = _functions(source)
    # Each member probes its level-1 right index once (some share one).
    members = sorted(
        (len(re.findall(r"b = ri\d+_\d+\.get\(key\)", body)) for name, body in functions.items()
         if re.fullmatch(r"g\d+_a", name)),
        reverse=True,
    )
    assert members == [27, 8, 8, 8, 1]
    assert system.matcher.kernel_summary()["sharing"] == {
        "groups": 5,
        "sizes": [27, 8, 8, 8, 1],
        "grouped_productions": 51,
        "largest_group": 27,
        "left_memories_saved": 47,
        "right_indexes": 56,  # 91 unshared
        "right_indexes_saved": 35,
    }
    assert system.matcher.kernel_summary()["subscriptions"] == 97  # 144 unshared
    # The generated text does not grow.  It is compiled a part at a time,
    # so its compile no longer sets peak RSS, but the code kept and every
    # cold build's codegen and compile time scale with it (140,536 bytes
    # before the alpha network was generated too; 133,664 as one
    # function, before the parts' headers added about 13,000).
    assert len(source.encode()) <= 150_000
    # A member's level-1 right activation, inline in its store's block,
    # probes its group's left memory: production 0's CE 1 reads the
    # ``item`` store 1, whose first subscriber files each WME in ri1_0.
    (block,) = [body for body in functions.values() if "fi(ri1_0, key, wt, w)" in body]
    assert re.search(r"fi\(ri1_0, key, wt, w\)\n        b = gl\d+\.get\(key\)", block)
    # Each join-read store block files its WME once: an ``item`` store
    # read by three right activations did so three times, a ``mark``
    # store read by two, twice.
    readers = {}
    for store in system.matcher.runtimes[0].stores:
        edit = re.search(
            rf"sc\[{store.index}\] \+= 1\n(.*?)(m \|= |return )m{store.index}\b", source, re.S
        ).group(1)
        if "fi(" in edit:
            assert edit.count("fi(") == 1, store
            key = (store.cls, edit.count("ctr[0] += 1\n"))
            readers[key] = readers.get(key, 0) + 1
    assert readers == {("item", 1): 27, ("item", 3): 7, ("mark", 2): 21, ("task", 1): 1}
    # The halt rule's negated first join keeps a private blocker dict.
    halt = [p.name for p in system.matcher.productions].index("r1-soar-halt")
    assert f"nc{halt}_1[lk] = n" in source


def test_programs_without_a_shared_first_ce_have_singleton_groups():
    for name in ("closure", "eight-puzzle", "elevator", "hanoi"):
        summary = sharing_summary(parse_program(ALL_PROGRAMS[name].PROGRAM).productions)
        assert summary["grouped_productions"] == summary["left_memories_saved"] == 0, name
    for name, grouped in (("blocks", 5), ("monkey", 4), ("router", 4)):
        summary = sharing_summary(parse_program(ALL_PROGRAMS[name].PROGRAM).productions)
        assert summary["grouped_productions"] == grouped, name


# -- hazards -------------------------------------------------------------------


def test_one_wme_feeding_ce0_and_ce1_pairs_with_itself_exactly_once():
    """``a``'s CE 0 and CE 1 read the store the group subscribes to: the
    group runs first and finds ``a``'s private right index still empty;
    ``a``'s own CE-1 subscriber then finds the shared token."""
    driven = Driven(
        """(p a (t ^x <v>) (t ^x <v>) --> (halt))
           (p b (t ^x <v>) (u ^x <v>) --> (halt))""",
        ("add", "t", {"x": 1}),  # a: (1, 1)
        ("add", "u", {"x": 1}),  # b: (1, 2)
        ("add", "t", {"x": 1}),  # a: (1, 3) (3, 1) (3, 3); b: (3, 2)
    )
    assert driven.sizes == [2]
    assert driven.conflict_set.total_inserts == 6
    driven = Driven(
        """(p b (t ^x <v>) (u ^x <v>) --> (halt))
           (p a (t ^x <v>) (t ^x <v>) --> (halt))""",
        ("add", "t", {"x": 1}),
        ("add", "t", {"x": 1}),
        ("remove", 0),
        ("remove", 1),
    )
    assert (driven.conflict_set.total_inserts, driven.conflict_set.total_deletes) == (4, 4)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_store_read_twice_by_one_production_keeps_a_private_index(order):
    """``twice``'s CE 1 and CE 2 read ``t`` under ``^x``; ``other``'s CE 2
    shares that store and key.  ``other``'s level 2 and ``twice``'s level
    1 share one right index; ``twice``'s level 2 keeps its own, filed by
    its own subscriber.  Were it shared, a ``t`` WME filed by the index's
    first subscriber would already be there when ``twice``'s level-1
    activation of the same WME probes it from the left, and ``twice``'s
    level-2 right activation would then pair it with itself again: a
    duplicate conflict-set insert."""
    rules = [
        "(p other (c ^x <v>) (u ^x <v>) (t ^x <v>) --> (halt))",
        "(p twice (c ^x <v>) (t ^x <v>) (t ^x <v>) --> (halt))",
    ]
    driven = Driven(
        "\n".join(rules[i] for i in order),
        ("add", "c", {"x": 1}),  # timetag 1
        ("add", "u", {"x": 1}),
        ("add", "t", {"x": 1}),  # twice: 1 3 3; other: 1 2 3
        ("add", "t", {"x": 1}),  # twice: 1 3 4, 1 4 3, 1 4 4; other: 1 2 4
        ("add", "t", {"x": 2}),  # another key
        ("remove", 2),
        ("add", "c", {"x": 1}),  # twice: 6 4 4; other: 6 2 4
        ("remove", 3),
        ("remove", 0),
        ("remove", 5),
    )
    productions = list(driven.matcher.productions)
    levels, _specs = plan_right_indexes(productions, plan_stores(productions)[1])
    other, twice = (productions.index(p) for p in sorted(productions, key=lambda p: p.name))
    assert levels[(twice, 1)][0] == levels[(other, 2)][0] != levels[(twice, 2)][0]
    assert levels[(twice, 2)][1]  # private: it files its own WMEs
    assert driven.conflict_set.total_inserts == driven.conflict_set.total_deletes == 8
    assert driven.satisfied() == set()


def test_negated_members_keep_private_blocker_counts():
    driven = Driven(
        """(p pos (g ^k <v>) (a ^k <v>) --> (halt))
           (p no-b (g ^k <v>) - (b ^k <v>) --> (halt))
           (p no-c (g ^k <v> ^z <w>) - (c ^k <v> ^z > <w>) --> (halt))""",
        ("add", "g", {"k": 1, "z": 5}),  # no-b, no-c
        ("add", "b", {"k": 1}),          # blocks no-b only
        ("add", "c", {"k": 1, "z": 9}),  # blocks no-c only
        ("add", "c", {"k": 1, "z": 1}),  # fails no-c's residual test
        ("add", "a", {"k": 1}),          # pos
        ("remove", 1),                   # no-b again; no-c still blocked
    )
    assert driven.sizes == [3]
    assert driven.satisfied() == {"pos", "no-b"}
    driven.do(
        ("add", "g", {"k": 1, "z": 9}),  # a second token, 9 > 9 fails: all three
        ("remove", 2),                   # the first token's last blocker leaves
        ("remove", 0),
    )
    assert sorted(key[0] for key in driven.conflict_set.snapshot()) == ["no-b", "no-c", "pos"]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_ce0_guard_splits_the_group_and_still_gates_token_creation(order):
    rules = [
        "(p plain (t ^x <v> ^y <u>) (u ^x <v>) --> (halt))",
        "(p above (t ^x <v> ^y > <v>) (u ^x <v>) --> (halt))",
    ]
    driven = Driven(
        "\n".join(rules[i] for i in order),
        ("add", "u", {"x": 1}),
        ("add", "t", {"x": 1, "y": 0}),  # plain only
    )
    assert driven.sizes == [1, 1]
    assert driven.satisfied() == {"plain"}
    driven.do(("add", "t", {"x": 1, "y": 2}), ("remove", 1))
    assert driven.satisfied() == {"plain", "above"}


def test_members_under_one_guard_share_and_count_logically():
    driven = Driven(
        """(p one (t ^x <v> ^y > <v>) (u ^x <v>) --> (halt))
           (p two (t ^x <v> ^y > <v>) - (u ^x <v>) --> (halt))""",
        ("add", "t", {"x": 1, "y": 0}),
    )
    stats = driven.matcher.stats
    assert driven.sizes == [2]
    # Two entry activations, the guard fails, nothing below is counted.
    assert (stats.total_node_activations, stats.total_tokens_built) == (2, 0)
    driven.do(("add", "t", {"x": 1, "y": 2}))
    # + 2 entries, 2 level-1 activations and tokens, two's terminal and token.
    assert (stats.total_node_activations, stats.total_tokens_built) == (2 + 5, 3)
    driven.do(("remove", 1))
    assert (stats.total_node_activations, stats.total_tokens_built) == (2 + 5 + 5, 3)


def test_keyless_and_two_column_first_joins():
    driven = Driven(
        """(p cross (t ^x <v>) (u ^y <z>) --> (halt))
           (p void  (t ^x <v>) - (log) --> (halt))
           (p two   (t ^x <v> ^y <w>) (u ^x <v> ^y <w>) --> (halt))
           (p two-n (t ^x <v> ^y <w>) - (u ^x <v> ^y <w>) --> (halt))""",
        ("add", "t", {"x": 1, "y": 2}),
        ("add", "u", {"x": 1, "y": 2}),
        ("add", "u", {"x": 2, "y": 1}),
        ("add", "log", {}),
        ("add", "t", {"x": 2, "y": 1}),
        ("remove", 3),
        ("remove", 1),
        ("remove", 0),
    )
    assert driven.sizes == [2, 2]
    source = driven.matcher.generated_source
    # cross + void file every token under the single bucket ``0`` ...
    assert re.search(r"def g\d+_a\(w\):\n(?:.*\n){2}        key = 0\n", source)
    # ... two + two-n under both attributes, read from CE 0's WME.
    x, y = (live_layout("t").index[a] for a in "xy")  # the kernel holds it
    assert f"key = (tok[0]._{x}, tok[0]._{y})" in source


def test_the_entering_wme_is_read_before_any_member_loop_rebinds_w():
    """``first``'s probe loop runs over a non-empty right memory and
    rebinds ``w``; ``second`` and ``third`` must still extend the
    entering WME's token."""
    driven = Driven(
        """(p first  (t ^x <v> ^id <i>) (u ^x <v>) --> (halt))
           (p second (t ^x <v> ^id <i>) (s ^x <v>) --> (halt))
           (p third  (t ^x <v> ^id <i>) - (r ^x <v>) --> (halt))""",
        ("add", "u", {"x": 1}),
        ("add", "s", {"x": 1}),
        ("add", "t", {"x": 1, "id": "entering"}),
        ("remove", 2),
        ("add", "t", {"x": 1, "id": "again"}),
    )
    assert driven.sizes == [3]
    assert {
        (i.production.name, i.bindings["i"], i.wmes[0].cls)
        for i in driven.conflict_set.members()
    } == {("first", "again", "t"), ("second", "again", "t"), ("third", "again", "t")}


def test_ruleset_edits_at_run_time_regroup_and_replay():
    driven = Driven(
        "(p a (t ^x <v>) (u ^x <v>) --> (halt))",
        ("add", "t", {"x": 1}),
        ("add", "u", {"x": 1}),
        ("+p", "(p b (t ^x <v>) - (u ^x <v>) --> (halt))"),
        ("add", "t", {"x": 2}),
        ("+p", "(p c (t ^x <v>) (t ^x <v>) (u ^x <v>) --> (halt))"),
        ("remove", 1),
    )
    assert driven.sizes == [3]
    assert driven.matcher.kernel_summary()["compiles"] == 3
    driven.do(("-p", "a"))
    assert driven.sizes == [2]
    driven.do(("add", "u", {"x": 2}), ("-p", "c"), ("remove", 0))
    assert driven.sizes == [1]
    assert driven.satisfied() == set()
    driven.do(("remove", 3))
    assert driven.satisfied() == {"b"}


# -- a random add / remove / edit / run stream over an adversarial ruleset ------

#: Fourteen rules, twelve of them on the class-only ``t`` store: a
#: six-member group (self-join, negated members, a residual right test,
#: a three-CE member), a guarded pair, a keyless pair, a two-attribute
#: pair; plus a constant-tested CE 0 and a group on ``u``.  Right-hand
#: sides make and remove the very WMEs the joins and blockers read.
ADVERSARIAL = """
(p self    (t ^x <v>) (t ^x <v>) --> (make log ^x <v> ^y 0))
(p pair    (t ^x <v>) (u ^x <v>) --> (make log ^x <v> ^y 1))
(p lone    (t ^x <v>) - (u ^x <v>) --> (make u ^x <v> ^y 2))
(p quiet   (t ^x <v>) - (log ^x <v>) --> (make log ^x <v> ^y 2))
(p above   (t ^x <v>) (u ^x <v> ^y > <v>) --> (remove 2))
(p deep    (t ^x <v>) (u ^x <v>) - (log ^x <v>) --> (make log ^x <v> ^y 3))
(p g-pair  (t ^x <v> ^y > <v>) (u ^x <v>) --> (remove 2))
(p g-lone  (t ^x <v> ^y > <v>) - (u ^x <v>) --> (make u ^x <v> ^y 0))
(p cross   (t ^x <v>) (u ^y <z>) (log ^x <v> ^y <z>) --> (remove 3))
(p void    (t ^x <v>) - (log ^y 3) --> (make log ^x <v> ^y 3))
(p two     (t ^x <v> ^y <w>) (u ^x <v> ^y <w>) --> (remove 1))
(p two-n   (t ^x <v> ^y <w>) - (u ^x <v> ^y <w>) (log ^x <v>) --> (remove 3))
(p const   (t ^x 1 ^y <w>) (u ^y <w>) --> (remove 2))
(p flip    (u ^x <v>) (t ^x <v>) (t ^x <v>) --> (remove 1))
"""
RULES = parse_program(ADVERSARIAL).productions

VALUES = [0, 1, 2, "s"]


def stream_ops(values):
    return st.one_of(
        st.tuples(st.just("add"), st.sampled_from(["t", "t", "u", "log"]), values, values),
        st.tuples(st.just("add"), st.sampled_from(["t", "t", "u", "log"]), values, values),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("edit"), st.integers(0, len(RULES) - 1)),
        st.tuples(st.just("run"), st.integers(1, 4)),
    )


def streams(max_size):
    """Op lists over every value, or over a pool of one to three, so
    that join keys are shared: adds and removes keep promoting
    right-index buckets from a lone WME to a dict and demoting them
    back, where unique keys (r1-soar's lanes) almost never do."""
    pools = st.one_of(
        st.just(VALUES), st.lists(st.sampled_from(VALUES), min_size=1, max_size=3, unique=True)
    )
    return pools.flatmap(
        lambda pool: st.lists(stream_ops(st.sampled_from(pool)), min_size=30, max_size=max_size)
    )


def check_stream(ops, partitions=1) -> None:
    matcher = Shadowed(partitions)
    system = ProductionSystem(ADVERSARIAL, matcher=matcher)
    loaded = {p.name for p in RULES}
    for op in ops:
        if op[0] == "add":
            system.add(op[1], x=op[2], y=op[3])
        elif op[0] == "remove":
            live = system.memory.snapshot()
            if live:
                system.remove_wme(live[op[1] % len(live)])
        elif op[0] == "edit":
            rule = RULES[op[1]]
            if rule.name in loaded:
                system.remove_production(rule.name)
                loaded.remove(rule.name)
            else:
                system.add_production(rule)
                loaded.add(rule.name)
        else:
            system.run(max_cycles=op[1])
    audit(matcher)
    summary = matcher.kernel_summary()
    assert sum(summary["sharing"]["sizes"]) == len(loaded)
    assert sum(map(sum, summary["partitions"]["group_sizes"])) == len(loaded)


def test_adversarial_ruleset_groups():
    assert sharing_summary(RULES)["sizes"] == [6, 2, 2, 2, 1, 1]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(ops=streams(90))
def test_random_stream_under_the_oracle(ops):
    check_stream(ops)
    # The same stream with the ruleset split in two: the Rete beside it
    # checks both partitions' edits of the one conflict set.
    check_stream(ops, partitions=2)


@pytest.mark.fuzz
@settings(max_examples=1000, deadline=None, database=None)
@given(ops=streams(300))
def test_random_stream_under_the_oracle_long(ops):
    check_stream(ops)
    check_stream(ops, partitions=2)


# -- the six system programs, every backend ------------------------------------


def _stat_rows(stats):
    return [
        (r.kind, r.wme_class, r.affected_productions, r.node_activations,
         r.comparisons, r.tokens_built)
        for r in stats.changes
    ]


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_system_programs_agree_stat_rows_included(name):
    """Firings equal the node-walking Rete's; the per-change stat rows of
    the kernel on one, two and three partitions, each under the Rete
    oracle, are equal to each other -- the counters describe the
    logical, unshared network, which no partition changes -- and sum to
    ``UNSHARED_TOTALS``, read before any production shared a first
    level."""
    mod = SYSTEM_PROGRAMS[name]
    reference = mod.run(matcher=ReteNetwork())
    rows = []
    for partitions in (1, 2, 3):
        matcher = Shadowed(partitions)
        system = mod.build(matcher=matcher, history=True)
        result = system.run(max_cycles=mod.EMITTED.max_cycles)
        assert [(c.production, c.timetags) for c in result.cycles] == [
            (c.production, c.timetags) for c in reference.cycles
        ]
        rows.append(_stat_rows(system.matcher.stats))
        audit(matcher)
    assert rows[0] == rows[1] == rows[2]
    totals = tuple(sum(row[i] for row in rows[0]) for i in (2, 3, 4, 5))
    assert (len(rows[0]),) + totals == UNSHARED_TOTALS[name]


#: (changes, affected productions, node activations, comparisons, tokens
#: built) per default run, read at parent a0a05dd (private ``r0 -> l1``).
UNSHARED_TOTALS = {
    "daa": (75, 580, 1280, 226, 350),
    "ep-soar": (87, 563, 1247, 249, 342),
    "ilog": (53, 322, 708, 140, 193),
    "mud": (59, 424, 932, 166, 254),
    "r1-soar": (111, 1013, 2201, 339, 594),
    "vt": (67, 502, 1106, 196, 302),
}


# -- satellite: the terminal hands Instantiation its timetags -------------------


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_passed_timetags_equal_the_recomputed_tuple(name):
    system = SYSTEM_PROGRAMS[name].build(matcher=CompiledMatcher())
    seen = 0
    for _ in range(40):
        for inst in system.conflict_set.members():
            again = Instantiation(inst.production, inst.wmes, inst.bindings)
            assert inst.timetags == again.timetags == tuple(w.timetag for w in inst.wmes)
            assert (inst.key, inst.recency_key) == (again.key, again.recency_key)
            assert inst == again and hash(inst) == hash(again)
            seen += 1
        if system.step() is None:
            break
    assert seen > 40
