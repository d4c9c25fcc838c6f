"""A right-index bucket's two shapes, through one join key's whole life.

A generated right index ``ri{s}_{n}`` maps a join key with one member
to that WME itself and a key with two or more to a ``{timetag: WME}``
dict; a key with none is absent.  Here one key goes 0 -> 1 -> 2 -> 3 ->
2 -> 1 -> 0 members under four kinds of CE that read one store under
one join key, and so probe one shared index -- plain positive, positive
with a residual guard, negated, negated with a guard -- and at every
step:

* the conflict set equals a node-walking Rete's (:class:`Shadowed`),
  and the per-change ``MatchStats`` rows equal the ones the kernel gave
  when every bucket was a dict (the Rete counts its own network's
  effort, not the kernel's logical one);
* every bucket of every right index, read from the generated closures'
  cells (the runtime's ``indexes``), is a WME or a dict of at least
  two, and the probed key's bucket is absent, the lone member, or
  exactly the live members.

Hand mutations of ``kernel/runtime.py`` that each fail this file (the
helper was edited in a copy, the file run): a delete that leaves a
one-member dict (no demotion), and a delete of a lone member that
leaves the WME filed.
"""

import re

from repro.ops5 import parse_program
from repro.ops5.wme import WME
from tests.kernel.test_sharing import Shadowed, _stat_rows, audit

#: One group on ``t`` keyed by ``^x``; every CE 1 reads ``u`` by ``^x``,
#: two of them under a residual ``^y > <y>`` test.
RULES = """
(p plain   (t ^x <v>) (u ^x <v>) --> (halt))
(p guarded (t ^x <v> ^y <y>) (u ^x <v> ^y > <y>) --> (halt))
(p absent  (t ^x <v>) - (u ^x <v>) --> (halt))
(p below   (t ^x <v> ^y <y>) - (u ^x <v> ^y > <y>) --> (halt))
"""

#: The kernel's stat rows for the script below, read when every
#: non-empty bucket was a ``{timetag: WME}`` dict.
DICT_ONLY_ROWS = [
    ('add', 't', 4, 10, 0, 6),
    ('add', 'u', 4, 4, 0, 0),
    ('add', 't', 4, 10, 0, 6),
    ('remove', 't', 4, 10, 0, 0),
    ('add', 'u', 4, 6, 4, 1),
    ('add', 't', 4, 10, 4, 6),
    ('remove', 't', 4, 10, 2, 0),
    ('add', 'u', 4, 7, 4, 2),
    ('add', 't', 4, 11, 8, 7),
    ('remove', 't', 4, 11, 4, 0),
    ('add', 'u', 4, 6, 4, 2),
    ('add', 't', 4, 13, 12, 9),
    ('remove', 't', 4, 13, 6, 0),
    ('remove', 'u', 4, 6, 4, 0),
    ('add', 't', 4, 11, 8, 7),
    ('remove', 't', 4, 11, 4, 0),
    ('remove', 'u', 4, 5, 4, 0),
    ('add', 't', 4, 10, 4, 6),
    ('remove', 't', 4, 10, 2, 0),
    ('remove', 'u', 4, 8, 4, 2),
    ('add', 't', 4, 10, 0, 6),
    ('remove', 't', 4, 10, 0, 0),
]


def right_indexes(matcher):
    """``ri{s}_{n}`` name -> dict, from every closure reachable from the
    runtimes' class entries (the store blocks sit in ``T`` / ``Q``
    dispatch dicts)."""
    found, seen = {}, set()
    todo = [entry for rt in matcher.runtimes for entry in (*rt.adds.values(), *rt.removes.values())]
    while todo:
        fn = todo.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            value = cell.cell_contents
            if re.fullmatch(r"ri\d+_\d+", name):
                found[name] = value
            elif hasattr(value, "__code__"):
                todo.append(value)
            elif isinstance(value, dict):
                todo.extend(v for v in value.values() if hasattr(v, "__code__"))
    return found


def check_shapes(matcher, key, members):
    indexes = right_indexes(matcher)
    # Every CE 1 reads store ``u`` under ``^x``: one index, filed once.
    assert list(indexes) == ["ri1_0"]
    assert [id(index) for index in matcher.runtimes[0].indexes] == [id(indexes["ri1_0"])]
    for name, index in indexes.items():
        for bucket in index.values():
            assert isinstance(bucket, WME) or (type(bucket) is dict and len(bucket) >= 2), name
        bucket = index.get(key)
        if not members:
            assert bucket is None, name
        elif len(members) == 1:
            assert bucket is members[0], name
        else:
            assert bucket == {w.timetag: w for w in members}, name


def test_one_key_through_zero_one_two_three_and_back():
    matcher = Shadowed()
    for production in parse_program(RULES).productions:
        matcher.add_production(production)
    matcher.stats.keep_rows()
    memory = matcher.memory

    def add(cls, **attrs):
        wme = memory.add(WME(cls, attrs))
        matcher.add_wme(wme)
        return wme

    add("t", x=1, y=5)
    add("u", x=2, y=9)  # another key, filed beside the probed one
    live = []

    def step():
        check_shapes(matcher, 1, live)
        # A left activation probes the bucket in its current shape.
        probe = add("t", x=1, y=6)
        check_shapes(matcher, 1, live)
        memory.remove(probe)
        matcher.remove_wme(probe)
        rows = _stat_rows(matcher.stats)
        assert rows == DICT_ONLY_ROWS[: len(rows)]
        audit(matcher)

    step()
    for y in (4, 7, 8):  # 0 -> 1 -> 2 -> 3: y 4 fails the guard, 7 and 8 pass
        live.append(add("u", x=1, y=y))
        step()
    for k in (1, 0, 0):  # 3 -> 2 -> 1 -> 0; the demoted survivor is the last filed
        memory.remove(live[k])
        matcher.remove_wme(live.pop(k))
        step()
    assert _stat_rows(matcher.stats) == DICT_ONLY_ROWS
    assert {key[0] for key in matcher.conflict_set.snapshot()} == {"absent", "below"}
