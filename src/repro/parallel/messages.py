"""The tuples a coordinator and its thread shards hand each other.

Shards are threads in the coordinator's address space, so everything
travels by reference: a batch is a list of ops, a reply is one tuple,
and nothing is ever encoded.

Ops inside a batch::

    ("+p", production)            compile a production into the shard
    ("-p", name)                  remove a production
    ("+wr", wme)                  working-memory insertion (the live WME)
    ("-w", timetag)               working-memory deletion
    ("reset",)                    discard all match state, keep nothing

Reply, one per batch::

    ("ok", edits, stat_rows)      a served batch
    ("error", repr, traceback_text)

``edits`` is the ordered conflict-set edit stream the batch produced:
``("I", instantiation)`` inserts -- the very object the kernel built,
which the coordinator files into its own conflict set -- and
``("d", production_name, timetags)`` deletes, where ``timetags`` is the
instantiation's positive-CE timetag tuple.

``stat_rows`` carries one measurement row per *WME op* in the batch:
``(op_index, affected, activations, comparisons, tokens_built)`` --
the coordinator sums rows across shards (shards hold disjoint
production sets, so "affected productions" adds correctly) into the
:class:`~repro.ops5.matcher.MatchStats` record stream.
"""

from __future__ import annotations

#: Op tags.
ADD_PRODUCTION = "+p"
REMOVE_PRODUCTION = "-p"
ADD_WME_REF = "+wr"
REMOVE_WME = "-w"
RESET = "reset"

#: Reply tags.
OK = "ok"
ERROR = "error"

#: Edit tags.
INSERT_REF = "I"
DELETE = "d"
