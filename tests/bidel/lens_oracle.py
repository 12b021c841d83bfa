"""The rule-free oracle: every SMO's full-state maps, written by hand.

The product states an SMO once, as its rule sets γ_tgt / γ_src, and the
memory engine evaluates them (:meth:`repro.bidel.smo.base.SmoSemantics.
map_forward`).  These maps state the same semantics a second time, in
plain Python over keyed extents and without Datalog, so the agreement
tests can hold the rules against something they were not derived from.

``oracle_forward(semantics, ctx)`` / ``oracle_backward(semantics, ctx)``
return the side the product's ``map_forward`` / ``map_backward`` return:
data roles, that side's aux roles and, for the identifier SMOs, ``ID``
completed the way the product's :meth:`identifiers` hook completes it.
"""

from __future__ import annotations

from repro.bidel.smo import conditional, foreign_key, partition, simple, vertical
from repro.bidel.smo.base import KeyedRows, MapContext, SideState, is_all_null
from repro.bidel.smo.columns import AddColumnSemantics, DropColumnSemantics
from repro.bidel.smo.conditional import SEQ_R, SEQ_S, SEQ_T, _narrow_ids
from repro.bidel.smo.foreign_key import SEQUENCE_ROLE

_MISSING = object()


def oracle_forward(semantics, ctx: MapContext) -> SideState:
    return _MAPS[type(semantics)][0](semantics, ctx)


def oracle_backward(semantics, ctx: MapContext) -> SideState:
    return _MAPS[type(semantics)][1](semantics, ctx)


# -- identities and columns ---------------------------------------------------


def _copy(source: str, target: str):
    return lambda semantics, ctx: {target: dict(ctx.read(source))}


def _compute(function, columns):
    return lambda row: function.evaluate(dict(zip(columns, row)))


def _widen(function, columns, index, narrow: KeyedRows, overrides: KeyedRows) -> KeyedRows:
    compute = _compute(function, columns)
    wide: KeyedRows = {}
    for key, row in narrow.items():
        override = overrides.get(key)
        value = override[0] if override is not None else compute(row)
        wide[key] = row[:index] + (value,) + row[index:]
    return wide


def _narrow(index, wide: KeyedRows) -> tuple[KeyedRows, KeyedRows]:
    narrow = {key: row[:index] + row[index + 1:] for key, row in wide.items()}
    return narrow, {key: (row[index],) for key, row in wide.items()}


def _add_forward(sem, ctx):
    schema = sem.source_schemas[0]
    return {"R2": _widen(sem.node.function, schema.column_names, schema.arity,
                         ctx.read("R"), ctx.read("B"))}


def _add_backward(sem, ctx):
    narrow, aux = _narrow(sem.source_schemas[0].arity, ctx.read("R2"))
    return {"R": narrow, "B": aux}


def _drop_forward(sem, ctx):
    narrow, aux = _narrow(sem.source_schemas[0].index_of(sem.node.column), ctx.read("R"))
    return {"R2": narrow, "B": aux}


def _drop_backward(sem, ctx):
    schema = sem.source_schemas[0]
    narrow_schema = schema.drop_column(sem.node.column)
    return {"R": _widen(sem.node.default, narrow_schema.column_names,
                        schema.index_of(sem.node.column), ctx.read("R2"), ctx.read("B"))}


# -- SPLIT / MERGE (Rules 12–25) ----------------------------------------------


def _partition(sem, ctx) -> SideState:
    """Unified side (+ its aux) → partitioned side (Rules 12–17)."""
    lens = sem._lens
    roles = lens.roles
    unified = ctx.read(roles.unified)
    rminus, rstar = ctx.read(roles.rminus), ctx.read(roles.rstar)
    splus, sminus, sstar = ctx.read(roles.splus), ctx.read(roles.sminus), ctx.read(roles.sstar)
    first: KeyedRows = {}
    second: KeyedRows = {}
    uprime: KeyedRows = {}
    for key, row in unified.items():
        if (lens._cr(row) and key not in rminus) or key in rstar:
            first[key] = row
        if roles.second is not None and key not in splus:
            if (lens._cs(row) and key not in sminus) or key in sstar:
                second[key] = row
        if not lens._cr(row) and not lens._cs(row) and key not in rstar and key not in sstar:
            uprime[key] = row
    second.update(splus)
    result: SideState = {roles.first: first, roles.uprime: uprime}
    if roles.second is not None:
        result[roles.second] = second
    return result


def _unify(sem, ctx) -> SideState:
    """Partitioned side (+ Uprime) → unified side (Rules 18–25)."""
    lens = sem._lens
    roles = lens.roles
    first = ctx.read(roles.first)
    second = ctx.read(roles.second) if roles.second is not None else {}
    unified: KeyedRows = dict(first)
    for key, row in (*second.items(), *ctx.read(roles.uprime).items()):
        unified.setdefault(key, row)  # R is the primus inter pares
    rminus: KeyedRows = {}
    rstar: KeyedRows = {}
    splus: KeyedRows = {}
    sminus: KeyedRows = {}
    sstar: KeyedRows = {}
    for key, row in first.items():
        if not lens._cr(row):
            rstar[key] = ()
        if roles.second is not None and key not in second and lens._cs(row):
            sminus[key] = ()
    for key, row in second.items():
        if key not in first and lens._cr(row):
            rminus[key] = ()
        if not lens._cs(row):
            sstar[key] = ()
        if key in first and first[key] != row:
            splus[key] = row
    result: SideState = {roles.unified: unified, roles.rstar: rstar}
    if roles.second is not None:
        result.update({roles.rminus: rminus, roles.splus: splus,
                       roles.sminus: sminus, roles.sstar: sstar})
    return result


# -- DECOMPOSE / JOIN ON PK (B.2, B.5) ------------------------------------------


def _decompose(lens, wide: KeyedRows) -> tuple[KeyedRows, KeyedRows]:
    """Rules 133/134: project, skipping all-null parts (ω rows)."""
    first: KeyedRows = {}
    second: KeyedRows = {}
    for key, row in wide.items():
        left, right = lens.split_row(row)
        if not is_all_null(left):
            first[key] = left
        if not is_all_null(right):
            second[key] = right
    return first, second


def _outer_join(lens, first: KeyedRows, second: KeyedRows) -> KeyedRows:
    """Rules 135–137: full outer join on the key, ω-filling gaps."""
    wide = {key: lens.combine(left, second.get(key)) for key, left in first.items()}
    for key, right in second.items():
        wide.setdefault(key, lens.combine(None, right))
    return wide


def _split_pk(sem, ctx):
    first, second = _decompose(sem._lens, ctx.read("R"))
    return {"S": first, "T": second}


def _join_pk(sem, ctx):
    return {"R": _outer_join(sem._lens, ctx.read("S"), ctx.read("T"))}


def _inner_join_forward(sem, ctx):
    first, second = ctx.read("R"), ctx.read("S")
    joined = {key: left + second[key] for key, left in first.items() if key in second}
    return {
        "T": joined,
        "Rplus": {key: row for key, row in first.items() if key not in second},
        "Splus": {key: row for key, row in second.items() if key not in first},
    }


def _inner_join_backward(sem, ctx):
    first: KeyedRows = {}
    second: KeyedRows = {}
    for key, row in ctx.read("T").items():
        first[key], second[key] = sem._lens.split_row(row)
    for key, row in ctx.read("Rplus").items():
        first.setdefault(key, row)
    for key, row in ctx.read("Splus").items():
        second.setdefault(key, row)
    return {"R": first, "S": second}


# -- DECOMPOSE / OUTER JOIN ON FK (B.3) -----------------------------------------


def _fk_split(sem, ctx) -> SideState:
    """γ_tgt of the decomposition: R (+ID, +the stored T) → S, T, ID.  A
    recorded identifier stays; a row ID lacks reuses the identifier of its
    B part (in T, or of a recorded row), else takes a fresh one."""
    lens = sem._lens
    id_map = {key: row[0] for key, row in ctx.read("ID").items()}
    payload_to_id: dict = {}
    for t_key, t_row in ctx.read("T").items():
        payload_to_id.setdefault(t_row[1:], t_key)
    t_rows: KeyedRows = {}
    s_rows: KeyedRows = {}
    new_ids: KeyedRows = {}
    pending = []
    for key, row in ctx.read("R").items():
        a_part, b_part = lens.split_row(row)
        fk = id_map.get(key, _MISSING)
        if fk is _MISSING:
            pending.append((key, a_part, b_part))
            continue
        if fk is not None and not is_all_null(b_part):
            t_rows[fk] = (fk, *b_part)
            payload_to_id.setdefault(b_part, fk)
        s_rows[key] = lens.s_row(a_part, fk)
    for key, a_part, b_part in pending:
        fk = None
        if not is_all_null(b_part):
            fk = payload_to_id.get(b_part)
            if fk is None:
                fk = payload_to_id[b_part] = ctx.allocate_id(SEQUENCE_ROLE)
            t_rows[fk] = (fk, *b_part)
        new_ids[key] = (fk,)
        s_rows[key] = lens.s_row(a_part, fk)
    return {"S": s_rows, "T": t_rows, "ID": {**ctx.read("ID"), **new_ids}}


def _fk_join(sem, ctx) -> SideState:
    """S, T → R, ID (Rules 147–152): dangling or null foreign keys keep the
    A part; unreferenced T rows surface keyed by their identifier."""
    lens = sem._lens
    t_rows = ctx.read("T")
    wide: KeyedRows = {}
    id_map: KeyedRows = {}
    referenced = set()
    for key, s_row in ctx.read("S").items():
        index = lens.fk_index
        a_part, fk = s_row[:index] + s_row[index + 1:], s_row[index]
        t_row = t_rows.get(fk) if fk is not None else None
        if t_row is not None:
            referenced.add(fk)
        wide[key] = lens.combine(a_part, t_row[1:] if t_row is not None else None)
        id_map[key] = (fk if t_row is not None else None,)
    for t_key, t_row in t_rows.items():
        if t_key not in referenced:
            wide.setdefault(t_key, lens.combine(None, t_row[1:]))
            id_map.setdefault(t_key, (t_key,))
    return {"R": wide, "ID": id_map}


# -- DECOMPOSE / JOIN ON a condition (B.4, B.6) -----------------------------------


def _cond_parts(sem):
    """The positions of S's and of T's payload in the wide row."""
    return sem._lens.parts


def _cond_join(sem, ctx) -> SideState:
    """Narrow → wide: a wide row per recorded pair that matches and Rminus
    does not suppress, and a fresh one per such pair ID lacks."""
    lens = sem._lens
    s_parts, t_parts = _cond_parts(sem)
    s_rows, t_rows, id_rows = ctx.read("S"), ctx.read("T"), ctx.read("ID")
    removed = set(ctx.read("Rminus").values())
    pairs = {}
    for s_key, s_row in s_rows.items():
        for t_key, t_row in t_rows.items():
            if lens.matches(s_row[1:], t_row[1:]):
                wide = [None] * (len(s_row) + len(t_row) - 2)
                for index, value in zip((*s_parts, *t_parts), s_row[1:] + t_row[1:]):
                    wide[index] = value
                pairs[(s_key, t_key)] = tuple(wide)
    wide_rows: KeyedRows = {}
    new_ids: KeyedRows = dict(id_rows)
    for r_key, pair in id_rows.items():
        if pair in pairs and pair not in removed:
            wide_rows[r_key] = pairs[pair]
    recorded = set(id_rows.values())
    for pair, payload in pairs.items():
        if pair not in removed and pair not in recorded:
            r_key = ctx.allocate_id(SEQ_R)
            new_ids[r_key] = pair
            wide_rows[r_key] = payload
    matched_s = {s for s, _ in pairs}
    matched_t = {t for _, t in pairs}
    return {
        "R": wide_rows,
        "ID": new_ids,
        "Splus": {k: v for k, v in s_rows.items() if k not in matched_s},
        "Tplus": {k: v for k, v in t_rows.items() if k not in matched_t},
    }


def _cond_unjoin(sem, ctx) -> SideState:
    """Wide → narrow: each wide row's narrow identifiers (``_narrow_ids``),
    its narrow rows, the stored unmatched ones, and Rminus (Rule 200)."""
    lens = sem._lens
    wide, id_rows, written = ctx.read("R"), ctx.read("ID"), ctx.written("R")
    picked = []
    for side, (parts, sequence) in enumerate(zip(_cond_parts(sem), (SEQ_S, SEQ_T))):
        def part(row, parts=parts):
            return None if row is None else tuple(row[i] for i in parts)

        rows = [
            (r_key, part(written.get(r_key, row)), part(row),
             id_rows[r_key][side] if r_key in id_rows else None)
            for r_key, row in wide.items()
        ]
        picked.append(_narrow_ids(rows, lambda sequence=sequence: ctx.allocate_id(sequence)))
    s_parts, t_parts = _cond_parts(sem)
    s_rows: KeyedRows = {}
    t_rows: KeyedRows = {}
    new_ids: KeyedRows = {}
    for r_key, row in wide.items():
        s_key, t_key = picked[0][r_key], picked[1][r_key]
        s_rows[s_key] = (s_key, *(row[i] for i in s_parts))
        t_rows[t_key] = (t_key, *(row[i] for i in t_parts))
        new_ids[r_key] = (s_key, t_key)
    for s_key, s_row in ctx.read("Splus").items():
        s_rows.setdefault(s_key, s_row)
    for t_key, t_row in ctx.read("Tplus").items():
        t_rows.setdefault(t_key, t_row)
    paired = set(new_ids.values())
    removed: KeyedRows = {}
    for s_key, s_row in s_rows.items():
        for t_key, t_row in t_rows.items():
            if (s_key, t_key) not in paired and lens.matches(s_row[1:], t_row[1:]):
                removed[len(removed) + 1] = (s_key, t_key)
    return {"S": s_rows, "T": t_rows, "ID": new_ids, "Rminus": removed}


_MAPS = {
    simple.DropTableSemantics: (_copy("R", "R_retired"), _copy("R_retired", "R")),
    simple.RenameTableSemantics: (_copy("R", "R2"), _copy("R2", "R")),
    simple.RenameColumnSemantics: (_copy("R", "R2"), _copy("R2", "R")),
    AddColumnSemantics: (_add_forward, _add_backward),
    DropColumnSemantics: (_drop_forward, _drop_backward),
    partition.SplitSemantics: (_partition, _unify),
    partition.MergeSemantics: (_unify, _partition),
    vertical.DecomposePkSemantics: (_split_pk, _join_pk),
    vertical.OuterJoinPkSemantics: (_join_pk, _split_pk),
    vertical.InnerJoinPkSemantics: (_inner_join_forward, _inner_join_backward),
    foreign_key.DecomposeFkSemantics: (_fk_split, _fk_join),
    foreign_key.OuterJoinFkSemantics: (_fk_join, _fk_split),
    conditional.DecomposeCondSemantics: (_cond_unjoin, _cond_join),
    conditional.InnerJoinCondSemantics: (_cond_join, _cond_unjoin),
}
