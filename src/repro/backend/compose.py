"""Algebraic composition of rule-rendered views along the SMO chain.

The naive delta code serves a table version at SMO-chain depth *N*
through *N* nested ``CREATE VIEW``s.  SQLite expands views (and CTEs)
textually per reference, so a chain whose levels are UNION-shaped (SPLIT,
MERGE, JOIN, ...) doubles its reference count per level — at depth 16 the
expansion needs 2^16 table references and cannot even be prepared, let
alone served cheaply.  The composer turns the view stack back into what
the paper promises: delta code *compiled once* into flat queries.

Every view is a UNION of :class:`~repro.sqlgen.views.ViewBranch`
branches (select list + FROM entries + WHERE conjunction).  Composition
works bottom-up along the dependency order the code generator already
emits in:

1. **Inlining** — a FROM entry that references an already-composed view
   is replaced by that view's branches: the single-branch case merges
   FROM lists and WHEREs and substitutes the child's select expressions
   into the parent (classic view flattening); a multi-branch child is
   distributed over the union, bounded by :data:`MAX_BRANCHES` per view.
2. **EXISTS-merging** — branches whose select lists are identical over
   the same scanned tables differ only in their predicates, so they
   collapse into ONE branch whose WHERE is the disjunction, with each
   branch's purely-filtering extra FROM entries rewritten to correlated
   ``EXISTS`` subqueries.  The merged branch yields the same *set* of
   rows, and it is bag-safe wherever that matters: ``UNION ALL`` is only
   emitted under (K) (below), where every FROM entry holds at most the
   one row keyed ``p`` — a filtering entry turned into ``EXISTS`` had no
   multiplicity to lose, and members that both match agree on the one
   row.  This is what keeps SPLIT/MERGE chains *linear*: the union of
   "rows satisfying the condition" and "rows pinned by the Rstar aux
   table" becomes a single scan of the parent with an OR.

Every SMO's views come from its rule sets, so every view is composed.
Only a composition that would exceed the branch budget keeps its
view-name reference: the referenced view still exists and is itself
composed, so the emitted stack stays shallow instead of deep.  So does a
relation a rule reads inside a subquery (a stored value's probe, a
helper predicate), which the composer does not enter.

**Compound keyword.**  The identifier facts on every
:class:`~repro.sqlgen.views.ViewBranch` ride along: inlining unions the
child's facts into a key-preserving parent (plus the inlined view itself
as a required relation), merging keeps what every member shares.  Where
:func:`~repro.sqlgen.views.key_disjoint` proves (K) + (X) the branches
are joined with ``UNION ALL`` — which SQLite flattens into the enclosing
statement, so an identifier probe becomes a rowid seek — else ``UNION``,
and a lone branch it does not prove key-preserving is ``SELECT
DISTINCT`` (:func:`~repro.sqlgen.views.compound_sql`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

from repro.sqlgen.views import ViewBranch, alias_pattern, compound_sql, key_disjoint
from repro.util.naming import quote_identifier

#: Composition budget: a view whose flattened form would exceed this many
#: UNION branches keeps view-name references instead (nested fallback).
MAX_BRANCHES = 8

_SIMPLE_EXPR = re.compile(r'^[A-Za-z_]\w*\.(?:"[^"]+"|[A-Za-z_]\w*|p)$')
_LITERAL_EXPR = re.compile(r"^(?:NULL|\d+|'[^']*')$")


#: An ``f<N>`` alias as a whole token — its declaration (``table f3``) or
#: its use as a qualifier (``f3.``) inside an EXISTS body the merger wrote.
_EMBEDDED_ALIAS = r"(?<![\w.\"])(?P<embedded>f\d+)(?![\w\"])"


def _outside_literals(text: str, rewrite) -> str:
    """Apply ``rewrite`` to the parts of ``text`` outside single-quoted
    string literals (``''`` for an escaped quote toggles twice, so the
    parity of the split survives it)."""
    segments = text.split("'")
    segments[::2] = [rewrite(segment) for segment in segments[::2]]
    return "'".join(segments)


def _wrap(expr: str) -> str:
    """Parenthesize a select expression unless it is an atomic reference
    or literal (so substitution into an outer expression cannot change
    precedence)."""
    if _SIMPLE_EXPR.match(expr) or _LITERAL_EXPR.match(expr):
        return expr
    return f"({expr})"


class ViewComposer:
    """Bottom-up flattener over the code generator's view emission order."""

    def __init__(self, max_branches: int = MAX_BRANCHES):
        self.max_branches = max_branches
        self._flat: dict[str, list[ViewBranch]] = {}
        #: Views that may hold an identifier twice (emitted as UNION or
        #: DISTINCT): a kept reference to one voids the referencing
        #: branch's key preservation.
        self._unproven: set[str] = set()
        #: Alias numbers restart with every registered view, so a view's
        #: text is a function of its own inputs alone — not of how many
        #: aliases the views registered before it consumed.
        self._fresh = itertools.count()

    # ------------------------------------------------------------------
    # Registration (called in dependency order)
    # ------------------------------------------------------------------

    def register_physical(
        self, view_name: str, data_table: str, columns: tuple[str, ...]
    ) -> list[ViewBranch]:
        """A physical table version's pass-through view: composing through
        it reaches the data table directly."""
        self._fresh = itertools.count()
        alias = self._alias()
        head = tuple(
            (column, f"{alias}.{quote_identifier(column)}")
            for column in ("p", *columns)
        )
        branches = [
            ViewBranch(
                head=head,
                froms=((alias, quote_identifier(data_table)),),
                where=(),
                requires=frozenset({quote_identifier(data_table)}),
                key_preserving=True,
            )
        ]
        self._flat[view_name] = branches
        return branches

    def register(self, view_name: str, branches: list[ViewBranch]) -> list[ViewBranch]:
        """Compose ``branches`` (a view body rendered from rules) against
        every already-registered view they reference; returns the
        flattened branches."""
        self._fresh = itertools.count()
        composed: list[ViewBranch] = []
        for index, branch in enumerate(branches):
            # The view's budget: the branches so far, one per branch to come.
            budget = self.max_branches - len(composed) - (len(branches) - index - 1)
            composed.extend(self._compose_branch(self._refresh(branch), budget))
        composed = self._merge(composed)
        self._flat[view_name] = composed
        if not key_disjoint(composed):
            self._unproven.add(view_name)
        return composed

    def sql(self, branches: list[ViewBranch]) -> str:
        return compound_sql(branches, key_disjoint(branches))

    def forget(self, view_name: str) -> None:
        """Drop a view that left the catalog; nothing registered later may
        compose against it."""
        self._flat.pop(view_name, None)
        self._unproven.discard(view_name)

    # ------------------------------------------------------------------
    # Alias hygiene
    # ------------------------------------------------------------------

    def _alias(self) -> str:
        return f"f{next(self._fresh)}"

    def _refresh(self, branch: ViewBranch) -> ViewBranch:
        """Rename every alias of ``branch`` to the next free names of the
        view being registered — its FROM aliases and the ``f<N>`` aliases
        an earlier EXISTS-merge folded into its predicate text — so merged
        branch bodies can never collide.  An inlined child arrives
        numbered in its own view's range, which overlaps the new names:
        the renaming is one simultaneous pass (string literals untouched),
        never a chain of substitutions."""
        mapping = {alias: self._alias() for alias, _table in branch.froms}
        qualifiers = "|".join(
            re.escape(alias) for alias in sorted(mapping, key=len, reverse=True)
        )
        pattern = re.compile(
            rf"(?<![\w\"])(?P<qualifier>{qualifiers or '(?!)'})\.|{_EMBEDDED_ALIAS}"
        )

        def rename(match: re.Match) -> str:
            if match.group("qualifier") is not None:
                return mapping[match.group("qualifier")] + "."
            alias = match.group("embedded")
            if alias not in mapping:
                mapping[alias] = self._alias()
            return mapping[alias]

        def rewrite(text: str) -> str:
            return _outside_literals(text, lambda part: pattern.sub(rename, part))

        return replace(
            branch,
            froms=tuple((mapping[alias], table) for alias, table in branch.froms),
            head=tuple((column, rewrite(expr)) for column, expr in branch.head),
            where=tuple(rewrite(cond) for cond in branch.where),
        )

    # ------------------------------------------------------------------
    # Inlining
    # ------------------------------------------------------------------

    def _compose_branch(self, branch: ViewBranch, budget: int) -> list[ViewBranch]:
        """Inline every FROM entry that references a composed view.
        Multi-branch children distribute over the union; past ``budget``
        branches the entry keeps its reference (nested fallback) instead."""
        partials = [branch]
        for alias, table in branch.froms:
            children = self._flat.get(table)
            if children is None or len(partials) * len(children) > budget:
                # The entry stays a reference (base table or over budget):
                # it is key-unique only if proven so.
                if table in self._unproven:
                    partials = [replace(p, key_preserving=False) for p in partials]
                continue
            partials = [
                self._inline(partial, alias, child)
                for partial in partials
                for child in children
            ]
        return partials

    def _inline(
        self, outer: ViewBranch, alias: str, child: ViewBranch
    ) -> ViewBranch:
        child = self._refresh(child)
        alternatives = {}
        for column, expr in child.head:
            alternatives[quote_identifier(column)] = _wrap(expr)
            if column == "p":
                alternatives["p"] = _wrap(expr)
        pattern = re.compile(
            rf"(?<![\w\"]){re.escape(alias)}\."
            rf"(?P<col>{'|'.join(re.escape(c) for c in sorted(alternatives, key=len, reverse=True))})"
            rf"(?![\w\"])"
        )

        def rewrite(text: str) -> str:
            return pattern.sub(lambda m: alternatives[m.group("col")], text)

        froms = []
        requires, forbids = outer.requires, outer.forbids
        for from_alias, table in outer.froms:
            if from_alias == alias:
                froms.extend(child.froms)
                if outer.key_preserving:
                    # The inlined row is the view's row at the head's p.
                    requires = requires | child.requires | {table}
                    forbids = forbids | child.forbids
            else:
                froms.append((from_alias, table))
        return ViewBranch(
            head=tuple((column, rewrite(expr)) for column, expr in outer.head),
            froms=tuple(froms),
            where=tuple(rewrite(cond) for cond in outer.where) + child.where,
            requires=requires,
            forbids=forbids,
            key_preserving=outer.key_preserving and child.key_preserving,
        )

    # ------------------------------------------------------------------
    # EXISTS-merging
    # ------------------------------------------------------------------

    def _referenced_aliases(self, branch: ViewBranch, text: str) -> set[str]:
        found = set()
        for alias, _table in branch.froms:
            if re.search(alias_pattern(alias), text):
                found.add(alias)
        return found

    def _split_froms(
        self, branch: ViewBranch
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        """(head-scanned entries, purely-filtering entries): an entry no
        head expression references only filters, so it can move into a
        correlated EXISTS without changing the branch's row set."""
        head_text = " ".join(expr for _column, expr in branch.head)
        used = self._referenced_aliases(branch, head_text)
        scanned = [entry for entry in branch.froms if entry[0] in used]
        extra = [entry for entry in branch.froms if entry[0] not in used]
        return scanned, extra

    def _conjuncts(
        self, branch_froms, extra: list[tuple[str, str]], where: tuple[str, ...]
    ) -> list[str]:
        """The branch's predicate as conjuncts over its scanned entries:
        purely-filtering FROM entries fold into one correlated ``EXISTS``
        (with the conjuncts that referenced them inside its body)."""
        extra_aliases = {alias for alias, _table in extra}
        outer: list[str] = []
        inner: list[str] = []
        probe = ViewBranch(head=(), froms=tuple(branch_froms), where=())
        for cond in where:
            if self._referenced_aliases(probe, cond) & extra_aliases:
                inner.append(cond)
            else:
                outer.append(cond)
        if extra:
            body = "SELECT 1 FROM " + ", ".join(
                f"{table} {alias}" for alias, table in extra
            )
            if inner:
                body += " WHERE " + " AND ".join(inner)
            outer.append(f"EXISTS ({body})")
        return outer

    _ALIAS_TOKEN = re.compile(r"(?<![\w.\"])(?:f\d+|n|t\d+)(?![\w\"])")

    def _canonical(self, text: str, fixed: dict[str, str] | None = None) -> str:
        """Predicate text with generated aliases renumbered in order of
        first appearance — lets two EXISTS probes over the same table be
        recognized as equal regardless of alias spelling.  ``fixed`` pins
        the group's scanned (outer) aliases to shared names, so probes
        correlated against *different* outer entries never canonicalize
        to the same text.  String literals are left untouched (an
        alias-shaped word inside a constant must not alias-match), so
        differing literals always compare unequal."""
        seen: dict[str, str] = dict(fixed or {})

        def rename(match: re.Match) -> str:
            alias = match.group(0)
            if alias not in seen:
                seen[alias] = f"c{len(seen)}"
            return seen[alias]

        return _outside_literals(
            text, lambda part: self._ALIAS_TOKEN.sub(rename, part)
        )

    def _is_tautology(self, predicates: list[str], fixed: dict[str, str]) -> bool:
        """True when the disjunction is provably always true: some branch
        predicate is empty, or two branches are complementary EXISTS / NOT
        EXISTS probes of the same subquery correlated against the same
        outer entries.  ``fixed`` pins the group's scanned aliases (see
        :meth:`_canonical`)."""
        canon = [self._canonical(p, fixed) for p in predicates]
        if any(p == "1" for p in canon):
            return True
        bare = set(canon)
        return any(
            p.startswith("NOT ") and self._canonical(p[len("NOT "):], fixed) in bare
            for p in canon
        )

    def _merge(self, branches: list[ViewBranch]) -> list[ViewBranch]:
        """Collapse branches that scan the same tables with the same select
        list into one branch whose WHERE is the disjunction of the branch
        predicates (set-equivalent; the merged branch keeps only the
        identifier facts every member shares).

        Conjuncts shared by every merged branch — typically the already-
        merged predicate of the child view they were all inlined from —
        are factored out of the disjunction, so predicate text grows
        linearly along an SMO chain instead of doubling per level."""
        if len(branches) <= 1:
            return branches
        # group := [head, scanned froms, [member conjunct-lists], [members]]
        groups: list[list] = []
        for branch in branches:
            scanned, extra = self._split_froms(branch)
            if not scanned:
                # No scanned anchor (head built purely from literals):
                # leave the branch alone rather than risk a FROM-less
                # select with a different cardinality.
                groups.append([branch.head, None, [], [branch]])
                continue
            merged = False
            for group in groups:
                if group[1] is None:
                    continue
                mapping = self._match_scans(group[1], scanned)
                if mapping is None:
                    continue
                renamed_head = tuple(
                    (column, self._rename_text(expr, mapping)) for column, expr in branch.head
                )
                if renamed_head != group[0]:
                    continue
                renamed_where = tuple(
                    self._rename_text(cond, mapping) for cond in branch.where
                )
                renamed_froms = [
                    (mapping.get(alias, alias), table)
                    for alias, table in branch.froms
                ]
                renamed_extra = [
                    (mapping.get(alias, alias), table) for alias, table in extra
                ]
                group[2].append(
                    self._conjuncts(renamed_froms, renamed_extra, renamed_where)
                )
                group[3].append(branch)
                merged = True
                break
            if not merged:
                groups.append(
                    [
                        branch.head,
                        scanned,
                        [self._conjuncts(branch.froms, extra, branch.where)],
                        [branch],
                    ]
                )
        out: list[ViewBranch] = []
        for head, scanned, members, sources in groups:
            if len(sources) == 1:
                out.append(sources[0])
                continue
            # Factor conjuncts common to every member out of the OR.  The
            # same child predicate inlined into two members differs in the
            # spelling of its EXISTS aliases, so compare canonical forms.
            fixed = {alias: f"o{i}" for i, (alias, _table) in enumerate(scanned)}
            keys = [[self._canonical(c, fixed) for c in member] for member in members]
            shared = set(keys[0]).intersection(*keys[1:])
            common = [c for c, key in zip(members[0], keys[0]) if key in shared]
            residuals = [
                [c for c, key in zip(member, member_keys) if key not in shared]
                for member, member_keys in zip(members, keys)
            ]
            predicates = [
                " AND ".join(residual) if residual else "1"
                for residual in residuals
            ]
            where = list(common)
            if not self._is_tautology(predicates, fixed):
                where.append("((" + ") OR (".join(predicates) + "))")
            out.append(
                ViewBranch(
                    head=head,
                    froms=tuple(scanned),
                    where=tuple(where),
                    requires=frozenset.intersection(*(b.requires for b in sources)),
                    forbids=frozenset.intersection(*(b.forbids for b in sources)),
                    key_preserving=all(b.key_preserving for b in sources),
                )
            )
        return out

    def _match_scans(
        self,
        anchor: list[tuple[str, str]],
        candidate: list[tuple[str, str]],
    ) -> dict[str, str] | None:
        """Positional alias mapping between two scanned-entry lists over
        the same table references, or ``None``."""
        if len(anchor) != len(candidate):
            return None
        mapping = {}
        for (anchor_alias, anchor_table), (alias, table) in zip(anchor, candidate):
            if anchor_table != table:
                return None
            mapping[alias] = anchor_alias
        return mapping

    def _rename_text(self, text: str, mapping: dict[str, str]) -> str:
        for old, new in sorted(mapping.items(), key=lambda i: -len(i[0])):
            text = re.sub(alias_pattern(old), f"{new}.", text)
        return text
