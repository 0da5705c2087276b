"""Proof-trace records, the line-delimited dataset format, depth bins, and stats.

A dataset file is UTF-8 text: one `#manifest <json>` line, then `#term <id>
<sexpr>` lines (ids dense from 0, in first-use order), then one JSON object
per trace record. Term ids inside records index the file's term table;
writing renumbers store ids densely and reading maps them back, so round
trips preserve structure rather than raw id values.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .sexpr import parse_sexpr, print_sexpr
from .terms import App, Prod, TermId, TermStore


@dataclass(frozen=True)
class TacticArg:
    kind: str  # "local" | "global" | "term"
    value: str


@dataclass(frozen=True)
class TacticCall:
    class_name: str
    raw: str
    args: tuple[TacticArg, ...] = ()


@dataclass(frozen=True)
class TraceRecord:
    """One proof state together with the tactic applied at it."""

    lemma: str
    state_id: int
    parent_id: int | None
    ctx: tuple[tuple[str, TermId], ...]
    goal: TermId
    tactic: TacticCall
    children: tuple[int, ...]


class DatasetError(Exception):
    pass


# -- serialization ------------------------------------------------------------


def write_dataset(records: list[TraceRecord], store: TermStore, manifest: dict | None = None) -> str:
    """Render records as dataset text. Deterministic for equal inputs."""
    header = {"version": 1, "kind": "generic"}
    if manifest:
        header.update(manifest)
    remap: dict[TermId, int] = {}

    def file_id(tid: TermId) -> int:
        if tid not in remap:
            remap[tid] = len(remap)
        return remap[tid]

    body: list[str] = []
    for rec in records:
        obj = {
            "lemma": rec.lemma,
            "state_id": rec.state_id,
            "parent_id": rec.parent_id,
            "ctx": [[name, file_id(tid)] for name, tid in rec.ctx],
            "goal": file_id(rec.goal),
            "tactic": {
                "class": rec.tactic.class_name,
                "raw": rec.tactic.raw,
                "args": [{"kind": a.kind, "value": a.value} for a in rec.tactic.args],
            },
            "children": list(rec.children),
        }
        body.append(json.dumps(obj, ensure_ascii=False))

    lines = ["#manifest " + json.dumps(header, sort_keys=True, ensure_ascii=False)]
    table = sorted(remap.items(), key=lambda kv: kv[1])
    for tid, fid in table:
        lines.append(f"#term {fid} {print_sexpr(store, tid)}")
    lines.extend(body)
    return "\n".join(lines) + "\n"


def read_dataset(text: str, store: TermStore | None = None) -> tuple[list[TraceRecord], TermStore, dict]:
    """Parse dataset text into records over a store. Unknown symbols are declared."""
    if store is None:
        store = TermStore()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#manifest "):
        raise DatasetError("line 1: expected a #manifest line")
    try:
        manifest = json.loads(lines[0][len("#manifest ") :])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line 1: bad manifest json: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"line 1: manifest must be a JSON object, got {type(manifest).__name__}")

    table: list[TermId] = []
    memo: dict[str, TermId] = {}  # subterm spans read so far (see sexpr)
    records: list[TraceRecord] = []
    seen_states: set[tuple[str, int]] = set()
    in_table = True
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#term "):
            if not in_table:
                raise DatasetError(f"line {lineno}: term table line after records")
            rest = line[len("#term ") :]
            fid_text, _, sexpr_text = rest.partition(" ")
            try:
                fid = int(fid_text)
            except ValueError:
                fid = None
            # accept only what write_dataset prints; int() also takes "+0", "00", "0_0" and "٠"
            if fid is None or str(fid) != fid_text:
                raise DatasetError(f"line {lineno}: bad term id {fid_text!r}")
            if fid != len(table):
                raise DatasetError(f"line {lineno}: term id {fid} is not dense (expected {len(table)})")
            try:
                table.append(parse_sexpr(store, sexpr_text, auto_declare=True, memo=memo))
            except Exception as exc:
                raise DatasetError(f"line {lineno}: {exc}") from exc
            continue
        in_table = False
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: bad record json: {exc}") from exc
        records.append(_record_from_json(obj, table, seen_states, lineno))
    return records, store, manifest


def _record_from_json(
    obj: dict, table: list[TermId], seen: set[tuple[str, int]], lineno: int
) -> TraceRecord:
    def ref(fid: object) -> TermId:
        if type(fid) is not int or not (0 <= fid < len(table)):  # bool is an int subclass
            raise DatasetError(f"line {lineno}: dangling term ref {fid!r}")
        return table[fid]

    try:
        lemma = obj["lemma"]
        state_id = obj["state_id"]
        parent_id = obj["parent_id"]
        children = tuple(obj["children"])
        tac = obj["tactic"]
        # bool is an int subclass, so compare exact types
        if (
            type(state_id) is not int
            or (parent_id is not None and type(parent_id) is not int)
            or not all(type(child) is int for child in children)
        ):
            raise DatasetError(f"line {lineno}: state ids must be integers")
        ctx = tuple((name, ref(fid)) for name, fid in obj["ctx"])
        args = tuple(TacticArg(a["kind"], a["value"]) for a in tac["args"])
        if not (
            type(lemma) is str
            and type(tac["class"]) is str
            and type(tac["raw"]) is str
            and all(type(name) is str for name, _ in ctx)
            and all(type(a.kind) is str and type(a.value) is str for a in args)
        ):
            raise DatasetError(f"line {lineno}: lemma, context and tactic names must be strings")
        key = (lemma, state_id)
        if key in seen:
            raise DatasetError(f"line {lineno}: duplicate state {state_id} in lemma {lemma!r}")
        seen.add(key)
        return TraceRecord(
            lemma=lemma,
            state_id=state_id,
            parent_id=parent_id,
            ctx=ctx,
            goal=ref(obj["goal"]),
            tactic=TacticCall(class_name=tac["class"], raw=tac["raw"], args=args),
            children=children,
        )
    except KeyError as exc:
        raise DatasetError(f"line {lineno}: missing record key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"line {lineno}: malformed record: {exc}") from None


def record_steps_below(records: list[TraceRecord]) -> dict[int, int]:
    """Edge count below each recorded state of one lemma."""
    by_state: dict[int, TraceRecord] = {}
    for rec in records:
        if rec.state_id in by_state:
            raise DatasetError(f"duplicate state {rec.state_id} in lemma {rec.lemma!r}")
        by_state[rec.state_id] = rec

    # Post-order walk with an explicit stack: proofs can be thousands of steps deep.
    depth: dict[int, int] = {}
    open_states: set[int] = set()
    for root in by_state:
        stack = [(root, False)]
        while stack:
            sid, expanded = stack.pop()
            rec = by_state.get(sid)
            if expanded:
                depth[sid] = 1 + sum(depth[child] for child in rec.children)
            elif sid in depth or rec is None:
                depth.setdefault(sid, 0)
            elif sid in open_states:
                raise DatasetError(f"state {sid} of lemma {rec.lemma!r} is its own descendant")
            else:
                open_states.add(sid)
                stack.append((sid, True))
                stack.extend((child, False) for child in rec.children)
    return {sid: depth[sid] for sid in by_state}


# -- depth bins -----------------------------------------------------------------


# Inclusive upper bounds of the remaining-proof-depth classes, 1-based:
# <= 5 steps is class 1 (close), 6-19 class 2 (medium), >= 20 class 3 (far).
DEPTH_BOUNDS = (5, 19)


def bin_depth(steps: int) -> int:
    if steps < 0:
        raise DatasetError(f"steps must be non-negative, got {steps}")
    for i, upper in enumerate(DEPTH_BOUNDS):
        if steps <= upper:
            return i + 1
    return len(DEPTH_BOUNDS) + 1


# -- corpus statistics ------------------------------------------------------------


def histograms(records: list[TraceRecord], store: TermStore) -> tuple[dict[str, int], dict[str, int]]:
    """(AST node kind counts, tactic class counts) over all records.

    Node kinds are counted per occurrence in the expanded tree view of each
    record's context entry types and goal.
    """
    kind_cache: dict[TermId, Counter] = {}

    def kinds(tid: TermId) -> Counter:
        got = kind_cache.get(tid)
        if got is not None:
            return got
        term = store.term(tid)
        c = Counter({type(term).__name__: 1})
        if isinstance(term, App):
            c.update(kinds(term.head))
            for child in term.args:
                c.update(kinds(child))
        elif isinstance(term, Prod):
            c.update(kinds(term.ty))
            c.update(kinds(term.body))
        kind_cache[tid] = c
        return c

    nodes: Counter = Counter()
    tactics: Counter = Counter()
    for rec in records:
        for _, ty in rec.ctx:
            nodes.update(kinds(ty))
        nodes.update(kinds(rec.goal))
        tactics[rec.tactic.class_name] += 1
    return dict(nodes), dict(tactics)


def format_table(counts: dict[str, int], title: str) -> str:
    """Plot-ready text table, largest first, name-tie-broken."""
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "\n".join([f"# {title}"] + [f"{name}\t{count}" for name, count in rows])
