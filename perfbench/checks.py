"""Correctness checks computed apart from the program.

``Reference`` reads a bundle's files with its own parsers (vocabulary,
catalog, the KENC checkpoint, the KEMB embeddings), tokenizes with its own
code and runs the encoder's forward pass in plain numpy.  From that it
scores every catalog keyword exhaustively for the generative channel and
scans every vector in float64 for the dense channel.  Nothing here imports
``unikw``.

Every ``check_*`` function takes plain lists and arrays and returns a list
of error strings, empty when the output is right, so ``selftest.py`` can
feed each one deliberately wrong outputs and see it object.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

UNK, EOW = 1, 2
RESERVED = ("<pad>", "<unk>", "</kw>")
SCORE_TOL = 1e-9      # NLG score vs the sum of the keyword's table entries
SCAN_TOL = 1e-6       # DR score vs the float64 scan; also the tie width
SOURCE_RANK = {"BOTH": 0, "DR": 1, "NLG": 2}
PARAM_ORDER = ("token_emb", "pos_emb", "dense_proj", "hidden_w", "hidden_b", "out_w", "out_b")


def _strip_footer(data: bytes, magic: bytes) -> bytes:
    if data[:4] != magic:
        raise ValueError(f"bad magic, expected {magic!r}")
    return data[:-8]  # the footer's CRC is the program's business, not ours


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    body = _strip_footer(path.read_bytes(), b"KENC")
    v, d, d_dr, h, m = struct.unpack_from("<QIIII", body, 8)
    shapes = {
        "token_emb": (v, d), "pos_emb": (m, d), "dense_proj": (d_dr, d),
        "hidden_w": (h, 2 * d), "hidden_b": (h,), "out_w": (v, h), "out_b": (v,),
    }
    pos, out = 8 + struct.calcsize("<QIIII"), {}
    for name in PARAM_ORDER:
        count = int(np.prod(shapes[name]))
        out[name] = np.frombuffer(body, "<f8", count, pos).reshape(shapes[name])
        pos += 8 * count
    if pos != len(body):
        raise ValueError("checkpoint length does not match its header")
    return out


def read_embeddings(path: Path) -> tuple[np.ndarray, np.ndarray]:
    body = _strip_footer(path.read_bytes(), b"KEMB")
    _, n, dim = struct.unpack_from("<IQI", body, 4)
    pos = 4 + struct.calcsize("<IQI")
    vectors = np.frombuffer(body, "<f4", n * dim, pos).reshape(n, dim)
    ids = np.frombuffer(body, "<u8", n, pos + 4 * n * dim).astype(np.int64)
    return vectors, ids


class Reference:
    """Independent model of one bundle directory."""

    def __init__(self, bundle_dir: Path):
        bundle_dir = Path(bundle_dir)
        tokens = (bundle_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
        self.token_id = {tok: i for i, tok in enumerate(RESERVED + tuple(tokens))}
        self.catalog = (bundle_dir / "keywords.txt").read_text(encoding="utf-8").splitlines()
        self.p = read_checkpoint(bundle_dir / "encoder.kenc")
        self.max_len = self.p["pos_emb"].shape[0]
        self.index_vectors, self.index_ids = read_embeddings(bundle_dir / "embeddings.kemb")
        self.index_vectors64 = self.index_vectors.astype(np.float64)

        seqs = [self.tokenize(text, keyword=True) for text in self.catalog]
        self.kw_len = np.array([len(s) for s in seqs])
        self.kw_tokens = np.zeros((len(seqs), self.max_len), dtype=np.int64)
        for i, s in enumerate(seqs):
            self.kw_tokens[i, : len(s)] = s
        self.kw_mask = np.arange(self.max_len)[None, :] < self.kw_len[:, None]
        pooled = (self.p["token_emb"][self.kw_tokens] * self.kw_mask[:, :, None]).sum(1)
        self.kw_embeddings = self._unit(pooled / self.kw_len[:, None] @ self.p["dense_proj"].T)

    def tokenize(self, text: str, keyword: bool = False) -> list[int]:
        ids = [UNK if t in RESERVED else self.token_id.get(t, UNK) for t in text.lower().split()]
        ids = ids or [UNK]
        return ids[: self.max_len - 1] + [EOW] if keyword else ids[: self.max_len]

    @staticmethod
    def _unit(z: np.ndarray) -> np.ndarray:
        return z / np.linalg.norm(z, axis=-1, keepdims=True)

    def forward(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """(unit dense embedding, M x V log-probability table) of a query."""
        p, d = self.p, self.p["token_emb"].shape[1]
        pooled = p["token_emb"][self.tokenize(query)].mean(axis=0)
        dense = self._unit(p["dense_proj"] @ pooled)
        pre = p["hidden_w"][:, :d] @ pooled + p["pos_emb"] @ p["hidden_w"][:, d:].T + p["hidden_b"]
        logits = np.maximum(pre, 0.0) @ p["out_w"].T + p["out_b"]
        top = logits.max(axis=1, keepdims=True)
        table = logits - (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True)))
        return dense, table

    def nlg_scores(self, table: np.ndarray) -> np.ndarray:
        """Score of every catalog keyword: the sum of its table entries."""
        rows = np.broadcast_to(np.arange(self.max_len), self.kw_tokens.shape)
        return np.where(self.kw_mask, table[rows, self.kw_tokens], 0.0).sum(axis=1)

    def scan(self, dense: np.ndarray) -> np.ndarray:
        """Float64 inner product of the query with every indexed vector,
        indexed by keyword id (``check_embeddings`` pins ids to rows)."""
        return self.index_vectors64 @ dense


# ------------------------------------------------------------------ ranking


def top(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top k of a score-per-id array by (-score, id)."""
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    return [(int(i), float(scores[i])) for i in order]


def recall_at(found: list[tuple[int, float]], truth: list[tuple[int, float]], tol: float) -> float:
    """Share of ``truth`` present in ``found``; a truth member that ties
    (within ``tol``) the last score of ``found`` counts as present."""
    if not truth:
        return 1.0
    ids = {kid for kid, _ in found}
    floor = found[-1][1] - tol if found else float("inf")
    return sum(1 for kid, s in truth if kid in ids or s >= floor) / len(truth)


# ------------------------------------------------------------------- checks


def _sorted_by_score(pairs, label: str) -> list[str]:
    keys = [(-s, kid) for kid, s in pairs]
    return [] if keys == sorted(keys) else [f"{label}: not sorted by (-score, id)"]


def check_nlg(nlg, exhaustive: np.ndarray, beam: int) -> list[str]:
    """Scores equal the keyword's summed table entries; list shape is legal."""
    errors = _sorted_by_score(nlg, "NLG")
    ids = [kid for kid, _ in nlg]
    if len(nlg) > beam:
        errors.append(f"NLG: {len(nlg)} results exceed beam {beam}")
    if len(set(ids)) != len(ids):
        errors.append("NLG: repeated keyword id")
    for kid, score in nlg:
        if not 0 <= kid < len(exhaustive):
            errors.append(f"NLG: id {kid} outside the catalog")
        elif abs(score - exhaustive[kid]) > SCORE_TOL:
            errors.append(f"NLG: id {kid} scored {score!r}, table sum {exhaustive[kid]!r}")
    return errors


def check_dr(dr, scan: np.ndarray, k: int, exact: bool) -> list[str]:
    """Reported scores are true inner products; an exact index returns the
    scan's top k up to ties within SCAN_TOL."""
    errors = _sorted_by_score(dr, "DR")
    ids = [kid for kid, _ in dr]
    if len(set(ids)) != len(ids):
        errors.append("DR: repeated keyword id")
    if len(dr) != min(k, len(scan)):
        errors.append(f"DR: {len(dr)} results, expected {min(k, len(scan))}")
    for kid, score in dr:
        if not 0 <= kid < len(scan):
            errors.append(f"DR: id {kid} is not in the index")
        elif abs(score - scan[kid]) > SCAN_TOL:
            errors.append(f"DR: id {kid} scored {score!r}, scan says {scan[kid]!r}")
    if exact and not errors:
        for pos, ((kid, _), (_, want)) in enumerate(zip(dr, top(scan, k))):
            if abs(scan[kid] - want) > SCAN_TOL:
                errors.append(f"DR: rank {pos} holds id {kid}, scan's rank {pos} scores {want!r}")
                break
    return errors


def check_merged(nlg, dr, merged: list[dict], catalog: list[str]) -> list[str]:
    """Exactly the union, right labels and scores, BOTH -> DR -> NLG order."""
    nlg_s, dr_s = dict(nlg), dict(dr)
    ids = [r["id"] for r in merged]
    errors = []
    if len(set(ids)) != len(ids):
        errors.append("merged: repeated keyword id")
    if set(ids) != set(nlg_s) | set(dr_s):
        errors.append("merged: not the union of the two channels")
    for r in merged:
        kid = r["id"]
        in_n, in_d = kid in nlg_s, kid in dr_s
        want = "BOTH" if in_n and in_d else "NLG" if in_n else "DR"
        if r["source"] != want:
            errors.append(f"merged: id {kid} labelled {r['source']}, expected {want}")
        if r.get("nlg_score") != nlg_s.get(kid) or r.get("dr_score") != dr_s.get(kid):
            errors.append(f"merged: id {kid} carries other scores than its channels")
        if not 0 <= kid < len(catalog) or r["keyword"] != catalog[kid]:
            errors.append(f"merged: id {kid} text {r['keyword']!r} is not its catalog line")
    if not errors:
        keys = [
            (SOURCE_RANK[r["source"]],
             -(r["dr_score"] if r.get("dr_score") is not None else r["nlg_score"]), r["id"])
            for r in merged
        ]
        if keys != sorted(keys):
            errors.append("merged: not in BOTH -> DR -> NLG order by score, then id")
    return errors


def check_forward_passes(passes: list[int]) -> list[str]:
    bad = [i for i, n in enumerate(passes) if n != 1]
    return [f"{len(bad)} retrieve calls ran other than one encoder pass (first: call {bad[0]})"] if bad else []


def check_cli_rows(cli_rows: list[dict], library_rows: list[dict]) -> list[str]:
    """`unikw retrieve` writes exactly what the library returns."""
    if len(cli_rows) != len(library_rows):
        return [f"CLI wrote {len(cli_rows)} rows for {len(library_rows)} queries"]
    for i, (got, want) in enumerate(zip(cli_rows, library_rows)):
        if got != want:
            return [f"CLI row {i} ({want['query']!r}) differs from the library result"]
    return []


def check_floor(name: str, value: float, floor: float) -> list[str]:
    return [] if value >= floor else [f"{name} {value:.4f} below the floor {floor}"]


def gold_recall(lists, gold: list[int], k: int = 10) -> float:
    """Share of queries whose gold keyword is in the channel's top k."""
    return sum(g in [kid for kid, _ in lst[:k]] for lst, g in zip(lists, gold)) / len(gold)


def check_embeddings(ref: Reference) -> list[str]:
    """The index holds every catalog keyword's embedding (float32 of ours)."""
    if not np.array_equal(ref.index_ids, np.arange(len(ref.catalog))):
        return ["index: ids are not the catalog ids in order"]
    worst = float(np.abs(ref.index_vectors64 - ref.kw_embeddings).max())
    return [] if worst <= SCAN_TOL else [f"index: embedding off by {worst:.3g}"]
