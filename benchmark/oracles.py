"""Independent recomputations of lidkit's outputs, and the checks built on them.

Nothing here calls lidkit: the text formats (score file, trial key,
x-vector lines, enrolled models, model binary) are read by parsers of this
file, and every metric is recomputed by a method different from the one in
``lidkit.metrics``:

* min-sweep Cavg and pooled EER by brute-force threshold enumeration
  (direct counting at every candidate threshold) for small files, and by
  one global sort plus cumulative counts for large ones;
* the network forward pass frame by frame, splicing each output frame's
  context explicitly, with two-pass statistics pooling.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

METRIC_TOL = 1e-12  # program value against recomputation, in full precision
TEXT_REL = 1e-8  # values that went through 9-significant-digit text


# ---------------------------------------------------------------------------
# text formats

def data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def read_key(path):
    """(language list, {segment: language or 'OOS'}) from a trial key."""
    lines = data_lines(path)
    languages = next(lines).split()
    entries = {}
    for line in lines:
        seg, lang = line.split()
        entries[seg] = lang
    return languages, entries


def read_rows(path):
    """(ids, float matrix) from any 'id v1 v2 ...' text file (scores, x-vectors)."""
    ids, rows = [], []
    for line in data_lines(path):
        tokens = line.split()
        ids.append(tokens[0])
        rows.append([float(tok) for tok in tokens[1:]])
    return ids, np.array(rows, dtype=np.float64)


def read_enrolled(path):
    """{language: centroid} from an enrolled-models file ('lang count v1 ...')."""
    out = {}
    for line in data_lines(path):
        tokens = line.split()
        out[tokens[0]] = np.array([float(tok) for tok in tokens[2:]])
    return out


def read_report(path):
    """Flat 'key value' report as a dict of strings."""
    return dict(line.split(None, 1) for line in data_lines(path))


def aligned(ids, matrix, languages, entries):
    """Score matrix in key order and true-language column (-1 out of set)."""
    row_of = {seg: i for i, seg in enumerate(ids)}
    order = [row_of[seg] for seg in entries]
    col_of = {lang: j for j, lang in enumerate(languages)}
    truth = np.array([col_of.get(entries[seg], -1) for seg in entries], dtype=np.int64)
    return matrix[order], truth


# ---------------------------------------------------------------------------
# detection cost and equal error rate

def _groups(truth, n_lang):
    groups = list(range(n_lang))
    if np.any(truth == -1):
        groups.append(-1)
    return groups


def cavg_at(matrix, truth, theta, p_target=0.5):
    """Average cost at one threshold by counting each (target, nontarget) pair."""
    n_lang = matrix.shape[1]
    p_nt = (1.0 - p_target) / (n_lang - 1)
    total = 0.0
    for t in range(n_lang):
        tgt = matrix[truth == t, t]
        term = p_target * np.count_nonzero(tgt < theta) / tgt.size
        for g in _groups(truth, n_lang):
            if g != t:
                pool = matrix[truth == g, t]
                term += p_nt * np.count_nonzero(pool >= theta) / pool.size
        total += term
    return total / n_lang


def _candidates(matrix):
    return np.unique(np.concatenate([matrix.ravel(), [-np.inf, np.inf]]))


def min_cavg_bruteforce(matrix, truth, p_target=0.5):
    """Minimum average cost over every distinct score and +/-inf, each
    threshold evaluated by direct comparison against every trial."""
    thetas = _candidates(matrix)
    n_lang = matrix.shape[1]
    p_nt = (1.0 - p_target) / (n_lang - 1)
    curve = np.zeros(thetas.size)
    for t in range(n_lang):
        tgt = matrix[truth == t, t]
        curve += p_target * (tgt[:, None] < thetas[None, :]).sum(axis=0) / tgt.size
        for g in _groups(truth, n_lang):
            if g != t:
                pool = matrix[truth == g, t]
                curve += p_nt * (pool[:, None] >= thetas[None, :]).sum(axis=0) / pool.size
    return float(np.min(curve / n_lang))


def min_cavg_sorted(matrix, truth, p_target=0.5):
    """Minimum average cost from one sort of all trials.

    The cost at threshold theta is the cost at -inf (every false alarm,
    no miss) plus one weight per trial scoring below theta: a target trial
    adds its miss share, a nontarget trial removes its false-alarm share.
    A cumulative sum over the sorted trials therefore gives the whole
    curve; the minimizing threshold is then re-costed by direct counting
    so the returned value does not carry the cumulative rounding.
    """
    n_lang = matrix.shape[1]
    p_nt = (1.0 - p_target) / (n_lang - 1)
    group_size = np.bincount(truth + 1, minlength=n_lang + 1)[truth + 1]
    is_target = truth[:, None] == np.arange(n_lang)[None, :]
    weights = np.where(
        is_target,
        p_target / (n_lang * group_size[:, None]),
        -p_nt / (n_lang * group_size[:, None]),
    ).ravel()
    values = matrix.ravel()
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    below = np.concatenate([[0.0], np.cumsum(weights)])
    start_cost = p_nt * (len(_groups(truth, n_lang)) - 1)
    thetas = _candidates(matrix)
    first = np.searchsorted(values, thetas, side="left")
    curve = start_cost + below[first]
    best = float(thetas[int(np.argmin(curve))])
    return cavg_at(matrix, truth, best, p_target), best


def _eer(miss, fa):
    """First crossing of miss and false alarm, linear between the two
    points around it; ``miss``/``fa`` include the (0,1) and (1,0) ends."""
    for k in range(len(miss)):
        if miss[k] >= fa[k]:
            if miss[k] == fa[k]:
                return float(miss[k])
            gap_before = fa[k - 1] - miss[k - 1]
            gap_after = miss[k] - fa[k]
            share = gap_before / (gap_before + gap_after)
            return float(miss[k - 1] + share * (miss[k] - miss[k - 1]))
    raise ValueError("miss and false-alarm curves never cross")


def _pools(matrix, truth):
    is_target = truth[:, None] == np.arange(matrix.shape[1])[None, :]
    return matrix[is_target], matrix[~is_target]


def eer_bruteforce(matrix, truth):
    """Pooled EER with every DET point counted directly."""
    targets, nontargets = _pools(matrix, truth)
    miss, fa = [0.0], [1.0]
    for theta in np.unique(matrix):
        miss.append(np.count_nonzero(targets < theta) / targets.size)
        fa.append(np.count_nonzero(nontargets >= theta) / nontargets.size)
    return _eer(miss + [1.0], fa + [0.0])


def det_sorted(matrix, truth):
    """Pooled DET points (miss, fa arrays, ends included) from one sort."""
    is_target = (truth[:, None] == np.arange(matrix.shape[1])[None, :]).ravel()
    values = matrix.ravel()
    order = np.argsort(values, kind="stable")
    values, is_target = values[order], is_target[order]
    n_tar = np.count_nonzero(is_target)
    n_non = is_target.size - n_tar
    tar_below = np.concatenate([[0], np.cumsum(is_target)])
    non_below = np.concatenate([[0], np.cumsum(~is_target)])
    firsts = np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))
    miss = np.concatenate([[0.0], tar_below[firsts] / n_tar, [1.0]])
    fa = np.concatenate([[1.0], (n_non - non_below[firsts]) / n_non, [0.0]])
    return miss, fa


def eer_sorted(matrix, truth):
    miss, fa = det_sorted(matrix, truth)
    k = int(np.argmax(miss >= fa))
    return _eer(miss[k - 1 : k + 1], fa[k - 1 : k + 1]) if k else float(miss[0])


# ---------------------------------------------------------------------------
# network

def read_model(path):
    """Layers of a model file as dicts: name, offsets (None for dense),
    relu flag, weight matrix and bias."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != b"LIDNET01":
        raise ValueError(f"{path}: not a model file")
    pos = 8

    def take(fmt):
        nonlocal pos
        out = struct.unpack_from(fmt, data, pos)
        pos += struct.calcsize(fmt)
        return out

    (num_layers,) = take("<I")
    layers = []
    for _ in range(num_layers):
        (name_len,) = take("<H")
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (flags,) = take("<B")
        (n_off,) = take("<H")
        offsets = take(f"<{n_off}i")
        in_dim, out_dim = take("<II")
        layers.append({"name": name, "offsets": offsets if flags & 2 else None,
                       "relu": bool(flags & 1), "in": in_dim, "out": out_dim})
    for layer in layers:
        n_w, n_b = layer["in"] * layer["out"], layer["out"]
        layer["w"] = np.frombuffer(data, "<f8", n_w, pos).reshape(layer["out"], layer["in"])
        pos += 8 * n_w
        layer["b"] = np.frombuffer(data, "<f8", n_b, pos)
        pos += 8 * n_b
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return layers


def naive_forward(layers, frames):
    """(log posteriors, x-vector) for one utterance.

    Each frame layer builds its input one output frame at a time by
    concatenating the context rows at the layer's offsets (no padding, so
    time shrinks by the context span); pooling is a two-pass mean and
    population standard deviation; the x-vector is the first dense layer's
    affine output.
    """
    x = np.asarray(frames, dtype=np.float64)
    dense_outputs = []
    for layer in layers:
        if layer["offsets"] is not None:
            offs = layer["offsets"]
            lo, hi = min(offs), max(offs)
            spliced = np.array([
                np.concatenate([x[t - lo + off] for off in offs])
                for t in range(x.shape[0] - (hi - lo))
            ])
            x = spliced @ layer["w"].T + layer["b"]
        else:
            if x.ndim == 2:
                mean = x.sum(axis=0) / x.shape[0]
                std = np.sqrt(((x - mean) ** 2).sum(axis=0) / x.shape[0])
                x = np.concatenate([mean, std])
            x = layer["w"] @ x + layer["b"]
            dense_outputs.append(x)
        if layer["relu"]:
            x = np.maximum(x, 0.0)
    top = x.max()
    log_post = x - top - math.log(np.exp(x - top).sum())
    return log_post, dense_outputs[0]


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# checks

def _close(got, want, rel, abs_tol=0.0):
    return abs(got - want) <= abs_tol + rel * max(abs(want), 1.0)


def check_metric(label, got, want, tol=METRIC_TOL):
    if not _close(got, want, 0.0, tol):
        return [f"{label}: program {got!r} != recomputed {want!r}"]
    return []


def check_text_metric(label, text, want):
    got = float(text)
    if not _close(got, want, TEXT_REL, 5e-10):
        return [f"{label}: written {text} != recomputed {want!r}"]
    return []


def check_cover(label, ids, entries):
    problems = []
    if len(ids) != len(set(ids)):
        problems.append(f"{label}: duplicate segment ids")
    missing = set(entries) - set(ids)
    extra = set(ids) - set(entries)
    if missing or extra:
        problems.append(f"{label}: {len(missing)} key segments missing, {len(extra)} not in key")
    return problems


def neg_inf_rows(matrix):
    return int(np.count_nonzero(np.all(np.isneginf(matrix), axis=1))) if matrix.size else 0


def check_posteriors(label, matrix, tol=1e-9):
    """Rows of log posteriors over every training language sum to 1 after
    exp, within ``tol`` beyond what writing each value at 9 significant
    digits can move the sum (rows that failed, all -inf, are left out)."""
    live = matrix[~np.all(np.isneginf(matrix), axis=1)]
    if not live.size:
        return []
    magnitude = np.floor(np.log10(np.maximum(np.abs(live), 1e-300)))
    rounding = (np.exp(live) * 0.5 * 10.0 ** (magnitude - 8)).sum(axis=1)
    excess = np.abs(np.exp(live).sum(axis=1) - 1.0) - rounding
    worst = float(excess.max())
    return [f"{label}: posterior row sums off by {worst:.3g} beyond text rounding"] if worst > tol else []


def check_rows_equal(label, got, want, rel=TEXT_REL):
    """Two matrices equal up to 9-digit text rounding (-inf must match exactly)."""
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    same_inf = np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    err = np.abs(got[finite] - want[finite]) / np.maximum(np.abs(want[finite]), 1.0)
    worst = float(err.max()) if err.size else 0.0
    if not same_inf or worst > rel:
        return [f"{label}: differs from recomputation (max rel err {worst:.3g}, "
                f"-inf pattern {'same' if same_inf else 'differs'})"]
    return []


def check_zero_scores(label, ids, scores, xvec_ids, xvecs, languages, centroids):
    """Zero-resource scores equal cos(x-vector, centroid) per column."""
    row_of = {seg: i for i, seg in enumerate(xvec_ids)}
    missing = [seg for seg in ids if seg not in row_of]
    if missing:
        return [f"{label}: {len(missing)} scored segments have no x-vector"]
    want = np.array([[cosine(xvecs[row_of[seg]], centroids[lang]) for lang in languages]
                     for seg in ids])
    return check_rows_equal(label, scores, want, rel=5e-9)
